#include "translate/translate.h"

#include <algorithm>

#include "common/macros.h"

namespace kola {

namespace {

using aqua::BinOp;
using aqua::Expr;
using aqua::ExprKind;
using aqua::ExprPtr;

/// Composition with on-the-fly identity elimination (keeps translations
/// small, mirroring the paper's observation that translated queries stay
/// under 2x the source size).
TermPtr SmartCompose(TermPtr f, TermPtr g) {
  if (f->IsPrimFn("id")) return g;
  if (g->IsPrimFn("id")) return f;
  return Compose(std::move(f), std::move(g));
}

const char* PredNameFor(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "eq";
    case BinOp::kNeq: return "neq";
    case BinOp::kLt: return "lt";
    case BinOp::kLeq: return "leq";
    case BinOp::kGt: return "gt";
    case BinOp::kGeq: return "geq";
    case BinOp::kIn: return "in";
  }
  return "eq";
}

bool IsBooleanKind(ExprKind kind) {
  return kind == ExprKind::kBinOp || kind == ExprKind::kAnd ||
         kind == ExprKind::kOr || kind == ExprKind::kNot;
}

/// Index of `name` in `env`, innermost (last) occurrence for shadowing.
StatusOr<size_t> EnvIndex(const std::vector<std::string>& env,
                          const std::string& name) {
  for (size_t i = env.size(); i-- > 0;) {
    if (env[i] == name) return i;
  }
  return NotFoundError("unbound variable " + name +
                       " (not in the translation environment)");
}

}  // namespace

Status Translator::EnterNesting(const ExprPtr& expr) {
  // The parsers' budget size (aqua/syntax.h, term/parser.cc), counted
  // here as one unit per TranslateQuery/TranslateFn/TranslatePred call:
  // about one per Expr level, two where a closed subexpression inside a
  // function is translated as a query. Each call costs a bounded number of
  // native frames, so deep expressions fail cleanly long before the stack
  // would run out.
  static constexpr int kMaxNestingDepth = 1'000;
  if (depth_ >= kMaxNestingDepth) {
    return ResourceExhaustedError(
        "AQUA expression nesting exceeds the translator's depth budget of " +
        std::to_string(kMaxNestingDepth) + " while translating " +
        aqua::ExprKindToString(expr->kind()));
  }
  ++depth_;
  return Status::OK();
}

TermPtr Translator::Seq(TermPtr f, TermPtr g) const {
  if (options_.simplify_identities) return SmartCompose(std::move(f), std::move(g));
  return Compose(std::move(f), std::move(g));
}

TermPtr Translator::AccessPath(size_t i, size_t k) {
  KOLA_CHECK(k >= 1 && i < k);
  if (k == 1) return Id();
  if (i == k - 1) return Pi2();
  return SmartCompose(AccessPath(i, k - 1), Pi1());
}

StatusOr<TermPtr> Translator::TranslateFn(
    const ExprPtr& expr, const std::vector<std::string>& env) {
  KOLA_CHECK(!env.empty());
  KOLA_RETURN_IF_ERROR(EnterNesting(expr));
  DepthGuard guard{this};
  switch (expr->kind()) {
    case ExprKind::kVar: {
      KOLA_ASSIGN_OR_RETURN(size_t index, EnvIndex(env, expr->name()));
      return AccessPath(index, env.size());
    }
    case ExprKind::kConst:
      return ConstFn(Lit(expr->literal()));
    case ExprKind::kCollection:
      return ConstFn(Collection(expr->name()));
    default:
      break;
  }
  // Closed subexpressions become constants (this is where Kf(P) in the
  // Garage Query comes from, generalized to whole closed subqueries).
  if (options_.fold_closed_subqueries && !IsBooleanKind(expr->kind()) &&
      aqua::FreeVars(expr).empty()) {
    KOLA_ASSIGN_OR_RETURN(TermPtr closed, TranslateQuery(expr));
    return ConstFn(std::move(closed));
  }
  switch (expr->kind()) {
    case ExprKind::kTuple: {
      KOLA_ASSIGN_OR_RETURN(TermPtr a, TranslateFn(expr->child(0), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr b, TranslateFn(expr->child(1), env));
      return PairFn(std::move(a), std::move(b));
    }
    case ExprKind::kFunCall: {
      KOLA_ASSIGN_OR_RETURN(TermPtr arg, TranslateFn(expr->child(0), env));
      return Seq(PrimFn(expr->name()), std::move(arg));
    }
    case ExprKind::kApp:
    case ExprKind::kSel: {
      const ExprPtr& lambda = expr->child(0);
      if (lambda->kind() != ExprKind::kLambda ||
          lambda->params().size() != 1) {
        return InvalidArgumentError("app/sel expects a unary lambda");
      }
      KOLA_ASSIGN_OR_RETURN(TermPtr source,
                            TranslateFn(expr->child(1), env));
      std::vector<std::string> inner_env = env;
      inner_env.push_back(lambda->params()[0]);
      TermPtr loop;
      if (expr->kind() == ExprKind::kApp) {
        KOLA_ASSIGN_OR_RETURN(TermPtr body,
                              TranslateFn(lambda->child(0), inner_env));
        loop = Iter(ConstPredTrue(), std::move(body));
      } else {
        KOLA_ASSIGN_OR_RETURN(TermPtr pred,
                              TranslatePred(lambda->child(0), inner_env));
        loop = Iter(std::move(pred), Pi2());
      }
      return Seq(std::move(loop), PairFn(Id(), std::move(source)));
    }
    case ExprKind::kFlatten: {
      KOLA_ASSIGN_OR_RETURN(TermPtr inner, TranslateFn(expr->child(0), env));
      return Seq(Flat(), std::move(inner));
    }
    case ExprKind::kIfThenElse: {
      KOLA_ASSIGN_OR_RETURN(TermPtr cond,
                            TranslatePred(expr->child(0), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr then_fn,
                            TranslateFn(expr->child(1), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr else_fn,
                            TranslateFn(expr->child(2), env));
      return Cond(std::move(cond), std::move(then_fn), std::move(else_fn));
    }
    case ExprKind::kJoin:
      return UnimplementedError(
          "join under a non-empty environment is not supported by the "
          "translator (desugar to app/sel first)");
    case ExprKind::kLambda:
      return InvalidArgumentError("naked lambda has no translation");
    default:
      return InvalidArgumentError(
          std::string("boolean expression used as an object: ") +
          expr->ToString());
  }
}

StatusOr<TermPtr> Translator::TranslatePred(
    const ExprPtr& expr, const std::vector<std::string>& env) {
  KOLA_RETURN_IF_ERROR(EnterNesting(expr));
  DepthGuard guard{this};
  switch (expr->kind()) {
    case ExprKind::kBinOp: {
      KOLA_ASSIGN_OR_RETURN(TermPtr lhs, TranslateFn(expr->child(0), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr rhs, TranslateFn(expr->child(1), env));
      return Oplus(PrimPred(PredNameFor(expr->op())),
                   PairFn(std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kAnd: {
      KOLA_ASSIGN_OR_RETURN(TermPtr p, TranslatePred(expr->child(0), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr q, TranslatePred(expr->child(1), env));
      return AndP(std::move(p), std::move(q));
    }
    case ExprKind::kOr: {
      KOLA_ASSIGN_OR_RETURN(TermPtr p, TranslatePred(expr->child(0), env));
      KOLA_ASSIGN_OR_RETURN(TermPtr q, TranslatePred(expr->child(1), env));
      return OrP(std::move(p), std::move(q));
    }
    case ExprKind::kNot: {
      KOLA_ASSIGN_OR_RETURN(TermPtr p, TranslatePred(expr->child(0), env));
      return NotP(std::move(p));
    }
    case ExprKind::kConst: {
      if (expr->literal().is_bool()) {
        return ConstPred(BoolConst(expr->literal().bool_value()));
      }
      return TypeError("non-boolean constant used as a predicate: " +
                       expr->literal().ToString());
    }
    default:
      return InvalidArgumentError(
          std::string("expression is not a predicate: ") + expr->ToString());
  }
}

StatusOr<TermPtr> Translator::TranslateQuery(const ExprPtr& expr) {
  KOLA_RETURN_IF_ERROR(EnterNesting(expr));
  DepthGuard guard{this};
  switch (expr->kind()) {
    case ExprKind::kConst:
      return Lit(expr->literal());
    case ExprKind::kCollection:
      return Collection(expr->name());
    case ExprKind::kTuple: {
      KOLA_ASSIGN_OR_RETURN(TermPtr a, TranslateQuery(expr->child(0)));
      KOLA_ASSIGN_OR_RETURN(TermPtr b, TranslateQuery(expr->child(1)));
      return PairObj(std::move(a), std::move(b));
    }
    case ExprKind::kFunCall: {
      KOLA_ASSIGN_OR_RETURN(TermPtr arg, TranslateQuery(expr->child(0)));
      return Apply(PrimFn(expr->name()), std::move(arg));
    }
    case ExprKind::kApp:
    case ExprKind::kSel: {
      const ExprPtr& lambda = expr->child(0);
      if (lambda->kind() != ExprKind::kLambda ||
          lambda->params().size() != 1) {
        return InvalidArgumentError("app/sel expects a unary lambda");
      }
      KOLA_ASSIGN_OR_RETURN(TermPtr source,
                            TranslateQuery(expr->child(1)));
      std::vector<std::string> env = {lambda->params()[0]};
      TermPtr loop;
      if (expr->kind() == ExprKind::kApp) {
        KOLA_ASSIGN_OR_RETURN(TermPtr body,
                              TranslateFn(lambda->child(0), env));
        loop = Iterate(ConstPredTrue(), std::move(body));
      } else {
        KOLA_ASSIGN_OR_RETURN(TermPtr pred,
                              TranslatePred(lambda->child(0), env));
        loop = Iterate(std::move(pred), Id());
      }
      return Apply(std::move(loop), std::move(source));
    }
    case ExprKind::kFlatten: {
      KOLA_ASSIGN_OR_RETURN(TermPtr inner, TranslateQuery(expr->child(0)));
      return Apply(Flat(), std::move(inner));
    }
    case ExprKind::kJoin: {
      const ExprPtr& pred_lambda = expr->child(0);
      const ExprPtr& fn_lambda = expr->child(1);
      if (pred_lambda->kind() != ExprKind::kLambda ||
          pred_lambda->params().size() != 2 ||
          fn_lambda->kind() != ExprKind::kLambda ||
          fn_lambda->params().size() != 2) {
        return InvalidArgumentError("join expects binary lambdas");
      }
      KOLA_ASSIGN_OR_RETURN(TermPtr lhs, TranslateQuery(expr->child(2)));
      KOLA_ASSIGN_OR_RETURN(TermPtr rhs, TranslateQuery(expr->child(3)));
      KOLA_ASSIGN_OR_RETURN(
          TermPtr pred,
          TranslatePred(pred_lambda->child(0), pred_lambda->params()));
      KOLA_ASSIGN_OR_RETURN(
          TermPtr fn,
          TranslateFn(fn_lambda->child(0), fn_lambda->params()));
      return Apply(Join(std::move(pred), std::move(fn)),
                   PairObj(std::move(lhs), std::move(rhs)));
    }
    case ExprKind::kVar:
      return InvalidArgumentError("query is not closed: free variable " +
                                  expr->name());
    default:
      return UnimplementedError(
          std::string("no query-level translation for ") +
          aqua::ExprKindToString(expr->kind()));
  }
}

namespace {

void MaxEnvDepthImpl(const ExprPtr& expr, size_t current, size_t* best) {
  if (expr->kind() == ExprKind::kLambda) {
    current += expr->params().size();
    *best = std::max(*best, current);
  }
  for (const ExprPtr& child : expr->children()) {
    MaxEnvDepthImpl(child, current, best);
  }
}

}  // namespace

size_t MaxEnvDepth(const ExprPtr& expr) {
  size_t best = 0;
  MaxEnvDepthImpl(expr, 0, &best);
  return best;
}

StatusOr<TranslationSizes> MeasureTranslation(const ExprPtr& expr,
                                              TranslateOptions options) {
  Translator translator(options);
  KOLA_ASSIGN_OR_RETURN(TermPtr term, translator.TranslateQuery(expr));
  TranslationSizes sizes;
  sizes.aqua_nodes = expr->node_count();
  sizes.kola_nodes = term->node_count();
  sizes.max_env_depth = MaxEnvDepth(expr);
  return sizes;
}

}  // namespace kola
