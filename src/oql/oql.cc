#include "oql/oql.h"

#include <vector>

#include "aqua/syntax.h"
#include "common/macros.h"

namespace kola {
namespace oql {

namespace {

using aqua::Expr;
using aqua::ExprKind;
using aqua::ExprPtr;
using aqua::Tok;
using aqua::Token;

class Parser : public aqua::SyntaxParser {
 public:
  Parser() : SyntaxParser(aqua::Dialect::kOql) {}

 private:
  StatusOr<ExprPtr> ParseTop() override { return ParseSelect(); }

  /// select E from x1 in C1, ... where Q
  StatusOr<ExprPtr> ParseSelect() {
    // A nested select recurses through ParseExpr and this frame, so it is
    // charged here as well as in ParseExpr: two units per level, like a
    // parenthesized level, keep the deepest accepted nest inside the
    // native stack.
    DepthGuard guard(this);
    KOLA_RETURN_IF_ERROR(EnterNesting());
    KOLA_RETURN_IF_ERROR(ExpectKeyword("select"));
    // Every FROM variable is in scope of the select list, so skip its
    // tokens now and parse them once the bindings are known.
    size_t projection_start = index_;
    KOLA_RETURN_IF_ERROR(SkipExprTokens());
    size_t projection_end = index_;

    KOLA_RETURN_IF_ERROR(ExpectKeyword("from"));
    struct Binding {
      std::string var;
      ExprPtr source;
    };
    std::vector<Binding> bindings;
    while (true) {
      std::string var = Peek().text;
      KOLA_RETURN_IF_ERROR(Expect(Tok::kIdent, "binding variable"));
      KOLA_RETURN_IF_ERROR(ExpectKeyword("in"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr source, ParseExpr());
      bindings.push_back(Binding{var, std::move(source)});
      bound_.insert(bindings.back().var);
      if (Peek().kind != Tok::kComma) break;
      Advance();
    }

    ExprPtr predicate;  // may stay null
    if (PeekIdent("where")) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(predicate, ParseOr());
    }

    // Re-parse the projection with all binding variables in scope.
    size_t saved = index_;
    index_ = projection_start;
    KOLA_ASSIGN_OR_RETURN(ExprPtr projection, ParseExpr());
    if (index_ != projection_end) {
      return InvalidArgumentError("malformed select list");
    }
    index_ = saved;

    for (const Binding& b : bindings) bound_.erase(bound_.find(b.var));

    // Lower: innermost binding gets app/sel; outer bindings wrap
    // flatten(app(...)).
    const Binding& innermost = bindings.back();
    ExprPtr source = innermost.source;
    if (predicate != nullptr) {
      source = Expr::Sel(Expr::Lambda({innermost.var}, predicate),
                         std::move(source));
    }
    // `select x from x in S ...` needs no identity map over S.
    bool trivial_projection = projection->kind() == ExprKind::kVar &&
                              projection->name() == innermost.var;
    ExprPtr lowered =
        trivial_projection
            ? std::move(source)
            : Expr::App(Expr::Lambda({innermost.var}, projection),
                        std::move(source));
    for (size_t i = bindings.size() - 1; i-- > 0;) {
      lowered = Expr::Flatten(Expr::App(
          Expr::Lambda({bindings[i].var}, std::move(lowered)),
          bindings[i].source));
    }
    return lowered;
  }

  /// Skips one expression's tokens (balanced brackets) up to the keyword
  /// `from` at depth 0. Used to defer projection parsing until the FROM
  /// variables are known.
  Status SkipExprTokens() {
    int depth = 0;
    while (true) {
      const Token& tok = Peek();
      if (tok.kind == Tok::kEnd) {
        return InvalidArgumentError("unterminated select list");
      }
      if (depth == 0 && tok.kind == Tok::kIdent && tok.text == "from") {
        return Status::OK();
      }
      if (tok.kind == Tok::kLParen || tok.kind == Tok::kLBracket ||
          tok.kind == Tok::kLBrace) {
        ++depth;
      }
      if (tok.kind == Tok::kRParen || tok.kind == Tok::kRBracket ||
          tok.kind == Tok::kRBrace) {
        --depth;
        if (depth < 0) return InvalidArgumentError("unbalanced brackets");
      }
      Advance();
    }
  }

  StatusOr<ExprPtr> ParseOperand() override { return ParseExpr(); }
  StatusOr<ExprPtr> ParseElement() override { return ParseExpr(); }

  StatusOr<ExprPtr> ParseExpr() {
    DepthGuard guard(this);
    KOLA_RETURN_IF_ERROR(EnterNesting());
    if (PeekCommonPrimary()) return ParseCommonPrimary();
    const Token& tok = Peek();
    switch (tok.kind) {
      case Tok::kLParen: {
        Advance();
        KOLA_ASSIGN_OR_RETURN(ExprPtr inner,
                              PeekIdent("select") ? ParseSelect() : ParseOr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        return inner;
      }
      case Tok::kIdent: {
        // `flatten` not followed by '(' is a collection name.
        if (tok.text == "flatten" && Peek(1).kind == Tok::kLParen) {
          Advance();  // flatten
          Advance();  // (
          KOLA_ASSIGN_OR_RETURN(
              ExprPtr inner, PeekIdent("select") ? ParseSelect() : ParseExpr());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return Expr::Flatten(std::move(inner));
        }
        Advance();
        return ParseAttributes(NameRef(tok.text));
      }
      default:
        return UnexpectedToken();
    }
  }
};

}  // namespace

StatusOr<aqua::ExprPtr> ParseOql(std::string_view text) {
  return Parser().Parse(text);
}

}  // namespace oql
}  // namespace kola
