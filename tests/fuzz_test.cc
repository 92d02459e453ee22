// Randomized property tests over the whole front end:
//  * printer/parser round trip on thousands of generated well-typed terms,
//  * generated well-typed functions never produce runtime type errors,
//  * evaluation is deterministic,
//  * the structural type inferencer accepts everything the generator
//    emits, at the type it was generated for.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "aqua/parser.h"
#include "common/random.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "translate/translate.h"
#include "rewrite/engine.h"
#include "rewrite/generate.h"
#include "rewrite/match.h"
#include "rewrite/rule_index.h"
#include "rewrite/types.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  FuzzTest()
      : schema_(SchemaTypes::CarWorld()),
        db_(BuildCarWorld(CarWorldOptions{})),
        rng_(static_cast<uint64_t>(GetParam()) * 7919 + 17),
        gen_(&schema_, nullptr, &rng_) {}

  SchemaTypes schema_;
  std::unique_ptr<Database> db_;
  Rng rng_;
  TermGenerator gen_;
};

TEST_P(FuzzTest, PrintParseRoundTripFunctions) {
  for (int i = 0; i < 200; ++i) {
    TypePtr from = gen_.RandomType(2);
    TypePtr to = gen_.RandomType(2);
    auto fn = gen_.RandomFn(from, to, 3);
    ASSERT_TRUE(fn.ok()) << fn.status();
    std::string printed = fn.value()->ToString();
    auto reparsed = ParseTerm(printed, Sort::kFunction);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
    EXPECT_TRUE(Term::Equal(fn.value(), reparsed.value())) << printed;
  }
}

TEST_P(FuzzTest, PrintParseRoundTripPredicates) {
  for (int i = 0; i < 200; ++i) {
    TypePtr on = gen_.RandomType(2);
    auto pred = gen_.RandomPred(on, 3);
    ASSERT_TRUE(pred.ok()) << pred.status();
    std::string printed = pred.value()->ToString();
    auto reparsed = ParseTerm(printed, Sort::kPredicate);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << printed;
    EXPECT_TRUE(Term::Equal(pred.value(), reparsed.value())) << printed;
  }
}

TEST_P(FuzzTest, WellTypedFunctionsNeverTypeError) {
  Evaluator evaluator(db_.get(), EvalOptions{.max_steps = 500'000});
  int evaluated = 0;
  for (int i = 0; i < 150; ++i) {
    TypePtr from = gen_.RandomType(2);
    TypePtr to = gen_.RandomType(2);
    auto fn = gen_.RandomFn(from, to, 3);
    ASSERT_TRUE(fn.ok());
    auto arg = gen_.RandomValue(from);
    ASSERT_TRUE(arg.ok());
    auto result = evaluator.Apply(fn.value(), arg.value());
    // The generator promises well-typedness: the only acceptable failure
    // is the step budget.
    if (result.ok()) {
      ++evaluated;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << fn.value()->ToString() << " ! " << arg.value().ToString()
          << " -> " << result.status();
    }
  }
  EXPECT_GT(evaluated, 100);
}

TEST_P(FuzzTest, EvaluationIsDeterministic) {
  for (int i = 0; i < 60; ++i) {
    TypePtr from = gen_.RandomType(2);
    TypePtr to = gen_.RandomType(2);
    auto fn = gen_.RandomFn(from, to, 3);
    auto arg = gen_.RandomValue(from);
    ASSERT_TRUE(fn.ok() && arg.ok());
    Evaluator e1(db_.get());
    Evaluator e2(db_.get());
    auto r1 = e1.Apply(fn.value(), arg.value());
    auto r2 = e2.Apply(fn.value(), arg.value());
    ASSERT_EQ(r1.ok(), r2.ok());
    if (r1.ok()) {
      EXPECT_EQ(r1.value(), r2.value());
    }
  }
}

TEST_P(FuzzTest, GeneratedTermsTypeCheckAtGeneratedType) {
  for (int i = 0; i < 100; ++i) {
    TypePtr from = gen_.RandomType(2);
    TypePtr to = gen_.RandomType(2);
    auto fn = gen_.RandomFn(from, to, 2);
    ASSERT_TRUE(fn.ok());
    TypeInferencer inferencer(&schema_);
    auto inferred = inferencer.Infer(fn.value());
    ASSERT_TRUE(inferred.ok())
        << inferred.status() << "\n" << fn.value()->ToString();
    // The inferred (possibly polymorphic) type must unify with the
    // generated monomorphic signature.
    EXPECT_TRUE(inferencer
                    .UnifyTermTypes(inferred.value(),
                                    TermType{Sort::kFunction, from, to})
                    .ok())
        << fn.value()->ToString() << " : " << inferred->from->ToString()
        << " -> " << inferred->to->ToString() << " vs "
        << from->ToString() << " -> " << to->ToString();
  }
}

TEST_P(FuzzTest, FastPathAgreesWithNaiveOnRandomJoins) {
  // Generate random eq/in-keyed joins and check hash vs nested-loop.
  for (int i = 0; i < 60; ++i) {
    TypePtr a = gen_.RandomType(1);
    TypePtr key = gen_.RandomType(1);
    auto f = gen_.RandomFn(a, key, 2);
    auto g = gen_.RandomFn(a, rng_.Chance(0.5) ? key : Type::Set(key), 2);
    ASSERT_TRUE(f.ok() && g.ok());
    // Build join(op @ (f x g), (pi1, pi2)); op follows g's result type.
    TypeInferencer inferencer(&schema_);
    auto g_type = inferencer.Infer(g.value());
    ASSERT_TRUE(g_type.ok());
    bool is_in = inferencer.Resolve(g_type->to)->tag() == TypeTag::kSet;
    TermPtr pred = Oplus(is_in ? InP() : EqP(),
                         Product(f.value(), g.value()));
    TermPtr join = Join(pred, PairFn(Pi1(), Pi2()));
    auto lhs = gen_.RandomValue(Type::Set(a));
    auto rhs = gen_.RandomValue(Type::Set(a));
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    Value input = Value::MakePair(lhs.value(), rhs.value());

    Evaluator fast(db_.get(), EvalOptions{.physical_fastpaths = true});
    Evaluator naive(db_.get(), EvalOptions{.physical_fastpaths = false});
    auto r_fast = fast.Apply(join, input);
    auto r_naive = naive.Apply(join, input);
    ASSERT_EQ(r_fast.ok(), r_naive.ok()) << join->ToString();
    if (r_fast.ok()) {
      EXPECT_EQ(r_fast.value(), r_naive.value()) << join->ToString();
    }
  }
}

TEST_P(FuzzTest, MatcherNeverAbortsOnCatalogPatternsAndRoundTrips) {
  // Every catalog lhs against random generated terms: the matcher must
  // answer true/false (never abort, whatever shape arrives), and a
  // successful match must substitute back to the matched term.
  std::vector<Rule> rules = AllCatalogRules();
  int matched = 0;
  for (int i = 0; i < 40; ++i) {
    auto fn = gen_.RandomFn(gen_.RandomType(2), gen_.RandomType(2), 3);
    ASSERT_TRUE(fn.ok()) << fn.status();
    for (const Rule& rule : rules) {
      Bindings bindings;
      if (!MatchTerm(rule.lhs, fn.value(), &bindings)) continue;
      ++matched;
      auto rebuilt = Substitute(rule.lhs, bindings);
      ASSERT_TRUE(rebuilt.ok()) << rule.id << " on " << fn.value();
      EXPECT_TRUE(Term::Equal(rebuilt.value(), fn.value()))
          << rule.id << " rebuilt " << rebuilt.value() << " from "
          << fn.value() << " with " << bindings.ToString();
    }
  }
  EXPECT_GT(matched, 0);
}

TEST_P(FuzzTest, MatchesAgreesWithMatchTermAtEverySubterm) {
  // The allocation-free probe the incremental fixpoint summarizes with
  // must give MatchTerm's verdict for every catalog lhs at every subterm.
  std::vector<Rule> rules = AllCatalogRules();
  int matched = 0;
  for (int i = 0; i < 20; ++i) {
    auto fn = gen_.RandomFn(gen_.RandomType(2), gen_.RandomType(2), 3);
    ASSERT_TRUE(fn.ok()) << fn.status();
    std::vector<TermPtr> stack = {fn.value()};
    while (!stack.empty()) {
      TermPtr node = stack.back();
      stack.pop_back();
      for (const TermPtr& child : node->children()) stack.push_back(child);
      for (const Rule& rule : rules) {
        Bindings bindings;
        const bool expected = MatchTerm(rule.lhs, node, &bindings);
        matched += expected ? 1 : 0;
        EXPECT_EQ(Matches(rule.lhs, node), expected)
            << rule.id << " at " << node->ToString();
      }
    }
  }
  EXPECT_GT(matched, 0);
}

TEST_P(FuzzTest, PairPatternsOnRandomLiteralsNeverAbort) {
  // Pair patterns against folded literal values of arbitrary shapes: every
  // probe must resolve to a clean boolean, including deep shape mismatches.
  const TermPtr patterns[] = {
      ParseTerm("[?x, ?y]", Sort::kObject).value(),
      ParseTerm("[?x, [?y, ?z]]", Sort::kObject).value(),
      ParseTerm("[[?x, ?y], ?z]", Sort::kObject).value(),
      ParseTerm("[1, ?y]", Sort::kObject).value(),
  };
  for (int i = 0; i < 120; ++i) {
    auto value = gen_.RandomValue(gen_.RandomType(2));
    ASSERT_TRUE(value.ok());
    TermPtr term = Lit(value.value());
    for (const TermPtr& pattern : patterns) {
      Bindings bindings;
      bool ok = MatchTerm(pattern, term, &bindings);
      if (!ok) continue;
      // Whatever bound, it is a real subvalue wrapped as a literal.
      for (const auto& [name, bound] : bindings.Sorted()) {
        ASSERT_NE(bound, nullptr) << '?' << name;
        EXPECT_EQ(bound->kind(), TermKind::kLiteral) << '?' << name;
      }
    }
  }
}

/// A random "catalog": a shuffled subset of the real catalog rules, so the
/// pool exercises arbitrary rule orders, bucket collisions and wildcard
/// placements without inventing (possibly ill-formed) synthetic rules.
std::vector<Rule> RandomCatalog(const std::vector<Rule>& all, Rng* rng) {
  std::vector<Rule> rules;
  const size_t count = rng->Index(all.size() - 2) + 2;  // [2, all.size()-1]
  for (size_t i = 0; i < count; ++i) rules.push_back(all[rng->Index(all.size())]);
  // Fisher-Yates with the deterministic Rng (std::shuffle's draws are
  // implementation-defined).
  for (size_t i = rules.size() - 1; i > 0; --i) {
    std::swap(rules[i], rules[rng->Index(i + 1)]);
  }
  return rules;
}

TEST_P(FuzzTest, IndexCandidatesNeverMissAMatchOnRandomCatalogs) {
  // The differential core of the rule index: for random catalogs and random
  // terms, CandidatesAt must be an ascending superset of the rules
  // MatchTerm accepts at every subterm.
  std::vector<Rule> all = AllCatalogRules();
  for (int round = 0; round < 12; ++round) {
    std::vector<Rule> rules = RandomCatalog(all, &rng_);
    auto index = RuleIndex::Build(rules, RuleSetFingerprint(rules));
    ASSERT_NE(index, nullptr);
    for (int t = 0; t < 6; ++t) {
      auto fn = gen_.RandomFn(gen_.RandomType(2), gen_.RandomType(2), 3);
      ASSERT_TRUE(fn.ok()) << fn.status();
      // Walk every subterm iteratively (generated terms are shallow, but
      // stay stack-safe anyway).
      std::vector<TermPtr> stack = {fn.value()};
      std::vector<uint32_t> candidates;
      while (!stack.empty()) {
        TermPtr node = stack.back();
        stack.pop_back();
        for (const TermPtr& child : node->children()) stack.push_back(child);
        index->CandidatesAt(*node, &candidates);
        ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
        for (uint32_t r = 0; r < rules.size(); ++r) {
          Bindings bindings;
          if (!MatchTerm(rules[r].lhs, node, &bindings)) continue;
          EXPECT_TRUE(
              std::binary_search(candidates.begin(), candidates.end(), r))
              << "rule " << rules[r].id << " (#" << r << ") missing at "
              << node->ToString();
        }
      }
    }
  }
}

TEST_P(FuzzTest, IndexedAndLinearScansAgreeOnRandomCatalogs) {
  // Full-pipeline differential: ApplyAnyOnce firing (rule, path, result)
  // and bounded Fixpoint traces must be byte-identical with the index on
  // and off, for random catalogs in random orders against random terms.
  // Random subsets may contain a rule and its reverse, so Fixpoint can
  // legitimately exhaust its step budget -- then BOTH scans must exhaust,
  // with identical prefixes.
  std::vector<Rule> all = AllCatalogRules();
  Rewriter indexed;
  RewriterOptions linear_options;
  linear_options.use_rule_index = false;
  Rewriter linear(nullptr, linear_options);
  int fired = 0;
  for (int round = 0; round < 15; ++round) {
    std::vector<Rule> rules = RandomCatalog(all, &rng_);
    for (int t = 0; t < 4; ++t) {
      auto fn = gen_.RandomFn(gen_.RandomType(2), gen_.RandomType(2), 3);
      ASSERT_TRUE(fn.ok()) << fn.status();

      RewriteStep step_i, step_l;
      auto once_i = indexed.ApplyAnyOnce(rules, fn.value(), &step_i);
      auto once_l = linear.ApplyAnyOnce(rules, fn.value(), &step_l);
      ASSERT_EQ(once_i.has_value(), once_l.has_value())
          << fn.value()->ToString();
      if (once_i.has_value()) {
        ++fired;
        EXPECT_EQ(step_i.rule_id, step_l.rule_id) << fn.value()->ToString();
        EXPECT_EQ(step_i.path, step_l.path) << fn.value()->ToString();
        EXPECT_TRUE(Term::Equal(*once_i, *once_l)) << fn.value()->ToString();
      }

      Trace trace_i, trace_l;
      auto fix_i = indexed.Fixpoint(rules, fn.value(), &trace_i, 60);
      auto fix_l = linear.Fixpoint(rules, fn.value(), &trace_l, 60);
      ASSERT_EQ(fix_i.ok(), fix_l.ok()) << fn.value()->ToString();
      EXPECT_EQ(trace_i.ToString(), trace_l.ToString())
          << fn.value()->ToString();
      if (fix_i.ok()) {
        EXPECT_TRUE(Term::Equal(fix_i.value(), fix_l.value()))
            << fn.value()->ToString();
      }
    }
  }
  EXPECT_GT(fired, 0);
}

TEST_P(FuzzTest, IncrementalFixpointMatchesLinearOnSharedTermsAndBudgets) {
  // Indexed Fixpoint calls answer every sweep after the first from
  // per-subtree summaries keyed by node identity. Against the linear scan
  // they must fire the same rule at the same path with the same redex and
  // contractum, on terms where one node sits at several positions, with
  // and without a trace holding the old spines, and must exhaust a small
  // step budget with the same status and the same truncated trace.
  std::vector<Rule> all = AllCatalogRules();
  Rewriter indexed;
  Rewriter linear(nullptr, RewriterOptions{.use_rule_index = false});
  auto steps_text = [](const Trace& trace) {
    std::string text;
    for (const RewriteStep& step : trace.steps) {
      text += step.rule_id + " @";
      for (size_t i : step.path) text += " " + std::to_string(i);
      text += " : " + step.before->ToString() + " => " +
              step.after->ToString() + " | " + step.result->ToString() +
              "\n";
    }
    return text;
  };
  int exhausted = 0;
  int long_runs = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<Rule> rules = RandomCatalog(all, &rng_);
    for (int t = 0; t < 4; ++t) {
      auto fn = gen_.RandomFn(gen_.RandomType(2), gen_.RandomType(2), 3);
      ASSERT_TRUE(fn.ok()) << fn.status();
      // The generated term twice over, both positions one pointer.
      const TermPtr shared = Compose(fn.value(), fn.value());
      const TermPtr term = Compose(shared, Compose(fn.value(), shared));
      const int max_steps = 20 + static_cast<int>(rng_.Index(60));
      Trace via_index, via_scan;
      auto result_i = indexed.Fixpoint(rules, term, &via_index, max_steps);
      auto result_l = linear.Fixpoint(rules, term, &via_scan, max_steps);
      auto untraced = indexed.Fixpoint(rules, term, nullptr, max_steps);
      ASSERT_EQ(result_i.status().ToString(), result_l.status().ToString())
          << term->ToString();
      ASSERT_EQ(untraced.status().ToString(), result_l.status().ToString())
          << term->ToString();
      EXPECT_EQ(steps_text(via_index), steps_text(via_scan))
          << term->ToString();
      if (result_l.ok()) {
        EXPECT_TRUE(Term::Equal(result_i.value(), result_l.value()));
        EXPECT_TRUE(Term::Equal(untraced.value(), result_l.value()));
      } else {
        ++exhausted;
      }
      if (via_scan.steps.size() >= 4) ++long_runs;
    }
  }
  // Both outcomes occur for every seed (6-15 exhausted, 18-28 runs of
  // four or more steps, out of 40).
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(long_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Adversarially deep terms. Printing, structural equality, and destruction
// are iterative, so a 100k-deep spine must work; the parser is recursive
// with an explicit depth guard, so re-parsing the printed form must fail
// with RESOURCE_EXHAUSTED -- never a native stack overflow.
// ---------------------------------------------------------------------------

constexpr int kDeepChain = 100'000;

TermPtr DeepComposeChain(int depth) {
  TermPtr term = Id();
  for (int i = 0; i < depth; ++i) term = Compose(Id(), term);
  return term;
}

TEST(DeepTermTest, DeepChainPrintsComparesAndDestructs) {
  TermPtr a = DeepComposeChain(kDeepChain);
  {
    // A structurally equal but pointer-distinct copy forces the full
    // iterative walk in Equal (the hash fast path cannot prove equality).
    TermPtr b = DeepComposeChain(kDeepChain);
    EXPECT_TRUE(Term::Equal(a, b));
    EXPECT_FALSE(Term::Equal(a, DeepComposeChain(kDeepChain - 1)));
  }  // iterative teardown of b (and of the shorter chain) happens here
  std::string text = a->ToString();
  // "id o id o ... o id": the right-associative chain prints unparenthesized.
  EXPECT_GT(text.size(), static_cast<size_t>(kDeepChain));
  EXPECT_EQ(text.substr(0, 10), "id o id o ");
  EXPECT_EQ(a->node_count(), static_cast<size_t>(2 * kDeepChain + 1));
}

TEST(DeepTermTest, ParserRejectsPathologicalNestingWithStatus) {
  std::string text = DeepComposeChain(kDeepChain)->ToString();
  auto parsed = ParseTerm(text, Sort::kFunction);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed.status().message().find("nesting"), std::string::npos);
}

TEST(DeepTermTest, ParserRejectsDeepParenthesizedNesting) {
  // Explicit parentheses drive a different recursion path than the
  // operator chain; both must hit the same guard.
  std::string text;
  for (int i = 0; i < 50'000; ++i) text += "(";
  text += "id";
  for (int i = 0; i < 50'000; ++i) text += ")";
  auto parsed = ParseTerm(text, Sort::kFunction);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(NumericLiteralFuzzTest, RandomDigitStringsNeverAbortTheParser) {
  // Sweep digit strings across the int64 overflow boundary (18..25 digits)
  // and beyond, in every literal position the grammar has. Before the
  // ParseInt64 guards these reached std::stoll, and any string past 19
  // digits aborted the process with an uncaught std::out_of_range; now
  // every outcome must be a Status.
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t digits = 1 + rng.Next() % 30;
    std::string number;
    if (rng.Next() % 4 == 0) number += "-";
    for (size_t d = 0; d < digits; ++d) {
      number += static_cast<char>('0' + rng.Next() % 10);
    }
    std::string text;
    switch (rng.Next() % 4) {
      case 0: text = number; break;
      case 1: text = "Kf(" + number + ")"; break;
      case 2: text = "{" + number + ", 1}"; break;
      default: text = "obj<" + number + ">#" + number; break;
    }
    Sort sort = text[0] == 'K' ? Sort::kFunction : Sort::kObject;
    auto parsed = ParseTerm(text, sort);  // must return, never throw
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << text;
    }
  }
}

TEST(DeepTermTest, ModeratelyDeepTermsStillParse) {
  // The guard must not reject legitimate depth: well under the cap, the
  // round trip still holds.
  TermPtr term = DeepComposeChain(200);
  auto parsed = ParseTerm(term->ToString(), Sort::kFunction);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(Term::Equal(term, parsed.value()));
}

// ---------------------------------------------------------------------------
// Adversarially deep front-end input. The OQL and AQUA recursive-descent
// parsers carry the same nesting guard as the KOLA term parser, and the
// AQUA->KOLA translator guards its own recursion: a 100k-deep spine off
// the wire must come back as RESOURCE_EXHAUSTED, never as a native stack
// overflow. These parsers feed kolad's `Q` line, so this is the daemon's
// crash path.
// ---------------------------------------------------------------------------

void ExpectFrontEndExhausted(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_NE(status.message().find("nesting"), std::string::npos) << status;
}

TEST(DeepFrontEndTest, AquaParserRejectsDeepParens) {
  std::string text(50'000, '(');
  text += "1";
  text += std::string(50'000, ')');
  auto parsed = aqua::ParseAqua(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, AquaParserRejectsDeepNotChain) {
  std::string text;
  for (int i = 0; i < 100'000; ++i) text += "not ";
  text += "true";
  auto parsed = aqua::ParseAqua(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, AquaParserRejectsDeepDotPath) {
  // The `.`-path loop is iterative, but it still builds one Expr level per
  // dot -- unguarded, a 100k-long path would recurse that deep in every
  // later walker (and in teardown).
  std::string text = "C";
  for (int i = 0; i < 100'000; ++i) text += ".a";
  auto parsed = aqua::ParseAqua(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, AquaParserRejectsDeepAndChain) {
  std::string text = "true";
  for (int i = 0; i < 100'000; ++i) text += " and true";
  auto parsed = aqua::ParseAqua(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, OqlParserRejectsDeepParensInPredicate) {
  std::string text = "select x from x in C where ";
  text += std::string(50'000, '(');
  text += "true";
  text += std::string(50'000, ')');
  auto parsed = oql::ParseOql(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, OqlParserRejectsDeepNestedSelects) {
  // Nested sub-selects drive the ParseSelect <-> ParseExpr recursion.
  std::string text;
  constexpr int kDepth = 20'000;
  for (int i = 0; i < kDepth; ++i) {
    text += "select x from x in (";
  }
  text += "C";
  text += std::string(kDepth, ')');
  auto parsed = oql::ParseOql(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, OqlParserRejectsDeepNotChain) {
  std::string text = "select x from x in C where ";
  for (int i = 0; i < 100'000; ++i) text += "not ";
  text += "true";
  auto parsed = oql::ParseOql(text);
  ASSERT_FALSE(parsed.ok());
  ExpectFrontEndExhausted(parsed.status());
}

TEST(DeepFrontEndTest, RefusalNamesTheDepthBudgetNotLevels) {
  // The guards charge two units per paren level, so a 500-deep tower
  // exhausts the budget of 1000 without nesting 1000 levels; the message
  // must say so.
  std::string aqua_text = std::string(500, '(') + "1" + std::string(500, ')');
  auto aqua_parsed = aqua::ParseAqua(aqua_text);
  ASSERT_FALSE(aqua_parsed.ok());
  EXPECT_EQ(aqua_parsed.status().code(), StatusCode::kResourceExhausted);
  const std::string message = aqua_parsed.status().message();
  EXPECT_NE(message.find("AQUA nesting exceeds the parser's depth budget of "
                         "1000 at position 500"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("levels"), std::string::npos) << message;

  std::string term_text =
      std::string(500, '(') + "id" + std::string(500, ')');
  auto term_parsed = ParseTerm(term_text, Sort::kFunction);
  ASSERT_FALSE(term_parsed.ok());
  EXPECT_EQ(term_parsed.status().message(),
            "term nesting exceeds the parser's depth budget of 1000 at "
            "position 500");
}

TEST(DeepFrontEndTest, TranslatorRejectsDeepProgrammaticExpr) {
  // Expressions built in code bypass the parser guards; the translator's
  // own guard must stop the mutual recursion. Kept to a few thousand
  // levels so shared_ptr teardown of the chain itself stays shallow enough.
  aqua::ExprPtr deep = aqua::Expr::Const(Value::Bool(true));
  for (int i = 0; i < 5'000; ++i) deep = aqua::Expr::Not(deep);
  Translator translator;
  auto lowered = translator.TranslatePred(deep, {"x"});
  ASSERT_FALSE(lowered.ok());
  ExpectFrontEndExhausted(lowered.status());
}

TEST(DeepFrontEndTest, ModeratelyNestedOqlAndAquaStillWork) {
  // The guards must not reject legitimate nesting: a 200-deep paren tower
  // parses and translates end to end.
  std::string aqua_text = std::string(200, '(') + "1" + std::string(200, ')');
  auto aqua_expr = aqua::ParseAqua(aqua_text);
  ASSERT_TRUE(aqua_expr.ok()) << aqua_expr.status();

  std::string oql_text = "select x from x in C where ";
  oql_text += std::string(200, '(');
  oql_text += "x.age > 25";
  oql_text += std::string(200, ')');
  auto oql_expr = oql::ParseOql(oql_text);
  ASSERT_TRUE(oql_expr.ok()) << oql_expr.status();
  Translator translator;
  auto lowered = translator.TranslateQuery(oql_expr.value());
  ASSERT_TRUE(lowered.ok()) << lowered.status();
}

// ---------------------------------------------------------------------------
// The depth budgets' exact boundaries. Each parser charges its guard a fixed
// number of units per construct, so a tower of one construct has a deepest
// accepted height, and one level more is refused with RESOURCE_EXHAUSTED.
// ---------------------------------------------------------------------------

std::string Repeat(const std::string& piece, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(DepthBoundaryTest, DeepestAcceptedTowerParsesAndOneMoreIsRefused) {
  struct Boundary {
    const char* construct;
    int deepest_accepted;
    std::function<Status(int)> parse;  // parses a tower of height n
  };
  const Boundary boundaries[] = {
      {"AQUA parens", 499,
       [](int n) {
         return aqua::ParseAqua(Repeat("(", n) + "1" + Repeat(")", n))
             .status();
       }},
      {"AQUA not chain", 998,
       [](int n) {
         return aqua::ParseAqua(Repeat("not ", n) + "true").status();
       }},
      {"OQL parens inside where", 498,
       [](int n) {
         return oql::ParseOql("select x from x in C where " +
                              Repeat("(", n) + "true" + Repeat(")", n))
             .status();
       }},
      {"OQL parens in the select list", 499,
       [](int n) {
         return oql::ParseOql("select " + Repeat("(", n) + "x" +
                              Repeat(")", n) + " from x in C")
             .status();
       }},
      {"OQL nested flatten((select ...))", 332,
       [](int n) {
         return oql::ParseOql(Repeat("select x from x in flatten((", n) +
                              "select x from x in C" + Repeat("))", n))
             .status();
       }},
      {"KOLA term parens", 499,
       [](int n) {
         return ParseTerm(Repeat("(", n) + "id" + Repeat(")", n),
                          Sort::kFunction)
             .status();
       }},
  };
  for (const Boundary& b : boundaries) {
    SCOPED_TRACE(b.construct);
    Status deepest = b.parse(b.deepest_accepted);
    EXPECT_TRUE(deepest.ok()) << deepest;
    Status past = b.parse(b.deepest_accepted + 1);
    EXPECT_EQ(past.code(), StatusCode::kResourceExhausted) << past;
  }
}

}  // namespace
}  // namespace kola
