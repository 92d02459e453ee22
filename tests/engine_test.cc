#include <gtest/gtest.h>

#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "rules/catalog.h"
#include "term/parser.h"

namespace kola {
namespace {

TermPtr Q(const char* text, Sort sort = Sort::kFunction) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

Rule MustRule(const char* id, const char* lhs, const char* rhs,
              Sort sort = Sort::kFunction) {
  auto r = MakeRule(id, "", lhs, rhs, sort);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

TEST(RuleTest, MakeRuleValidates) {
  EXPECT_TRUE(MakeRule("a", "", "?f o id", "?f", Sort::kFunction).ok());
  // rhs variable not bound on lhs.
  auto bad = MakeRule("b", "", "?f o id", "?g", Sort::kFunction);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // trivial rule.
  EXPECT_FALSE(MakeRule("c", "", "?f", "?f", Sort::kFunction).ok());
  // unparseable side.
  EXPECT_FALSE(MakeRule("d", "", "?f o", "?f", Sort::kFunction).ok());
}

TEST(RuleTest, ReverseSwapsSides) {
  Rule r = MustRule("1", "?f o id", "?f");
  auto rev = ReverseRule(r);
  ASSERT_TRUE(rev.ok());
  EXPECT_EQ(rev->id, "1~");
  EXPECT_TRUE(Term::Equal(rev->lhs, r.rhs));
  EXPECT_TRUE(Term::Equal(rev->rhs, r.lhs));
}

TEST(RuleTest, ApplyLevelVariantSplitsChains) {
  Rule r = MustRule("x", "iterate(?p, ?f) o iterate(?q, ?g)",
                    "iterate(?q & ?p @ ?g, ?f o ?g)");
  auto v = ApplyLevelVariant(r);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->id, "x!");
  EXPECT_TRUE(Term::Equal(
      v->lhs, Q("iterate(?p, ?f) ! iterate(?q, ?g) ! ?xx", Sort::kObject)));
  EXPECT_TRUE(Term::Equal(
      v->rhs, Q("iterate(?q & ?p @ ?g, ?f o ?g) ! ?xx", Sort::kObject)));
}

TEST(RuleTest, ApplyLevelVariantRejectsNonFunctionRules) {
  Rule r = MustRule("p", "?p @ id", "?p", Sort::kPredicate);
  EXPECT_FALSE(ApplyLevelVariant(r).ok());
}

TEST(RewriterTest, ApplyAtRootOnlyAtRoot) {
  Rewriter rewriter;
  Rule r = MustRule("1", "?f o id", "?f");
  auto hit = rewriter.ApplyAtRoot(r, Q("age o id"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(Term::Equal(*hit, Q("age")));
  // Redex is nested: root application must fail.
  EXPECT_FALSE(rewriter.ApplyAtRoot(r, Q("city o (age o id)")).has_value());
}

TEST(RewriterTest, ApplyOnceFindsNestedRedex) {
  Rewriter rewriter;
  Rule r = MustRule("1", "?f o id", "?f");
  RewriteStep step;
  auto result = rewriter.ApplyOnce(r, Q("city o (age o id)"), &step);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(Term::Equal(*result, Q("city o age")));
  EXPECT_EQ(step.rule_id, "1");
  EXPECT_EQ(step.path, (std::vector<size_t>{1}));
  EXPECT_TRUE(Term::Equal(step.before, Q("age o id")));
  EXPECT_TRUE(Term::Equal(step.after, Q("age")));
}

TEST(RewriterTest, ApplyOnceIsLeftmostOutermost) {
  Rewriter rewriter;
  Rule r = MustRule("1", "?f o id", "?f");
  // Both the whole term and a subterm are redexes; the root wins.
  auto result = rewriter.ApplyOnce(r, Q("(age o id) o id"), nullptr);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(Term::Equal(*result, Q("age o id")));
}

TEST(RewriterTest, FixpointTerminatesAndTraces) {
  Rewriter rewriter;
  std::vector<Rule> rules = {MustRule("1", "?f o id", "?f")};
  Trace trace;
  auto result = rewriter.Fixpoint(rules, Q("(age o id) o id"), &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result.value(), Q("age")));
  EXPECT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.RuleIds(), (std::vector<std::string>{"1", "1"}));
}

TEST(RewriterTest, FixpointBudgetIsEnforced) {
  Rewriter rewriter;
  // A deliberately looping rule pair.
  std::vector<Rule> rules = {MustRule("swap", "?f o ?g", "?g o ?f")};
  auto result = rewriter.Fixpoint(rules, Q("age o name"), nullptr, 50);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(RewriterTest, ConditionalRuleNeedsPropertyStore) {
  std::vector<Rule> all = AllCatalogRules();
  const Rule& inj = FindRule(all, "ext.injective-intersect");
  TermPtr query =
      Q("intersect o (iterate(Kp(T), succ) x iterate(Kp(T), succ))");

  // Without a property store the conditional rule must not fire.
  Rewriter bare;
  EXPECT_FALSE(bare.ApplyAtRoot(inj, query).has_value());

  // With the default store, succ is injective and the rule fires.
  PropertyStore store = PropertyStore::Default();
  Rewriter rewriter(&store);
  auto result = rewriter.ApplyAtRoot(inj, query);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(Term::Equal(*result, Q("iterate(Kp(T), succ) o intersect")));

  // age is not known injective: the rule must not fire.
  TermPtr age_query =
      Q("intersect o (iterate(Kp(T), age) x iterate(Kp(T), age))");
  EXPECT_FALSE(rewriter.ApplyAtRoot(inj, age_query).has_value());
}

TEST(RewriterTest, InferredInjectivityFiresConditionalRule) {
  // succ o neg is injective only via the inference rule.
  std::vector<Rule> all = AllCatalogRules();
  const Rule& inj = FindRule(all, "ext.injective-intersect");
  PropertyStore store = PropertyStore::Default();
  Rewriter rewriter(&store);
  TermPtr query = Q(
      "intersect o (iterate(Kp(T), succ o neg) x iterate(Kp(T), succ o "
      "neg))");
  EXPECT_TRUE(rewriter.ApplyAtRoot(inj, query).has_value());
}

// ---------------------------------------------------------------------------
// The incremental fixpoint. With the rule index on, every sweep of a
// Fixpoint call after its first answers from per-subtree summaries; the
// linear scan re-probes every rule at every node. Both must fire the same
// rule at the same path with the same redex, contractum and whole term.
// ---------------------------------------------------------------------------

std::string StepsText(const Trace& trace) {
  std::string text;
  for (const RewriteStep& step : trace.steps) {
    text += step.rule_id + " @";
    for (size_t i : step.path) text += " " + std::to_string(i);
    text += " : " + step.before->ToString() + " => " +
            step.after->ToString() + " | " + step.result->ToString() + "\n";
  }
  return text;
}

/// Runs `rules` to a fixpoint with the index and with the linear scan,
/// traced and untraced (an untraced call is the only owner of the spines
/// it replaces), and expects identical statuses, steps and results.
/// Returns the number of steps fired.
size_t ExpectIncrementalMatchesLinear(const std::vector<Rule>& rules,
                                      const TermPtr& term,
                                      const PropertyStore* store,
                                      int max_steps = 10'000) {
  Rewriter indexed(store, RewriterOptions{});
  Rewriter linear(store, RewriterOptions{.use_rule_index = false});
  Trace via_index, via_scan;
  auto traced = indexed.Fixpoint(rules, term, &via_index, max_steps);
  auto reference = linear.Fixpoint(rules, term, &via_scan, max_steps);
  EXPECT_EQ(traced.status().ToString(), reference.status().ToString());
  EXPECT_EQ(StepsText(via_index), StepsText(via_scan));
  auto untraced = indexed.Fixpoint(rules, term, nullptr, max_steps);
  EXPECT_EQ(untraced.status().ToString(), reference.status().ToString());
  if (reference.ok() && traced.ok() && untraced.ok()) {
    EXPECT_EQ(traced.value()->ToString(), reference.value()->ToString());
    EXPECT_EQ(untraced.value()->ToString(), reference.value()->ToString());
  }
  return via_scan.steps.size();
}

TEST(IncrementalFixpointTest, SharedSubtermFiresLeftmostPositionFirst) {
  // One TermPtr at several positions: a firing inside the leftmost copy
  // rebuilds that spine only, and the other copies keep their summaries.
  TermPtr a = Q("(age o id) o id");
  TermPtr b = Compose(a, a);
  TermPtr term = Compose(b, Compose(b, a));
  std::vector<Rule> rules = {MustRule("1", "?f o id", "?f")};
  EXPECT_EQ(ExpectIncrementalMatchesLinear(rules, term, nullptr), 10u);

  Rewriter rewriter;
  Trace trace;
  ASSERT_TRUE(rewriter.Fixpoint(rules, term, &trace).ok());
  ASSERT_FALSE(trace.steps.empty());
  EXPECT_EQ(trace.steps[0].path, (std::vector<size_t>{0, 0}));
  EXPECT_EQ(trace.steps[1].path, (std::vector<size_t>{0, 0}));
  EXPECT_EQ(trace.steps[2].path, (std::vector<size_t>{0, 1}));
}

TEST(IncrementalFixpointTest, ConditionalRulesResolveThroughPropertyStore) {
  // injective(succ) holds, injective(succ o neg) only by inference,
  // injective(age) not at all: the summaries must fire exactly where the
  // linear scan's ConditionsHold does.
  std::vector<Rule> all = AllCatalogRules();
  std::vector<Rule> rules = {MustRule("1", "?f o id", "?f"),
                             FindRule(all, "ext.injective-intersect"),
                             MustRule("2", "id o ?f", "?f")};
  TermPtr term = Q(
      "((intersect o (iterate(Kp(T), succ) x iterate(Kp(T), succ))) o id) "
      "o ((id o (intersect o (iterate(Kp(T), age) x iterate(Kp(T), age)))) "
      "o (id o (intersect o (iterate(Kp(T), succ o neg) x "
      "iterate(Kp(T), succ o neg)))))");
  PropertyStore store = PropertyStore::Default();
  EXPECT_EQ(ExpectIncrementalMatchesLinear(rules, term, &store), 5u);
  // Without a store the conditional rule never fires.
  EXPECT_EQ(ExpectIncrementalMatchesLinear(rules, term, nullptr), 3u);
}

TEST(IncrementalFixpointTest, LongFixpointMatchesLinearScan) {
  // Many sweeps over one growing-then-shrinking term: every summary the
  // firings do not touch is reused, every rebuilt spine re-summarized.
  TermPtr term = Q("age");
  for (int i = 0; i < 40; ++i) {
    term = i % 3 == 0 ? Compose(Id(), Compose(term, Id()))
                      : Compose(term, Compose(Id(), Q("name o id")));
  }
  std::vector<Rule> rules = {MustRule("1", "?f o id", "?f"),
                             MustRule("2", "id o ?f", "?f")};
  EXPECT_GT(ExpectIncrementalMatchesLinear(rules, term, nullptr), 60u);
}

TEST(IncrementalFixpointTest, ExhaustedBudgetTruncatesTheSameTrace) {
  std::vector<Rule> rules = {MustRule("swap", "?f o ?g", "?g o ?f")};
  TermPtr term = Q("(age o name) o (id o age)");
  EXPECT_EQ(ExpectIncrementalMatchesLinear(rules, term, nullptr, 50), 50u);
}

TEST(TraceTest, ToStringShowsDerivation) {
  Rewriter rewriter;
  std::vector<Rule> rules = {MustRule("1", "?f o id", "?f")};
  Trace trace;
  auto result = rewriter.Fixpoint(rules, Q("age o id"), &trace);
  ASSERT_TRUE(result.ok());
  std::string rendered = trace.ToString();
  EXPECT_NE(rendered.find("age o id"), std::string::npos);
  EXPECT_NE(rendered.find("--[1]-->"), std::string::npos);
}

TEST(PropertyStoreTest, FactsAndInference) {
  PropertyStore store = PropertyStore::Default();
  EXPECT_TRUE(store.Holds("injective", Id()));
  EXPECT_TRUE(store.Holds("injective", PrimFn("succ")));
  EXPECT_FALSE(store.Holds("injective", PrimFn("age")));
  // Chained inference: (succ o neg) o succ.
  EXPECT_TRUE(store.Holds(
      "injective",
      Compose(Compose(PrimFn("succ"), PrimFn("neg")), PrimFn("succ"))));
  // Pair with one injective component.
  EXPECT_TRUE(store.Holds("injective", PairFn(PrimFn("succ"),
                                              PrimFn("age"))));
  EXPECT_FALSE(store.Holds("injective", PairFn(PrimFn("age"),
                                               PrimFn("age"))));
  // Unknown property.
  EXPECT_FALSE(store.Holds("monotone", Id()));
}

TEST(PropertyStoreTest, DepthBoundTerminates) {
  PropertyStore store = PropertyStore::Default();
  // Build a compose chain deeper than the default bound.
  TermPtr chain = PrimFn("succ");
  for (int i = 0; i < 20; ++i) chain = Compose(chain, PrimFn("succ"));
  EXPECT_FALSE(store.Holds("injective", chain, /*max_depth=*/3));
  EXPECT_TRUE(store.Holds("injective", chain, /*max_depth=*/64));
}

}  // namespace
}  // namespace kola
