#include "egraph/egraph.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/cost.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

TermPtr Parse(const std::string& text, Sort sort = Sort::kObject) {
  auto term = ParseTerm(text, sort);
  EXPECT_TRUE(term.ok()) << term.status();
  return term.value();
}

/// The structural cost every unit test can rank with: node count.
PlanCostFn NodeCountCost() {
  return [](const TermPtr& term) -> StatusOr<double> {
    return static_cast<double>(term->node_count());
  };
}

class EGraphTest : public ::testing::Test {
 protected:
  EGraphTest() {
    CarWorldOptions options;
    options.num_persons = 12;
    options.num_vehicles = 8;
    options.num_addresses = 6;
    options.seed = 11;
    db_ = BuildCarWorld(options);
    properties_ = PropertyStore::Default();
  }

  Value Eval(const TermPtr& query) {
    auto value = EvalQuery(*db_, query);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_;
  Rewriter rewriter_;
};

TEST_F(EGraphTest, AddTermSharesStructure) {
  EGraph egraph;
  TermPtr query = Parse("iterate(Kp(T), age) ! P");
  EClassId first = egraph.AddTerm(query);
  EClassId second = egraph.AddTerm(Parse("iterate(Kp(T), age) ! P"));
  // Structurally equal terms land in one class without new nodes.
  EXPECT_EQ(egraph.Find(first), egraph.Find(second));
  const size_t nodes = egraph.node_count();
  // A term sharing subterms reuses their nodes.
  egraph.AddTerm(Parse("iterate(Kp(T), age) ! V"));
  EXPECT_EQ(egraph.node_count(), nodes + 2);  // new collection + new apply
}

TEST_F(EGraphTest, MergeKeepsSmallerRoot) {
  EGraph egraph;
  EClassId a = egraph.AddTerm(Parse("age ! p"));
  EClassId b = egraph.AddTerm(Parse("name ! p"));
  ASSERT_NE(egraph.Find(a), egraph.Find(b));
  EClassId root = egraph.Merge(b, a);
  EXPECT_EQ(root, std::min(egraph.Find(a), egraph.Find(b)));
  EXPECT_EQ(egraph.Find(a), egraph.Find(b));
}

TEST_F(EGraphTest, RebuildRestoresCongruence) {
  EGraph egraph;
  // age ! x and age ! y with x merged into y must collapse: congruence.
  EClassId fx = egraph.AddTerm(Parse("age ! (pi1 ! [1, 2])"));
  EClassId fy = egraph.AddTerm(Parse("age ! (pi2 ! [2, 1])"));
  EClassId x = egraph.AddTerm(Parse("pi1 ! [1, 2]"));
  EClassId y = egraph.AddTerm(Parse("pi2 ! [2, 1]"));
  ASSERT_NE(egraph.Find(fx), egraph.Find(fy));
  egraph.Merge(x, y);
  egraph.Rebuild();
  EXPECT_EQ(egraph.Find(fx), egraph.Find(fy));
  EXPECT_EQ(egraph.stats().unions, 2u);
}

TEST_F(EGraphTest, ExtractSmallestPicksTheSmallerMember) {
  EGraph egraph;
  EClassId big = egraph.AddTerm(Parse("iterate(Kp(T), id o (id o age)) ! P"));
  EClassId small = egraph.AddTerm(Parse("iterate(Kp(T), age) ! P"));
  egraph.Merge(big, small);
  auto extracted = egraph.ExtractSmallest(big);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_EQ((*extracted)->ToString(), "iterate(Kp(T), age) ! P");
}

TEST_F(EGraphTest, ExtractionMinimizesThroughSharedSubclasses) {
  EGraph egraph;
  // Only the inner function is equated; the outer query must still shrink,
  // which exercises the bottom-up (per-class) minimization.
  EClassId verbose = egraph.AddTerm(Parse("id o (id o age)", Sort::kFunction));
  EClassId terse = egraph.AddTerm(Parse("age", Sort::kFunction));
  EClassId query = egraph.AddTerm(Parse("iterate(Kp(T), id o (id o age)) ! P"));
  egraph.Merge(verbose, terse);
  egraph.Rebuild();
  auto extracted = egraph.ExtractSmallest(query);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_EQ((*extracted)->ToString(), "iterate(Kp(T), age) ! P");
}

TEST_F(EGraphTest, SaturationRuleSetIsDeduplicatedAndReversed) {
  const RuleSet& saturation = RuleCatalog::Get().saturation;
  const std::vector<Rule>& pool = saturation.rules();
  EXPECT_GT(pool.size(), AllCatalogRules().size());
  std::unordered_set<std::string> seen;
  bool has_reversed = false;
  for (const Rule& rule : pool) {
    // No reversal may match at every node of its sort: pure inflation.
    EXPECT_FALSE(rule.lhs->is_metavar()) << rule.id;
    std::string key = rule.lhs->ToString() + "=>" + rule.rhs->ToString();
    for (const PropertyAtom& condition : rule.conditions) {
      key += "|" + condition.property + ":" + condition.pattern->ToString();
    }
    EXPECT_TRUE(seen.insert(key).second) << "duplicate: " << rule.id;
    if (rule.id.size() > 1 && rule.id.back() == '~') has_reversed = true;
  }
  EXPECT_TRUE(has_reversed);
  EXPECT_EQ(saturation.fingerprint(), RuleSetFingerprint(pool));
}

TEST_F(EGraphTest, SaturateFindsSimplerEquivalents) {
  EGraph egraph;
  TermPtr query = Parse("iterate(Kp(T) & Kp(T), id o age) ! P");
  EClassId root = egraph.AddTerm(query);
  ASSERT_TRUE(egraph.Saturate(rewriter_, RuleCatalog::Get().saturation).ok());
  EXPECT_TRUE(egraph.stats().saturated);
  EXPECT_GT(egraph.stats().rule_applications, 0u);
  auto extracted = egraph.ExtractSmallest(root);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_LT((*extracted)->node_count(), query->node_count());
  EXPECT_EQ(Eval(query), Eval(*extracted));
}

TEST_F(EGraphTest, SaturateAndExtractNeverCostsMoreThanGreedy) {
  TermPtr query = GarageQueryKG1();
  Optimizer greedy(&properties_, db_.get());
  auto greedy_result = greedy.Optimize(query);
  ASSERT_TRUE(greedy_result.ok());

  CostModel model(db_.get());
  PlanCostFn cost = [&](const TermPtr& plan) {
    return model.EstimateQueryCost(plan);
  };
  EGraphOutcome outcome = SaturateAndExtract(query, greedy_result->query,
                                             rewriter_, cost, EGraphOptions{});
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  ASSERT_NE(outcome.plan, nullptr);
  auto greedy_cost = model.EstimateQueryCost(greedy_result->query);
  auto egraph_cost = model.EstimateQueryCost(outcome.plan);
  ASSERT_TRUE(greedy_cost.ok() && egraph_cost.ok());
  EXPECT_LE(egraph_cost.value(), greedy_cost.value());
  EXPECT_EQ(Eval(query), Eval(outcome.plan));
  EXPECT_GT(outcome.stats.nodes, 0u);
  EXPECT_GT(outcome.stats.classes, 0u);
}

TEST_F(EGraphTest, SaturateAndExtractIsDeterministic) {
  TermPtr query = Parse("iterate(Kp(T) & (Cp(lt, 25) @ age), id o id) ! P");
  std::string first;
  for (int round = 0; round < 3; ++round) {
    EGraphOutcome outcome =
        SaturateAndExtract(query, query, rewriter_, NodeCountCost(),
                           EGraphOptions{});
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    if (round == 0) {
      first = outcome.plan->ToString();
    } else {
      EXPECT_EQ(outcome.plan->ToString(), first);
    }
  }
}

TEST_F(EGraphTest, MaxNodesCapStopsGrowthButStillExtracts) {
  TermPtr query = GarageQueryKG1();
  EGraphOptions options;
  options.max_nodes = 48;
  EGraphOutcome outcome =
      SaturateAndExtract(query, query, rewriter_, NodeCountCost(), options);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_FALSE(outcome.stats.saturated);
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(Eval(query), Eval(outcome.plan));
}

TEST_F(EGraphTest, GovernorStepBudgetDegradesToBestSoFar) {
  Governor::Limits limits;
  limits.step_budget = 5;
  Governor governor(limits);
  EGraphOptions options;
  options.governor = &governor;
  RewriterOptions engine_options = RewriterOptions::Defaults();
  engine_options.governor = &governor;
  Rewriter governed(nullptr, engine_options);
  TermPtr query = Parse("iterate(Kp(T) & Kp(T), id o age) ! P");
  EGraphOutcome outcome =
      SaturateAndExtract(query, query, governed, NodeCountCost(), options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(Eval(query), Eval(outcome.plan));
}

TEST_F(EGraphTest, GovernorMemoryBudgetDegradesToBestSoFar) {
  Governor::Limits limits;
  limits.memory_budget_bytes = 2048;
  Governor governor(limits);
  EGraphOptions options;
  options.governor = &governor;
  TermPtr query = GarageQueryKG1();
  EGraphOutcome outcome =
      SaturateAndExtract(query, query, rewriter_, NodeCountCost(), options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(governor.memory().peak(MemoryCategory::kEGraph), 0);
  ASSERT_NE(outcome.plan, nullptr);
  EXPECT_EQ(Eval(query), Eval(outcome.plan));
}

TEST_F(EGraphTest, OptimizerPhaseNeverCostsMoreAndPreservesSemantics) {
  RewriterOptions egraph_on = RewriterOptions::Defaults();
  egraph_on.use_egraph = true;
  Optimizer greedy(&properties_, db_.get());
  Optimizer saturating(&properties_, db_.get(), egraph_on);
  CostModel model(db_.get());
  for (const TermPtr& query :
       {GarageQueryKG1(), QueryK3(), QueryK4(),
        Parse("iterate(Kp(T), id o age) ! P"),
        Parse("join(eq @ (age x age), (pi1, pi2)) ! [P, P]")}) {
    auto base = greedy.Optimize(query);
    auto with = saturating.Optimize(query);
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_TRUE(with.ok()) << with.status();
    EXPECT_FALSE(with->degradation.degraded)
        << with->degradation.ToString();
    auto base_cost = model.EstimateQueryCost(base->query);
    auto with_cost = model.EstimateQueryCost(with->query);
    ASSERT_TRUE(base_cost.ok() && with_cost.ok());
    EXPECT_LE(with_cost.value(), base_cost.value()) << query->ToString();
    EXPECT_EQ(Eval(query), Eval(with->query)) << query->ToString();
  }
}

TEST_F(EGraphTest, OptimizerPhaseReportsStats) {
  RewriterOptions egraph_on = RewriterOptions::Defaults();
  egraph_on.use_egraph = true;
  Optimizer saturating(&properties_, db_.get(), egraph_on);
  auto result = saturating.Optimize(GarageQueryKG1());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->egraph.nodes, 0u);
  EXPECT_GT(result->egraph.classes, 0u);
  EXPECT_GT(result->egraph.processed, 0u);
  // The default pipeline leaves the counters untouched.
  Optimizer greedy(&properties_, db_.get());
  auto base = greedy.Optimize(GarageQueryKG1());
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->egraph.nodes, 0u);
}

TEST_F(EGraphTest, OptimizerPhaseMatchesWithRuleIndexOnAndOff) {
  // Kill-switch parity within one process: the index only filters, so the
  // saturated graph -- and the extracted plan -- must be identical with
  // indexing disabled through options.
  RewriterOptions indexed = RewriterOptions::Defaults();
  indexed.use_egraph = true;
  indexed.use_rule_index = true;
  RewriterOptions linear = indexed;
  linear.use_rule_index = false;
  Optimizer a(&properties_, db_.get(), indexed);
  Optimizer b(&properties_, db_.get(), linear);
  for (const TermPtr& query : {GarageQueryKG1(), QueryK4()}) {
    auto ra = a.Optimize(query);
    auto rb = b.Optimize(query);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->query->ToString(), rb->query->ToString());
    EXPECT_EQ(ra->egraph.nodes, rb->egraph.nodes);
    EXPECT_EQ(ra->egraph.rule_applications, rb->egraph.rule_applications);
  }
}

}  // namespace
}  // namespace kola
