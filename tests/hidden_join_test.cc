#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/macros.h"
#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/monolithic.h"
#include "optimizer/optimizer.h"
#include "rewrite/engine.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

class HiddenJoinTest : public ::testing::Test {
 protected:
  HiddenJoinTest() {
    CarWorldOptions options;
    options.num_persons = 14;
    options.num_vehicles = 9;
    options.num_addresses = 7;
    options.seed = 11;
    db_ = BuildCarWorld(options);
  }

  Value Eval(const TermPtr& query) {
    auto value = EvalQuery(*db_, query);
    EXPECT_TRUE(value.ok()) << value.status() << "\n"
                            << query->ToString();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  Rewriter rewriter_;
  std::unique_ptr<Database> db_;
};

TEST_F(HiddenJoinTest, GarageQueryConvertsToKG2Exactly) {
  auto result = UntangleHiddenJoin(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converted);
  EXPECT_TRUE(Term::Equal(result->query, GarageQueryKG2()))
      << "got:  " << result->query->ToString() << "\nwant: "
      << GarageQueryKG2()->ToString() << "\ntrace:\n"
      << result->trace.ToString();
}

TEST_F(HiddenJoinTest, AllFiveStepsFireOnGarageQuery) {
  auto result = UntangleHiddenJoin(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(result.ok());
  const auto& blocks = result->blocks_fired;
  auto fired = [&](const std::string& name) {
    return std::find(blocks.begin(), blocks.end(), name) != blocks.end();
  };
  EXPECT_TRUE(fired("break-up"));
  EXPECT_TRUE(fired("bottom-out"));
  EXPECT_TRUE(fired("pull-up-nest"));
  EXPECT_TRUE(fired("absorb-join"));
  EXPECT_TRUE(fired("polish"));
  // The garage query has a single unnest already adjacent to nest, so
  // step 4 is a no-op (Section 4.1, Step 4 discussion).
  EXPECT_FALSE(fired("pull-up-unnest"));
}

TEST_F(HiddenJoinTest, GarageTransformPreservesSemantics) {
  auto result = UntangleHiddenJoin(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Eval(GarageQueryKG1()), Eval(result->query));
}

TEST_F(HiddenJoinTest, EveryIntermediateStepPreservesSemantics) {
  // Re-evaluate after every single rule firing: each micro-step is an
  // equivalence (strong end-to-end check of the whole derivation).
  auto result = UntangleHiddenJoin(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(result.ok());
  Value expected = Eval(GarageQueryKG1());
  for (const RewriteStep& step : result->trace.steps) {
    ASSERT_TRUE(step.result != nullptr);
    EXPECT_EQ(Eval(step.result), expected)
        << "semantics changed after rule " << step.rule_id << " at "
        << step.result->ToString();
  }
}

class HiddenJoinDepth : public HiddenJoinTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(HiddenJoinDepth, ConvertsAndPreservesSemanticsAtDepth) {
  auto query = MakeHiddenJoinQuery(GetParam());
  ASSERT_TRUE(query.ok()) << query.status();
  auto result = UntangleHiddenJoin(query.value(), rewriter_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converted) << result->query->ToString();

  // The final form is the paper's canonical shape (end of Section 4.1):
  //   nest(pi1, pi2) o [(unnest(pi1, pi2) x id) o]? (join(p, f), pi1)
  // applied to [A, B] -- at most ONE unnest directly below nest, and every
  // iterate absorbed into the join's (potentially complex) function.
  ASSERT_EQ(result->query->kind(), TermKind::kApplyFn);
  EXPECT_EQ(result->query->child(1)->kind(), TermKind::kPairObj);
  std::vector<TermPtr> factors;
  TermPtr chain = result->query->child(0);
  while (chain->kind() == TermKind::kCompose) {
    factors.push_back(chain->child(0));
    chain = chain->child(1);
  }
  factors.push_back(chain);
  ASSERT_GE(factors.size(), 2u) << result->query->ToString();
  ASSERT_LE(factors.size(), 3u) << result->query->ToString();
  EXPECT_EQ(factors.front()->kind(), TermKind::kNest);
  if (factors.size() == 3) {
    EXPECT_EQ(factors[1]->kind(), TermKind::kProduct);
    EXPECT_EQ(factors[1]->child(0)->kind(), TermKind::kUnnest);
  }
  const TermPtr& last = factors.back();
  ASSERT_EQ(last->kind(), TermKind::kPairFn) << last->ToString();
  EXPECT_EQ(last->child(0)->kind(), TermKind::kJoin);
  EXPECT_TRUE(last->child(1)->IsPrimFn("pi1"));

  EXPECT_EQ(Eval(query.value()), Eval(result->query))
      << result->query->ToString();
}

INSTANTIATE_TEST_SUITE_P(Depths, HiddenJoinDepth,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST_F(HiddenJoinTest, NonHiddenJoinIsSimplifiedNotConverted) {
  // The inner query ranges over a set derived from the outer element
  // (p.child), not a named set: rule 19 must never fire, but break-up
  // still simplifies (the Section 4.2 "gradual rules" advantage).
  auto query = ParseTerm(
      "iterate(Kp(T), (id, iter(Kp(T), pi2) o (id, child))) ! P",
      Sort::kObject);
  ASSERT_TRUE(query.ok());
  auto result = UntangleHiddenJoin(query.value(), rewriter_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converted);
  // Break-up still decomposed the query.
  EXPECT_FALSE(result->blocks_fired.empty());
  // And semantics are preserved.
  EXPECT_EQ(Eval(query.value()), Eval(result->query));
}

TEST_F(HiddenJoinTest, MonolithicHandlesGarageShape) {
  MonolithicStats stats;
  auto rebuilt = MonolithicHiddenJoin(GarageQueryKG1(), &stats);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE(stats.applied);
  EXPECT_GT(stats.head_nodes_visited, 10);
  EXPECT_GT(stats.body_nodes_built, 10);
  EXPECT_TRUE(Term::Equal(rebuilt.value(), GarageQueryKG2()))
      << rebuilt.value()->ToString();
  EXPECT_EQ(Eval(rebuilt.value()), Eval(GarageQueryKG1()));
}

TEST_F(HiddenJoinTest, MonolithicLacksGenerality) {
  // Depth 3 and deeper: the gradual rules convert, the monolithic rule
  // dives and rejects -- the paper's Section 4.2 criticism, quantified.
  for (int depth : {1, 3, 4}) {
    auto query = MakeHiddenJoinQuery(depth);
    ASSERT_TRUE(query.ok());
    MonolithicStats stats;
    auto rebuilt = MonolithicHiddenJoin(query.value(), &stats);
    EXPECT_FALSE(rebuilt.ok()) << "depth " << depth;
    EXPECT_FALSE(stats.applied);
    EXPECT_TRUE(stats.rejected_after_dive);
    EXPECT_GT(stats.head_nodes_visited, 0);

    auto gradual = UntangleHiddenJoin(query.value(), rewriter_);
    ASSERT_TRUE(gradual.ok());
    EXPECT_TRUE(gradual->converted) << "depth " << depth;
  }
}

TEST_F(HiddenJoinTest, MakeHiddenJoinQueryShapes) {
  auto q1 = MakeHiddenJoinQuery(1);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1.value()->kind(), TermKind::kApplyFn);
  auto q0 = MakeHiddenJoinQuery(0);
  EXPECT_FALSE(q0.ok());
  // Deeper queries are strictly larger.
  auto q3 = MakeHiddenJoinQuery(3);
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3.value()->node_count(), q1.value()->node_count());
}

// ---------------------------------------------------------------------------
// The incremental fixpoint against the linear reference scan. Indexed
// Fixpoint calls re-summarize only the subtrees a firing rebuilt; the
// linear scan re-probes every rule at every node. Both must fire the same
// rule at the same path with the same before/after/result terms, on the
// long hidden-join fixpoints and on the other paper queries.
// ---------------------------------------------------------------------------

/// Every step of a derivation (rule, path, redex, contractum, whole term)
/// and the final term, rendered one step per line.
std::string DerivationText(const Trace& trace, const TermPtr& final_term) {
  std::string text;
  for (const RewriteStep& step : trace.steps) {
    text += step.rule_id + " @";
    for (size_t i : step.path) text += " " + std::to_string(i);
    text += " : " + step.before->ToString() + " => " +
            step.after->ToString() + " | " + step.result->ToString() + "\n";
  }
  return text + "= " + final_term->ToString() + "\n";
}

Rewriter LinearRewriter() {
  return Rewriter(nullptr, RewriterOptions{.use_rule_index = false});
}

/// The paper queries the differential runs over: hidden joins at depth
/// 1-10, the garage query KG1 and the code-motion queries K3/K4.
std::vector<TermPtr> DifferentialQueries() {
  std::vector<TermPtr> queries;
  for (int depth = 1; depth <= 10; ++depth) {
    auto query = MakeHiddenJoinQuery(depth);
    KOLA_CHECK_OK(query.status());
    queries.push_back(query.value());
  }
  queries.push_back(GarageQueryKG1());
  queries.push_back(QueryK3());
  queries.push_back(QueryK4());
  return queries;
}

/// Runs the hidden-join blocks without a trace, so each Fixpoint call is
/// the only owner of the spines it replaces.
TermPtr UntangleUntraced(const TermPtr& query, const Rewriter& rewriter) {
  TermPtr term = query;
  for (const RuleBlock& block : HiddenJoinBlocks()) {
    auto result = block.Apply(term, rewriter, nullptr);
    KOLA_CHECK_OK(result.status());
    term = result->term;
  }
  return term;
}

TEST(IncrementalFixpointTest, UntangleMatchesLinearScanWithTrace) {
  Rewriter indexed;
  Rewriter linear = LinearRewriter();
  for (const TermPtr& query : DifferentialQueries()) {
    auto via_index = UntangleHiddenJoin(query, indexed);
    auto via_scan = UntangleHiddenJoin(query, linear);
    ASSERT_TRUE(via_index.ok()) << via_index.status();
    ASSERT_TRUE(via_scan.ok()) << via_scan.status();
    EXPECT_EQ(DerivationText(via_index->trace, via_index->query),
              DerivationText(via_scan->trace, via_scan->query))
        << query->ToString();
    EXPECT_EQ(via_index->blocks_fired, via_scan->blocks_fired);
  }
}

TEST(IncrementalFixpointTest, UntangleMatchesLinearScanWithoutTrace) {
  Rewriter indexed;
  Rewriter linear = LinearRewriter();
  for (const TermPtr& query : DifferentialQueries()) {
    TermPtr via_index = UntangleUntraced(query, indexed);
    TermPtr via_scan = UntangleUntraced(query, linear);
    EXPECT_EQ(via_index->ToString(), via_scan->ToString())
        << query->ToString();
    auto traced = UntangleHiddenJoin(query, indexed);
    ASSERT_TRUE(traced.ok());
    EXPECT_EQ(via_index->ToString(), traced->query->ToString());
  }
}

TEST(IncrementalFixpointTest, WholePipelineMatchesLinearScan) {
  CarWorldOptions options;
  options.num_persons = 14;
  options.num_vehicles = 9;
  auto db = BuildCarWorld(options);
  PropertyStore store = PropertyStore::Default();
  Optimizer indexed(&store, db.get(), RewriterOptions{});
  Optimizer linear(&store, db.get(),
                   RewriterOptions{.use_rule_index = false});
  for (const TermPtr& query : DifferentialQueries()) {
    auto via_index = indexed.Optimize(query);
    auto via_scan = linear.Optimize(query);
    ASSERT_TRUE(via_index.ok()) << via_index.status();
    ASSERT_TRUE(via_scan.ok()) << via_scan.status();
    EXPECT_EQ(DerivationText(via_index->trace, via_index->query),
              DerivationText(via_scan->trace, via_scan->query))
        << query->ToString();
  }
}

TEST(IncrementalFixpointTest, HiddenJoinDerivationDigestsArePinned) {
  // FNV-1a digests of DerivationText for the depth 1-10 untanglings,
  // recorded before the fixpoint became incremental: any change to a
  // fired rule, a path or an intermediate term moves them.
  const uint64_t kPinned[] = {
      0xc9883a2fc9c21293ULL, 0x0e0c6f2457820f76ULL, 0x79a0650e8d2c0bbaULL,
      0x3523ba8959a49bd4ULL, 0x544c86748960f7deULL, 0x15c7020887864b13ULL,
      0x26a669fde13f2359ULL, 0xa18e68119a8b6663ULL, 0x777b86f9ad5d5146ULL,
      0x9010e7106c33248dULL,
  };
  Rewriter rewriter;
  for (int depth = 1; depth <= 10; ++depth) {
    auto query = MakeHiddenJoinQuery(depth);
    ASSERT_TRUE(query.ok());
    auto result = UntangleHiddenJoin(query.value(), rewriter);
    ASSERT_TRUE(result.ok()) << result.status();
    const uint64_t digest =
        StableStringHash(DerivationText(result->trace, result->query));
    EXPECT_EQ(digest, kPinned[depth - 1])
        << "depth " << depth << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace kola
