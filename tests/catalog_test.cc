#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() {
    CarWorldOptions options;
    options.num_persons = 12;
    options.num_vehicles = 8;
    options.num_addresses = 6;
    options.seed = 3;
    db_ = BuildCarWorld(options);
    properties_ = PropertyStore::Default();
  }

  /// Queries that between them run every catalog member the pipeline
  /// reads: code motion (K4), the hidden-join steps and join exploration
  /// (KG1), loop fusion, and -- when the e-graph phase is on --
  /// saturation.
  static std::vector<TermPtr> Corpus() {
    auto hidden = MakeHiddenJoinQuery(3);
    EXPECT_TRUE(hidden.ok()) << hidden.status();
    auto fusion = ParseTerm(
        "iterate(Kp(T), age) o iterate(gt @ (age, Kf(20)), id) ! P",
        Sort::kObject);
    EXPECT_TRUE(fusion.ok()) << fusion.status();
    return {QueryK3(), QueryK4(), GarageQueryKG1(), hidden.value(),
            fusion.value()};
  }

  /// Every plan and derivation `optimizer` produces over Corpus(), as text.
  static std::string Render(const Optimizer& optimizer) {
    std::string out;
    for (const TermPtr& query : Corpus()) {
      auto result = optimizer.Optimize(query);
      if (!result.ok()) return "error: " + result.status().ToString();
      out += result->query->ToString() + "\n" + result->trace.ToString();
      for (const std::string& block : result->applied_blocks) {
        out += "[" + block + "]";
      }
      out += "\n";
    }
    return out;
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_;
};

std::vector<std::string> Ids(const RuleSet& rules) {
  std::vector<std::string> ids;
  for (const Rule& rule : rules.rules()) ids.push_back(rule.id);
  return ids;
}

std::vector<std::string> Ids(const RuleBlock& block) {
  EXPECT_NE(block.rules(), nullptr) << block.name();
  return block.rules() == nullptr ? std::vector<std::string>{}
                                  : Ids(*block.rules());
}

// Defined first so that, in a plain run of this binary, these threads are
// the catalog's first users: the build itself races here.
TEST_F(CatalogTest, ConcurrentFirstUseYieldsIdenticalTraces) {
  constexpr int kThreads = 4;
  RewriterOptions options = RewriterOptions::Defaults();
  options.use_egraph = true;
  std::vector<std::string> rendered(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Optimizer optimizer(&properties_, db_.get(), options);
      start.arrive_and_wait();
      rendered[t] = Render(optimizer);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(RuleCatalog::BuildCount(), 1);
  EXPECT_EQ(rendered[0].rfind("error", 0), std::string::npos) << rendered[0];
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(rendered[t], rendered[0]);
  // And a serial run on a warm catalog agrees with the racing ones.
  EXPECT_EQ(Render(Optimizer(&properties_, db_.get(), options)),
            rendered[0]);
}

TEST_F(CatalogTest, BuiltOnceAndSharedByEveryAccessor) {
  const RuleCatalog& catalog = RuleCatalog::Get();
  EXPECT_EQ(&RuleCatalog::Get(), &catalog);
  EXPECT_EQ(&AllCatalogRules(), &catalog.all.rules());
  EXPECT_EQ(&SimplifyBlock(), &catalog.simplify);
  EXPECT_EQ(&CnfBlock(), &catalog.cnf);
  EXPECT_EQ(&PushSelectsPastJoinsBlock(), &catalog.push_selects_past_joins);
  EXPECT_EQ(&CodeMotionBlocks(), &catalog.code_motion);
  EXPECT_EQ(&HiddenJoinBlocks(), &catalog.hidden_join);
  EXPECT_EQ(RuleCatalog::BuildCount(), 1);
}

TEST_F(CatalogTest, RepeatedOptimizeRunsTheCatalogsRuleObjects) {
  // A rule whose rhs is ground rewrites to that very rhs term (Substitute
  // returns ground patterns as is), so every such firing names the rule
  // object that fired. Both calls must fire the catalog's own objects: a
  // block rebuilt per call would re-parse fresh terms.
  const std::vector<Rule>& all = AllCatalogRules();
  const Optimizer optimizer(&properties_, db_.get());
  int checked = 0;
  for (int call = 0; call < 2; ++call) {
    for (const TermPtr& query : Corpus()) {
      auto result = optimizer.Optimize(query);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const RewriteStep& step : result->trace.steps) {
        auto rule = TryFindRule(all, step.rule_id);
        if (!rule.ok() || (*rule)->rhs->has_metavars()) continue;
        EXPECT_EQ(step.after.get(), (*rule)->rhs.get()) << step.rule_id;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(RuleCatalog::BuildCount(), 1);
}

// The golden lists below are the inline block builders the catalog
// replaced, transcribed id for id; a slip in the move shows up here.
TEST_F(CatalogTest, NamedBlocksMatchGoldenRuleLists) {
  using IdList = std::vector<std::string>;
  const RuleCatalog& catalog = RuleCatalog::Get();
  EXPECT_EQ(catalog.simplify.name(), "simplify");
  EXPECT_EQ(Ids(catalog.simplify),
            (IdList{"1", "2", "3", "4", "5", "6", "8", "9", "10", "18",
                    "ext.and-true-right", "ext.and-false", "ext.or-true",
                    "ext.or-false", "ext.product-id", "ext.con-true",
                    "ext.con-false", "ext.con-same", "ext.not-not",
                    "ext.inv-inv", "ext.iterate-false", "norm.id-apply"}));
  EXPECT_EQ(catalog.cnf.name(), "cnf");
  EXPECT_EQ(Ids(catalog.cnf),
            (IdList{"ext.not-not", "ext.demorgan-and", "ext.demorgan-or",
                    "ext.cnf-dist-left", "ext.cnf-dist-right"}));
  EXPECT_EQ(catalog.push_selects_past_joins.name(),
            "push-selects-past-joins");
  EXPECT_EQ(Ids(catalog.push_selects_past_joins),
            (IdList{"ext.select-past-join-left",
                    "ext.select-past-join-right"}));

  const std::vector<std::pair<std::string, IdList>> code_motion = {
      {"decompose-predicate",
       {"13", "7", "ext.inv-lt", "ext.inv-leq", "ext.inv-geq", "ext.inv-eq",
        "ext.inv-neq", "14"}},
      {"hoist-conditional", {"15"}},
      {"distribute", {"16"}},
      {"cleanup", {"9", "10", "3", "8", "1", "2", "14~"}},
  };
  ASSERT_EQ(catalog.code_motion.size(), code_motion.size());
  for (size_t i = 0; i < code_motion.size(); ++i) {
    EXPECT_EQ(catalog.code_motion[i].name(), code_motion[i].first);
    EXPECT_EQ(Ids(catalog.code_motion[i]), code_motion[i].second);
  }

  const std::vector<std::pair<std::string, IdList>> hidden_join = {
      {"prep", {"norm.assoc", "norm.unfold", "norm.id-apply"}},
      {"break-up", {"17!", "17b!", "2", "4", "18", "norm.id-apply"}},
      {"bottom-out", {"19", "norm.unfold"}},
      {"pull-up-nest", {"20!", "21!", "1", "2", "4"}},
      {"pull-up-unnest", {"22!", "22b!", "23!", "1", "2", "4"}},
      {"absorb-join",
       {"24!", "3", "5", "6", "1", "2", "ext.and-true-right"}},
      {"polish",
       {"ext.pair-to-product", "ext.pair-to-product-left",
        "ext.pair-to-product-right", "4", "1", "2", "norm.fold",
        "norm.assoc"}},
  };
  ASSERT_EQ(catalog.hidden_join.size(), hidden_join.size());
  for (size_t i = 0; i < hidden_join.size(); ++i) {
    EXPECT_EQ(catalog.hidden_join[i].name(), hidden_join[i].first);
    EXPECT_EQ(Ids(catalog.hidden_join[i]), hidden_join[i].second);
  }

  EXPECT_EQ(catalog.loop_fusion.name(), "loop-fusion");
  EXPECT_EQ(Ids(catalog.loop_fusion),
            (IdList{"norm.fold", "norm.assoc", "11", "6", "5", "1", "2",
                    "ext.and-true-right"}));
  EXPECT_EQ(Ids(catalog.explore_steps),
            (IdList{"ext.join-commute", "ext.select-past-join-left",
                    "ext.select-past-join-right"}));
  EXPECT_EQ(Ids(catalog.explore_cleanup),
            (IdList{"norm.assoc", "ext.swap-swap", "ext.swap-swap-chain",
                    "ext.inv-inv", "ext.inv-product", "ext.inv-and", "7",
                    "ext.inv-lt", "ext.inv-leq", "ext.inv-geq", "ext.inv-eq",
                    "ext.inv-neq", "1", "2", "3", "4", "5",
                    "ext.and-true-right", "ext.product-id"}));
  EXPECT_EQ(catalog.saturation.rules().size(), 190u);
  EXPECT_EQ(catalog.bag.rules().size(), 9u);
}

TEST_F(CatalogTest, FingerprintsArePinned) {
  const RuleCatalog& catalog = RuleCatalog::Get();
  ASSERT_EQ(catalog.all.rules().size(), 113u);
  // The same golden value rule_index_test pins; the plan cache and the
  // snapshot format key on it.
  EXPECT_EQ(catalog.all.fingerprint(), 0xc12ac90084990c8fULL);
  EXPECT_EQ(catalog.saturation.fingerprint(), 0xf8bcd537e6ca4538ULL);
  // Every set's fingerprint is the one RuleSetFingerprint computes.
  EXPECT_EQ(catalog.all.fingerprint(),
            RuleSetFingerprint(catalog.all.rules()));
  EXPECT_EQ(catalog.explore_cleanup.fingerprint(),
            RuleSetFingerprint(catalog.explore_cleanup.rules()));
  EXPECT_EQ(catalog.simplify.rules()->fingerprint(),
            RuleSetFingerprint(catalog.simplify.rules()->rules()));
}

}  // namespace
}  // namespace kola
