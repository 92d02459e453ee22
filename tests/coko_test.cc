#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coko/parser.h"
#include "coko/strategy.h"
#include "common/macros.h"
#include "eval/evaluator.h"
#include "optimizer/hidden_join.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

class CokoTest : public ::testing::Test {
 protected:
  CokoModule MustParse(const char* text) {
    auto module = ParseCoko(text, catalog_);
    EXPECT_TRUE(module.ok()) << module.status();
    return module.ok() ? std::move(module).value() : CokoModule{};
  }

  TermPtr Q(const char* text, Sort sort = Sort::kFunction) {
    auto t = ParseTerm(text, sort);
    EXPECT_TRUE(t.ok()) << t.status();
    return t.value();
  }

  // The process-wide catalog itself, not a private copy.
  const std::vector<Rule>& catalog_ = AllCatalogRules();
  Rewriter rewriter_;
};

TEST_F(CokoTest, ParsesSimpleBlock) {
  CokoModule module = MustParse("block clean { exhaust 1, 2; }");
  ASSERT_EQ(module.blocks.size(), 1u);
  EXPECT_EQ(module.blocks[0].name(), "clean");
  auto result =
      module.blocks[0].Apply(Q("(id o age) o id"), rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, ModifiersResolveVariants) {
  CokoModule module = MustParse(
      "block split { once 12~; }\n"
      "block unfold { exhaust norm.unfold; }");
  // 12~ is rule 12 right-to-left.
  TermPtr fused = Q("iterate(Cp(lt, 25) @ age, age)");
  auto result = module.Find("split")->Apply(fused, rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->changed);
  EXPECT_TRUE(Term::Equal(result->term,
                          Q("iterate(Cp(lt, 25), id) o iterate(Kp(T), "
                            "age)")));
}

TEST_F(CokoTest, UseComposesBlocks) {
  CokoModule module = MustParse(
      "block a { exhaust 1; }\n"
      "block b { exhaust 2; }\n"
      "block both { use a; use b; }");
  auto result = module.Find("both")->Apply(Q("id o (age o id)"), rewriter_,
                                           nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, RepeatLoopsBody) {
  CokoModule module = MustParse("block r { repeat { once 1; } }");
  auto result = module.Find("r")->Apply(Q("((age o id) o id) o id"),
                                        rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age")));
}

TEST_F(CokoTest, CommentsAreIgnored) {
  CokoModule module = MustParse(
      "# leading comment\nblock c { exhaust 1; # trailing\n }");
  EXPECT_EQ(module.blocks.size(), 1u);
}

TEST_F(CokoTest, ErrorsAreDiagnosed) {
  EXPECT_FALSE(ParseCoko("", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { }", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { exhaust nosuchrule; }",
                         catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { exhaust 1 }", catalog_).ok());
  EXPECT_FALSE(ParseCoko("block x { use later; } block later { once 1; }",
                         catalog_).ok());
  EXPECT_FALSE(ParseCoko("blok x { once 1; }", catalog_).ok());
  // Apply-level modifier on a predicate rule is rejected at parse time.
  EXPECT_FALSE(ParseCoko("block x { once 3!; }", catalog_).ok());
}

TEST_F(CokoTest, SingleRuleListBlocksExposeTheirRules) {
  CokoModule module = MustParse(
      "block ex { exhaust 2, 1, 14~; }\n"
      "block fo { once 17!, 4; }\n"
      "block multi { exhaust 1; once 2; }");
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      expected = {{"ex", {"2", "1", "14~"}}, {"fo", {"17!", "4"}}};
  for (const auto& [name, ids] : expected) {
    const RuleSet* rules = module.Find(name)->rules();
    ASSERT_NE(rules, nullptr) << name;
    std::vector<std::string> got;
    for (const Rule& rule : rules->rules()) got.push_back(rule.id);
    EXPECT_EQ(got, ids) << name;
    EXPECT_EQ(rules->fingerprint(), RuleSetFingerprint(rules->rules()))
        << name;
  }
  EXPECT_EQ(module.Find("multi")->rules(), nullptr);
}

// The catalog's hidden-join blocks -- COKO text parsed when the catalog
// is built -- run in order.
StatusOr<StrategyResult> RunHiddenJoinBlocks(const TermPtr& query,
                                             const Rewriter& rewriter) {
  StrategyResult result{query, false};
  for (const RuleBlock& block : RuleCatalog::Get().hidden_join) {
    KOLA_ASSIGN_OR_RETURN(StrategyResult step,
                          block.Apply(result.term, rewriter, nullptr));
    result.term = step.term;
    result.changed = result.changed || step.changed;
  }
  return result;
}

TEST_F(CokoTest, HiddenJoinModuleMatchesBuiltinPipeline) {
  // The catalog's COKO hidden-join blocks take the garage query KG1 to
  // exactly the paper's KG2.
  auto rewritten = RunHiddenJoinBlocks(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_TRUE(rewritten->changed);
  EXPECT_TRUE(Term::Equal(rewritten->term, GarageQueryKG2()))
      << rewritten->term->ToString();
}

TEST_F(CokoTest, CokoPipelinePreservesSemantics) {
  CarWorldOptions options;
  options.num_persons = 10;
  options.num_vehicles = 6;
  options.num_addresses = 5;
  auto db = BuildCarWorld(options);

  auto rewritten = RunHiddenJoinBlocks(GarageQueryKG1(), rewriter_);
  ASSERT_TRUE(rewritten.ok());
  auto before = EvalQuery(*db, GarageQueryKG1());
  auto after = EvalQuery(*db, rewritten->term);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.value(), after.value());
}

}  // namespace
}  // namespace kola
