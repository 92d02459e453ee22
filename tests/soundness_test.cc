// End-to-end optimizer soundness harness (verify/soundness.h): a bounded
// deterministic sweep must come back clean, and a deliberately planted
// unsound rule must be caught and shrunk to a minimal replayable repro.

#include "verify/soundness.h"

#include <gtest/gtest.h>

#include "term/parser.h"
#include "verify/query_gen.h"

namespace kola {
namespace {

SoundnessOptions BoundedOptions() {
  SoundnessOptions options;
  options.trials = 40;
  options.seed = 20260806;
  options.max_eval_steps = 500'000;
  return options;
}

TEST(SoundnessHarnessTest, BoundedSweepIsClean) {
  auto report = SoundnessHarness(BoundedOptions()).Run();
  ASSERT_TRUE(report.ok()) << report.status();
  for (const Divergence& failure : report->failures) {
    ADD_FAILURE() << failure.Report();
  }
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->trials, 40);
  // The sweep must actually exercise the pipeline, not skip everything.
  EXPECT_GT(report->evaluated, report->trials / 2);
  EXPECT_EQ(report->config_runs, report->evaluated * 8);
  EXPECT_EQ(report->cost_regressions, 0);
}

TEST(SoundnessHarnessTest, SweepIsDeterministic) {
  auto first = SoundnessHarness(BoundedOptions()).Run();
  auto second = SoundnessHarness(BoundedOptions()).Run();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->Summary(), second->Summary());
}

TEST(SoundnessHarnessTest, PlantedUnsoundRuleIsCaughtAndShrunk) {
  SoundnessOptions options = BoundedOptions();
  options.extra_rules.push_back(PlantedDropMapRule());
  options.max_failures = 1;
  auto report = SoundnessHarness(options).Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->clean())
      << "harness failed to detect a deliberately unsound rule";

  const Divergence& failure = report->failures.front();
  // The acceptance bound: the greedy shrinker must reduce any diverging
  // query for drop-map to (at most) `iterate(Kp(T), f) ! E` -- depth 3.
  EXPECT_LE(TermDepth(failure.query), 3) << failure.Report();
  EXPECT_NE(failure.expected, failure.actual);
  EXPECT_TRUE(failure.planted);
  ASSERT_FALSE(failure.rule_trace.empty());
  EXPECT_EQ(failure.rule_trace.back(), "plant.drop-map");
}

TEST(SoundnessHarnessTest, PlantedFailureReplays) {
  SoundnessOptions options = BoundedOptions();
  options.extra_rules.push_back(PlantedDropMapRule());
  options.max_failures = 1;
  SoundnessHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean());
  const Divergence& failure = report->failures.front();

  // The shrunk term must round-trip through the parser (the --replay
  // path), and re-checking it must reproduce the same divergence.
  auto reparsed = ParseQuery(failure.query->ToString());
  ASSERT_TRUE(reparsed.ok()) << "shrunk repro does not re-parse: "
                             << failure.query->ToString() << ": "
                             << reparsed.status();
  RandomWorldOptions world;
  world.seed = failure.world_seed;
  world.scale = failure.world_scale;
  auto replayed = harness.CheckQuery(reparsed.value(), world, failure.config);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(replayed->has_value()) << "replay did not reproduce";
  EXPECT_EQ((*replayed)->expected, failure.expected);
  EXPECT_EQ((*replayed)->actual, failure.actual);

  // And the replay command names the essentials.
  std::string command = failure.ReplayCommand();
  EXPECT_NE(command.find("--replay"), std::string::npos);
  EXPECT_NE(command.find("--world-seed"), std::string::npos);
  EXPECT_NE(command.find("--plant-unsound"), std::string::npos);
}

TEST(SoundnessHarnessTest, CheckQueryCleanOnSoundQuery) {
  auto query = ParseQuery("iterate(Kp(T), age) ! P");
  ASSERT_TRUE(query.ok());
  SoundnessHarness harness(BoundedOptions());
  RandomWorldOptions world;
  world.seed = 99;
  world.scale = 2;
  for (const PipelineConfig& config : FullConfigMatrix()) {
    auto divergence = harness.CheckQuery(query.value(), world, config);
    ASSERT_TRUE(divergence.ok());
    EXPECT_FALSE(divergence->has_value()) << (*divergence)->Report();
  }
}

TEST(PipelineConfigTest, NameRoundTrips) {
  // All 8 matrix cells: Name() -> ParsePipelineConfig is the identity.
  ASSERT_EQ(FullConfigMatrix().size(), 8u);
  for (const PipelineConfig& config : FullConfigMatrix()) {
    auto parsed = ParsePipelineConfig(config.Name());
    ASSERT_TRUE(parsed.ok()) << config.Name();
    EXPECT_EQ(parsed->physical_fastpaths, config.physical_fastpaths);
    EXPECT_EQ(parsed->rule_index, config.rule_index);
    EXPECT_EQ(parsed->egraph, config.egraph);
    EXPECT_EQ(parsed->Name(), config.Name());
    EXPECT_EQ(config.Name().find("memo"), std::string::npos);
    EXPECT_EQ(config.Name().find("intern"), std::string::npos);
  }
  EXPECT_FALSE(ParsePipelineConfig("warp-drive").ok());
}

TEST(PipelineConfigTest, PlainNamesTheAllOffCell) {
  PipelineConfig all_off{false, false, false};
  EXPECT_EQ(all_off.Name(), "plain");
  auto parsed = ParsePipelineConfig("plain");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->physical_fastpaths);
  EXPECT_FALSE(parsed->rule_index);
  EXPECT_FALSE(parsed->egraph);
}

TEST(PipelineConfigTest, ParseRejectsMalformedNames) {
  // Duplicated features.
  auto dup = ParsePipelineConfig("index+index");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos)
      << dup.status();
  EXPECT_FALSE(ParsePipelineConfig("fast+index+fast").ok());
  // Unknown features, including 'plain' used as a feature token.
  EXPECT_FALSE(ParsePipelineConfig("").ok());
  EXPECT_FALSE(ParsePipelineConfig("fast+warp").ok());
  EXPECT_FALSE(ParsePipelineConfig("plain+index").ok());
  EXPECT_FALSE(ParsePipelineConfig("index+plain").ok());
  // Empty token from a trailing or doubled '+'.
  EXPECT_FALSE(ParsePipelineConfig("fast+").ok());
  EXPECT_FALSE(ParsePipelineConfig("+index").ok());
  EXPECT_FALSE(ParsePipelineConfig("fast++index").ok());
  // Removed features: replay lines recorded before the interning and memo
  // cells were removed must fail loudly, saying why, instead of checking a
  // different cell.
  for (const char* name : {"intern", "memo", "memo+fast", "intern+fast",
                           "fast+index+memo", "intern+memo+fast+index"}) {
    auto parsed = ParsePipelineConfig(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(parsed.status().message().find("removed"), std::string::npos)
        << parsed.status();
    EXPECT_EQ(parsed.status().message().find("unknown"), std::string::npos)
        << parsed.status();
  }
}

TEST(SoundnessHarnessTest, JobsDoNotChangeTheCleanReport) {
  SoundnessOptions serial = BoundedOptions();
  serial.trials = 24;
  SoundnessOptions threaded = serial;
  threaded.jobs = 3;
  auto a = SoundnessHarness(serial).Run();
  auto b = SoundnessHarness(threaded).Run();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Summary(), b->Summary());
  EXPECT_EQ(a->trials, b->trials);
  EXPECT_EQ(a->evaluated, b->evaluated);
  EXPECT_EQ(a->config_runs, b->config_runs);
  EXPECT_EQ(a->failures.size(), b->failures.size());
}

TEST(SoundnessHarnessTest, JobsDoNotChangeThePlantedFailureReport) {
  SoundnessOptions serial = BoundedOptions();
  serial.trials = 24;
  serial.extra_rules.push_back(PlantedDropMapRule());
  serial.max_failures = 2;
  SoundnessOptions threaded = serial;
  threaded.jobs = 4;
  auto a = SoundnessHarness(serial).Run();
  auto b = SoundnessHarness(threaded).Run();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_FALSE(a->clean());
  // The whole report -- which trials diverged, their shrunk queries, world
  // seeds, replay commands -- must be byte-identical: workers only buy
  // wall-clock, never a different answer.
  EXPECT_EQ(a->Summary(), b->Summary());
  ASSERT_EQ(a->failures.size(), b->failures.size());
  for (size_t i = 0; i < a->failures.size(); ++i) {
    EXPECT_EQ(a->failures[i].Report(), b->failures[i].Report());
  }
}

TEST(TermDepthTest, LeavesAtZero) {
  auto leaf = ParseQuery("P");
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(TermDepth(leaf.value()), 0);
  auto query = ParseQuery("iterate(Kp(T), age) ! P");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(TermDepth(query.value()), 3);
}

TEST(QueryGeneratorTest, GeneratedQueriesAreWellTypedOftenEnough) {
  SchemaTypes schema = SchemaTypes::CarWorld();
  auto db = BuildRandomWorld(7);
  Rng rng(11);
  QueryGenerator generator(&schema, db.get(), &rng);
  int ok_count = 0;
  for (int i = 0; i < 50; ++i) {
    auto query = generator.RandomQuery();
    if (!query.ok()) continue;
    ++ok_count;
    EXPECT_EQ(query.value()->sort(), Sort::kObject);
  }
  EXPECT_GT(ok_count, 25);
}

}  // namespace
}  // namespace kola
