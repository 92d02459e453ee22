// kolaverify: end-to-end optimizer soundness harness.
//
// Differentially tests the full optimizer pipeline: every trial generates
// a random well-typed query, builds a fresh random database, evaluates the
// query un-optimized (naive nested-loop semantics) as ground truth, then
// optimizes and re-evaluates under every cell of the engine configuration
// matrix (physical fastpaths x rule index x e-graph phase).
// Any result disagreement is shrunk to a minimal query + world and printed
// with a one-line replay command.
//
//   kolaverify                          # 1000 trials, full config matrix
//   kolaverify --trials 50 --seed 7     # quick CI smoke
//   kolaverify --jobs 4                 # same report, 4 worker threads
//   kolaverify --plant-unsound          # prove the detector detects
//   kolaverify --chaos                  # deterministic fault injection:
//                                       # verdicts may degrade or skip,
//                                       # never go unsound
//   kolaverify --deadline-ms 50         # per-stage wall-clock budget
//   kolaverify --memory-budget 65536    # per-stage byte budget: tight
//                                       # memory degrades, never unsounds
//   kolaverify --memory-budget 4096 --retries 2   # escalate degraded
//                                       # passes through bigger budgets
//   kolaverify --replay 'iterate(Kp(T), age) ! P' --world-seed 12345
//              --world-scale 1 --config fast+index
//
// Exit status: 0 when clean, 1 on any divergence (or bad usage).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault_injection.h"
#include "common/parse_number.h"
#include "common/thread_pool.h"
#include "term/parser.h"
#include "verify/soundness.h"

namespace {

// The --chaos schedule: every fault site armed, interner faults (which
// only cost canonicalization, never soundness) an order of magnitude
// hotter than the fail-the-phase sites.
constexpr char kChaosSpec[] = "rule:0.02,strategy:0.02,intern:0.1,pool:0.02";

void PrintUsage() {
  std::printf(
      "usage: kolaverify [options]\n"
      "  --trials N        queries to generate (default 1000)\n"
      "  --seed N          harness seed (default 1)\n"
      "  --depth N         generator depth budget (default 3)\n"
      "  --jobs N          worker threads (default: hardware concurrency);\n"
      "                    the report is bit-identical for every N\n"
      "  --config NAME     check one config instead of the full matrix;\n"
      "                    NAME is '+'-joined from fast, index, egraph,\n"
      "                    or 'plain' (e.g. fast+index)\n"
      "  --plant-unsound   plant a deliberately broken rule; the harness\n"
      "                    must catch and shrink it (exit 1 = caught)\n"
      "  --deadline-ms N   wall-clock budget per pipeline stage; deadline\n"
      "                    hits degrade (optimizer) or skip (evaluation),\n"
      "                    never fail a trial (default 0 = ungoverned)\n"
      "  --memory-budget N byte budget per pipeline stage (interner arenas,\n"
      "                    exploration frontier, evaluator scratch, rule\n"
      "                    indexes, e-graph); exhaustion degrades or\n"
      "                    skips, never fails a trial (default 0 =\n"
      "                    unlimited)\n"
      "  --retries N       escalation retries for memory-degraded passes:\n"
      "                    each retry doubles (roughly) the byte budget;\n"
      "                    still-degraded passes are quarantined (needs\n"
      "                    --memory-budget; default 0)\n"
      "  --faults SPEC     inject faults, SPEC is site:rate,... over the\n"
      "                    sites rule, strategy, intern, pool\n"
      "                    (e.g. rule:0.02,intern:0.1)\n"
      "  --fault-seed N    base seed for the fault streams (default 1);\n"
      "                    a fixed seed replays the exact chaos schedule\n"
      "                    at every --jobs level\n"
      "  --chaos           shorthand for --faults '%s'\n"
      "  --no-shrink       report divergences unminimized\n"
      "  --replay QUERY    re-check one query instead of generating;\n"
      "                    combine with --world-seed/--world-scale/\n"
      "                    --config/--deadline-ms/--memory-budget/\n"
      "                    --retries/--faults/--fault-seed\n"
      "  --world-seed N    replay: random-world seed\n"
      "  --world-scale N   replay: random-world scale\n",
      kChaosSpec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kola;  // NOLINT: example brevity

  if (Status faults = LatchFaultInjectionFromEnv(); !faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.ToString().c_str());
    return 1;
  }

  SoundnessOptions options;
  options.jobs = HardwareJobs();
  std::string replay_text;
  uint64_t world_seed = 1;
  int world_scale = 3;
  bool have_world_seed = false;
  bool plant = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      PrintUsage();
      std::exit(1);
    }
    return argv[i + 1];
  };
  // Numeric flags go through the validated parser: `--trials abc` and
  // overlong values are hard usage errors, never a silent 0 or UB (the old
  // std::atoi behavior).
  auto int_flag = [&](int i, int min, int max) -> int {
    auto value = ParseIntInRange(need_value(i), argv[i], min, max);
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      std::exit(1);
    }
    return *value;
  };
  auto int64_flag = [&](int i, int64_t min, int64_t max) -> int64_t {
    auto value = ParseInt64InRange(need_value(i), argv[i], min, max);
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      std::exit(1);
    }
    return *value;
  };
  auto uint64_flag = [&](int i) -> uint64_t {
    auto value = ParseUint64(need_value(i));
    if (!value.ok()) {
      std::fprintf(stderr, "%s\n",
                   value.status().WithContext(argv[i]).ToString().c_str());
      std::exit(1);
    }
    return *value;
  };

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0) {
      options.trials = int_flag(i++, 0, 100'000'000);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = uint64_flag(i++);
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      options.gen_depth = int_flag(i++, 0, 64);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      options.jobs = int_flag(i++, 1, 4096);
    } else if (std::strcmp(argv[i], "--config") == 0) {
      auto config = ParsePipelineConfig(need_value(i++));
      if (!config.ok()) {
        std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
        return 1;
      }
      options.configs = {config.value()};
    } else if (std::strcmp(argv[i], "--plant-unsound") == 0) {
      plant = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      options.deadline_ms = int64_flag(i++, 0, int64_t{1} << 40);
    } else if (std::strcmp(argv[i], "--memory-budget") == 0) {
      options.memory_budget_bytes = int64_flag(i++, 0, int64_t{1} << 50);
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      options.retries = int_flag(i++, 0, 64);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      options.fault_spec = need_value(i++);
    } else if (std::strcmp(argv[i], "--fault-seed") == 0) {
      options.fault_seed = uint64_flag(i++);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      options.fault_spec = kChaosSpec;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      options.shrink = false;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_text = need_value(i++);
    } else if (std::strcmp(argv[i], "--world-seed") == 0) {
      world_seed = uint64_flag(i++);
      have_world_seed = true;
    } else if (std::strcmp(argv[i], "--world-scale") == 0) {
      world_scale = int_flag(i++, 0, 1'000'000);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      PrintUsage();
      return 1;
    }
  }

  if (options.retries > 0 && options.memory_budget_bytes <= 0) {
    std::fprintf(stderr, "--retries needs --memory-budget\n");
    PrintUsage();
    return 1;
  }

  if (plant) options.extra_rules.push_back(PlantedDropMapRule());

  if (!replay_text.empty()) {
    auto query = ParseQuery(replay_text);
    if (!query.ok()) {
      std::fprintf(stderr, "cannot parse replay query: %s\n",
                   query.status().ToString().c_str());
      return 1;
    }
    if (!have_world_seed) {
      std::fprintf(stderr,
                   "--replay needs --world-seed (and usually "
                   "--world-scale)\n");
      return 1;
    }
    RandomWorldOptions world;
    world.seed = world_seed;
    world.scale = world_scale;
    SoundnessHarness harness(options);
    const PipelineConfig config =
        options.configs.size() == 1 ? options.configs[0] : PipelineConfig{};
    auto divergence = harness.CheckQuery(query.value(), world, config);
    if (!divergence.ok()) {
      std::fprintf(stderr, "%s\n", divergence.status().ToString().c_str());
      return 1;
    }
    if (!divergence->has_value()) {
      std::printf("replay: no divergence (query and optimized plans agree "
                  "on world seed=%llu scale=%d, config %s)\n",
                  static_cast<unsigned long long>(world_seed), world_scale,
                  config.Name().c_str());
      return 0;
    }
    std::printf("%s", (*divergence)->Report().c_str());
    return 1;
  }

  SoundnessHarness harness(options);
  auto report = harness.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "harness failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  for (const Divergence& failure : report->failures) {
    std::printf("%s\n", failure.Report().c_str());
  }
  std::printf("%s\n", report->Summary().c_str());
  return report->clean() ? 0 : 1;
}
