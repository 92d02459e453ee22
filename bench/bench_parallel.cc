// Serial-vs-parallel scaling of the batch drivers: Optimizer::OptimizeAll
// over a mixed query batch, and the differential soundness sweep with
// SoundnessOptions::jobs. Both drivers promise bit-identical output for
// every jobs value, so each workload's result digest is checked across all
// measured jobs levels before any timing is reported; parallelism may only
// ever buy wall-clock. The table is written to BENCH_parallel.json
// (override with --out=PATH).
//
// Note: speedup is bounded by the physical core count of the machine the
// bench runs on (hardware_jobs in the JSON); on a single-core container
// every jobs level times the same serial work plus scheduling overhead.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "optimizer/code_motion.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "values/car_world.h"
#include "verify/soundness.h"

namespace kola {
namespace {

constexpr int kJobsLevels[] = {1, 2, 4};

// ---------------------------------------------------------------------------
// Workload 1: OptimizeAll over a mixed batch (untangling-heavy).
// ---------------------------------------------------------------------------

std::vector<TermPtr> MakeBatch() {
  std::vector<TermPtr> batch;
  for (int round = 0; round < 4; ++round) {
    batch.push_back(GarageQueryKG1());
    batch.push_back(QueryK4());
    batch.push_back(QueryK3());
    for (int depth : {4, 5, 6}) {
      auto query = MakeHiddenJoinQuery(depth);
      KOLA_CHECK_OK(query.status());
      batch.push_back(std::move(query).value());
    }
  }
  return batch;  // 24 queries
}

std::string BatchDigest(const std::vector<BatchOptimizeResult>& entries) {
  std::string digest;
  for (const BatchOptimizeResult& entry : entries) {
    KOLA_CHECK_OK(entry.status);
    const OptimizeResult& r = *entry.result;
    digest += r.query->ToString();
    for (const std::string& id : r.trace.RuleIds()) {
      digest += ' ';
      digest += id;
    }
    digest += '\n';
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Workload 2: the end-to-end soundness sweep.
// ---------------------------------------------------------------------------

SoundnessOptions SweepOptions(int jobs) {
  SoundnessOptions options;
  options.trials = 48;
  options.seed = 20260806;
  options.max_eval_steps = 500'000;
  options.jobs = jobs;
  return options;
}

// ---------------------------------------------------------------------------
// Harness: per-workload timings at each jobs level, digest equality across
// levels, table + BENCH_parallel.json.
// ---------------------------------------------------------------------------

struct Row {
  std::string name;
  std::vector<double> ms;       // parallel to kJobsLevels
  std::vector<double> speedup;  // serial_ms / ms
};

/// True when a jobs level oversubscribes this machine: more workers than
/// hardware threads cannot speed anything up, so its timing says nothing
/// about the driver's scaling. Flagged per level in the table and the JSON
/// instead of quietly reporting a ~1x "speedup" as if it were a finding.
bool ExceedsHardware(int jobs) { return jobs > HardwareJobs(); }

void FinishRow(Row* row) {
  for (double ms : row->ms) {
    row->speedup.push_back(ms > 0 ? row->ms.front() / ms : 0);
  }
}

Row MeasureOptimizeAll(int repetitions) {
  const PropertyStore properties = PropertyStore::Default();
  CarWorldOptions world;
  world.num_persons = 24;
  world.num_vehicles = 12;
  world.num_addresses = 10;
  auto db = BuildCarWorld(world);
  Optimizer optimizer(&properties, db.get());
  const std::vector<TermPtr> batch = MakeBatch();

  // Identity gate: every jobs level must produce the serial batch, plan
  // for plan and trace for trace.
  std::string serial_digest;
  for (int jobs : kJobsLevels) {
    std::string digest = BatchDigest(optimizer.OptimizeAll(batch, jobs));
    if (jobs == 1) serial_digest = digest;
    KOLA_CHECK(digest == serial_digest);
  }

  Row row;
  row.name = "optimize_all/mixed_batch24";
  for (size_t level = 0; level < std::size(kJobsLevels); ++level) {
    double best = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      auto start = std::chrono::steady_clock::now();
      auto results = optimizer.OptimizeAll(batch, kJobsLevels[level]);
      auto end = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(results);
      double ms =
          std::chrono::duration<double, std::milli>(end - start).count();
      if (rep == 0 || ms < best) best = ms;
    }
    row.ms.push_back(best);
  }
  FinishRow(&row);
  return row;
}

Row MeasureSoundnessSweep(int repetitions) {
  // Identity gate: counts, failures and repro seeds must not move with
  // jobs. Summary() covers all of them.
  std::string serial_summary;
  for (int jobs : kJobsLevels) {
    auto report = SoundnessHarness(SweepOptions(jobs)).Run();
    KOLA_CHECK_OK(report.status());
    KOLA_CHECK(report->clean());
    if (jobs == 1) serial_summary = report->Summary();
    KOLA_CHECK(report->Summary() == serial_summary);
  }

  Row row;
  row.name = "soundness_sweep/48_trials_x8_configs";
  for (size_t level = 0; level < std::size(kJobsLevels); ++level) {
    double best = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      SoundnessHarness harness(SweepOptions(kJobsLevels[level]));
      auto start = std::chrono::steady_clock::now();
      auto report = harness.Run();
      auto end = std::chrono::steady_clock::now();
      KOLA_CHECK_OK(report.status());
      benchmark::DoNotOptimize(report);
      double ms =
          std::chrono::duration<double, std::milli>(end - start).count();
      if (rep == 0 || ms < best) best = ms;
    }
    row.ms.push_back(best);
  }
  FinishRow(&row);
  return row;
}

/// Accounting pass: the mixed batch re-run serially under a pure-meter
/// governor (byte budget 0 never exhausts), so the JSON records the batch
/// driver's peak charged bytes.
int64_t MeasurePeakChargedBytes() {
  const PropertyStore properties = PropertyStore::Default();
  CarWorldOptions world;
  world.num_persons = 24;
  world.num_vehicles = 12;
  world.num_addresses = 10;
  auto db = BuildCarWorld(world);
  Governor meter{Governor::Limits{}};
  ScopedMemoryGovernor memory_scope(&meter);
  RewriterOptions options = RewriterOptions::Defaults();
  options.governor = &meter;
  Optimizer optimizer(&properties, db.get(), options);
  for (const BatchOptimizeResult& entry :
       optimizer.OptimizeAll(MakeBatch(), 1)) {
    KOLA_CHECK_OK(entry.status);
  }
  return meter.memory().peak_bytes();
}

std::vector<Row> RunTable() {
  std::vector<Row> rows;
  std::printf("== serial vs parallel batch drivers (hardware jobs: %d) ==\n",
              HardwareJobs());
  std::printf("%-40s", "workload");
  for (int jobs : kJobsLevels) {
    std::printf("  jobs=%d(ms)%s", jobs, ExceedsHardware(jobs) ? "*" : "");
  }
  std::printf("  speedup@4\n");
  auto emit = [&](Row row) {
    std::printf("%-40s", row.name.c_str());
    for (size_t level = 0; level < row.ms.size(); ++level) {
      std::printf("  %10.2f%s", row.ms[level],
                  ExceedsHardware(kJobsLevels[level]) ? "*" : " ");
    }
    std::printf("  %7.2fx\n", row.speedup.back());
    rows.push_back(std::move(row));
  };
  emit(MeasureOptimizeAll(3));
  emit(MeasureSoundnessSweep(3));
  bool any_oversubscribed = false;
  for (int jobs : kJobsLevels) any_oversubscribed |= ExceedsHardware(jobs);
  if (any_oversubscribed) {
    std::printf("* jobs exceed the %d hardware thread(s): oversubscribed, "
                "timing is not a scaling measurement\n",
                HardwareJobs());
  }
  std::printf("\n");
  return rows;
}

void WriteJson(const std::vector<Row>& rows, int64_t peak_charged_bytes,
               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_parallel\",\n");
  std::fprintf(f, "  \"hardware_jobs\": %d,\n", HardwareJobs());
  std::fprintf(f, "  \"results_identical_across_jobs\": true,\n");
  std::fprintf(f, "  \"peak_charged_bytes\": %lld,\n",
               static_cast<long long>(peak_charged_bytes));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"levels\": [",
                 rows[i].name.c_str());
    for (size_t level = 0; level < rows[i].ms.size(); ++level) {
      std::fprintf(f,
                   "{\"jobs\": %d, \"hardware_jobs\": %d, "
                   "\"exceeds_hardware\": %s, \"ms\": %.3f, "
                   "\"speedup\": %.2f}%s",
                   kJobsLevels[level], HardwareJobs(),
                   ExceedsHardware(kJobsLevels[level]) ? "true" : "false",
                   rows[i].ms[level], rows[i].speedup[level],
                   level + 1 < rows[i].ms.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Google-benchmark microbenches for the pool itself.
// ---------------------------------------------------------------------------

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost of an almost-empty body: what ParallelFor charges per
  // index when the work itself is negligible.
  int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::atomic<uint64_t> sum{0};
    KOLA_CHECK_OK(ParallelFor(jobs, 256, [&sum](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }));
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4);

void BM_OptimizeAllBatch(benchmark::State& state) {
  int jobs = static_cast<int>(state.range(0));
  const PropertyStore properties = PropertyStore::Default();
  auto db = BuildCarWorld(CarWorldOptions{});
  Optimizer optimizer(&properties, db.get());
  const std::vector<TermPtr> batch = MakeBatch();
  for (auto _ : state) {
    auto results = optimizer.OptimizeAll(batch, jobs);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_OptimizeAllBatch)->Arg(1)->Arg(4);

}  // namespace
}  // namespace kola

int main(int argc, char** argv) {
  std::string out = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }
  std::vector<kola::Row> rows = kola::RunTable();
  int64_t peak = kola::MeasurePeakChargedBytes();
  std::printf("peak charged bytes (mixed_batch24, serial): %lld\n",
              static_cast<long long>(peak));
  kola::WriteJson(rows, peak, out);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
