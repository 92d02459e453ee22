// Compiled rule index vs linear scan: before/after numbers for whole-pool
// matching, the Figure 4 fixpoints, hidden-join untangling and join
// exploration.
//
// "before" is the linear scan (use_rule_index off, the seed and the
// KOLA_NO_RULE_INDEX configuration); "after" consults the discrimination
// tree compiled by rewrite/rule_index.h. Each workload's derivation digest
// is checked identical across the two modes before its timing is reported,
// and the table is written to BENCH_rule_index.json (override with
// --out=PATH). With --assert the process exits nonzero if the indexed
// whole-catalog probe, or the depth-4 or depth-8 hidden-join untangling,
// is slower than the linear scan -- the CI guard against the index or the
// incremental fixpoint sweeps quietly becoming overhead.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "optimizer/explore.h"
#include "optimizer/hidden_join.h"
#include "rewrite/engine.h"
#include "rewrite/rule_index.h"
#include "rules/catalog.h"
#include "term/parser.h"
#include "values/car_world.h"

namespace kola {
namespace {

// ---------------------------------------------------------------------------
// Mode-parameterized workloads. Each returns a digest string (fired rules
// plus results) that must agree across modes.
// ---------------------------------------------------------------------------

struct Mode {
  bool indexed;
};

constexpr Mode kLinear{false};
constexpr Mode kIndexed{true};

using WorkloadFn = std::function<std::string(const Mode&, int)>;

Rewriter MakeRewriter(const Mode& mode) {
  return Rewriter(nullptr, RewriterOptions{.use_rule_index = mode.indexed});
}

std::string TraceDigest(const Trace& trace, const TermPtr& final_term) {
  std::string digest;
  for (const std::string& id : trace.RuleIds()) {
    digest += id;
    digest += ' ';
  }
  digest += "=> ";
  digest += final_term->ToString();
  return digest;
}

std::vector<Rule> Fig4Rules() {
  std::vector<Rule> all = AllCatalogRules();
  std::vector<Rule> rules;
  for (const char* id :
       {"11", "6", "5", "1", "13", "7", "ext.and-true-right"}) {
    rules.push_back(FindRule(all, id));
  }
  return rules;
}

/// The headline workload: every catalog rule probed once against the
/// garage query. Linear mode walks the whole term once per rule; indexed
/// mode makes one shared descent testing only each node's candidates.
std::string WholeCatalogApplyOnce(const Mode& mode, int iters) {
  Rewriter rewriter = MakeRewriter(mode);
  std::vector<Rule> all = AllCatalogRules();
  TermPtr garage = GarageQueryKG1();
  std::string digest;
  for (int i = 0; i < iters; ++i) {
    auto batch = rewriter.ApplyEachOnce(all, garage);
    digest.clear();
    for (size_t r = 0; r < batch.size(); ++r) {
      if (batch[r].has_value()) {
        digest += all[r].id;
        digest += ' ';
      }
    }
  }
  return digest;
}

/// The Figure 4 fusion fixpoints (T1 and T2 derivations).
std::string Fig4Fixpoints(const Mode& mode, int iters) {
  Rewriter rewriter = MakeRewriter(mode);
  std::vector<Rule> rules = Fig4Rules();
  const char* queries[] = {
      "iterate(Kp(T), city) o iterate(Kp(T), addr) ! P",
      "iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P",
  };
  std::string digest;
  for (int i = 0; i < iters; ++i) {
    digest.clear();
    for (const char* text : queries) {
      auto query = ParseTerm(text, Sort::kObject);
      KOLA_CHECK_OK(query.status());
      Trace trace;
      auto fused = rewriter.Fixpoint(rules, query.value(), &trace);
      KOLA_CHECK_OK(fused.status());
      digest += TraceDigest(trace, fused.value());
    }
  }
  return digest;
}

/// The garage query untangling (Figure 3 -> KG2).
std::string UntangleGarage(const Mode& mode, int iters) {
  Rewriter rewriter = MakeRewriter(mode);
  TermPtr garage = GarageQueryKG1();
  std::string digest;
  for (int i = 0; i < iters; ++i) {
    auto result = UntangleHiddenJoin(garage, rewriter);
    KOLA_CHECK_OK(result.status());
    digest = TraceDigest(result->trace, result->query);
  }
  return digest;
}

/// Hidden-join untangling at `depth`: the pipeline's longest fixpoints
/// (123 firings at depth 8), where every indexed sweep after a call's
/// first re-probes only the nodes the previous firing rebuilt.
WorkloadFn UntangleDepth(int depth) {
  return [depth](const Mode& mode, int iters) {
    Rewriter rewriter = MakeRewriter(mode);
    auto query = MakeHiddenJoinQuery(depth);
    KOLA_CHECK_OK(query.status());
    std::string digest;
    for (int i = 0; i < iters; ++i) {
      auto result = UntangleHiddenJoin(query.value(), rewriter);
      KOLA_CHECK_OK(result.status());
      digest = TraceDigest(result->trace, result->query);
    }
    return digest;
  };
}

/// Rule-based join exploration on a filtered self-join.
std::string JoinExploration(const Mode& mode, int iters) {
  Rewriter rewriter = MakeRewriter(mode);
  CarWorldOptions options;
  options.num_persons = 80;
  options.num_vehicles = 20;
  auto db = BuildCarWorld(options);
  CostModel model(db.get());
  auto query = ParseTerm(
      "join(gt @ (age x age) & Cp(lt, 60) @ age @ pi1, (pi1, pi2)) "
      "! [P, P]",
      Sort::kObject);
  KOLA_CHECK_OK(query.status());
  std::string digest;
  for (int i = 0; i < iters; ++i) {
    auto plans = ExploreJoinPlans(query.value(), rewriter, model);
    KOLA_CHECK_OK(plans.status());
    digest.clear();
    for (const Candidate& c : *plans) {
      for (const std::string& id : c.derivation) digest += id + " ";
      digest += "| ";
    }
  }
  return digest;
}

// ---------------------------------------------------------------------------
// Harness: time each workload in both modes, check digests agree, emit the
// table and BENCH_rule_index.json.
// ---------------------------------------------------------------------------

struct Row {
  std::string name;
  double linear_ms = 0;
  double indexed_ms = 0;
  double speedup = 0;
};

double TimeOnceMs(const WorkloadFn& fn, const Mode& mode, int iters) {
  auto start = std::chrono::steady_clock::now();
  std::string digest = fn(mode, iters);
  auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(digest);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

Row Measure(const std::string& name, const WorkloadFn& fn, int iters,
            int repetitions = 9) {
  // Derivations and results must not depend on the mode.
  KOLA_CHECK(fn(kLinear, 1) == fn(kIndexed, 1));

  Row row;
  row.name = name;
  row.linear_ms = TimeOnceMs(fn, kLinear, iters);
  row.indexed_ms = TimeOnceMs(fn, kIndexed, iters);
  for (int rep = 1; rep < repetitions; ++rep) {
    row.linear_ms = std::min(row.linear_ms, TimeOnceMs(fn, kLinear, iters));
    row.indexed_ms = std::min(row.indexed_ms, TimeOnceMs(fn, kIndexed, iters));
  }
  row.speedup = row.indexed_ms > 0 ? row.linear_ms / row.indexed_ms : 0;
  return row;
}

std::vector<Row> RunTable() {
  std::vector<Row> rows;
  std::printf("== compiled rule index vs linear scan ==\n");
  std::printf("%-42s %12s %12s %9s\n", "workload", "linear(ms)",
              "indexed(ms)", "speedup");
  auto run = [&](const std::string& name, const WorkloadFn& fn, int iters) {
    Row row = Measure(name, fn, iters);
    std::printf("%-42s %12.2f %12.2f %8.2fx\n", row.name.c_str(),
                row.linear_ms, row.indexed_ms, row.speedup);
    rows.push_back(std::move(row));
  };
  run("bench_matching/whole_catalog_apply_once", WholeCatalogApplyOnce, 300);
  run("bench_matching/join_exploration", JoinExploration, 3);
  run("bench_rule_pool/fig4_fixpoints", Fig4Fixpoints, 60);
  run("bench_hidden_join/untangle_garage", UntangleGarage, 40);
  run("bench_hidden_join/untangle_depth4", UntangleDepth(4), 20);
  run("bench_hidden_join/untangle_depth8", UntangleDepth(8), 8);
  std::printf("\n");
  return rows;
}

void WriteJson(const std::vector<Row>& rows, const std::string& path) {
  const RuleIndexCacheStats stats = GetRuleIndexCacheStats();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_rule_index\",\n");
  std::fprintf(f, "  \"before\": \"linear rule scan (KOLA_NO_RULE_INDEX)\",\n");
  std::fprintf(
      f, "  \"after\": \"compiled discrimination-tree rule index\",\n");
  std::fprintf(f, "  \"traces_identical\": true,\n");
  std::fprintf(f, "  \"index_cache_bytes\": %lld,\n",
               static_cast<long long>(stats.bytes));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"linear_ms\": %.3f, "
                 "\"indexed_ms\": %.3f, \"speedup\": %.2f}%s\n",
                 rows[i].name.c_str(), rows[i].linear_ms, rows[i].indexed_ms,
                 rows[i].speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Google-benchmark microbenches for the index itself.
// ---------------------------------------------------------------------------

void BM_BuildCatalogIndex(benchmark::State& state) {
  std::vector<Rule> all = AllCatalogRules();
  const uint64_t fp = RuleSetFingerprint(all);
  for (auto _ : state) {
    auto index = RuleIndex::Build(all, fp);
    benchmark::DoNotOptimize(index);
  }
  state.counters["bytes"] =
      static_cast<double>(RuleIndex::Build(all, fp)->footprint_bytes());
}
BENCHMARK(BM_BuildCatalogIndex);

void BM_CandidatesAtGarageRoot(benchmark::State& state) {
  std::vector<Rule> all = AllCatalogRules();
  auto index = RuleIndex::Build(all, RuleSetFingerprint(all));
  TermPtr garage = GarageQueryKG1();
  std::vector<uint32_t> candidates;
  for (auto _ : state) {
    index->CandidatesAt(*garage, &candidates);
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_CandidatesAtGarageRoot);

void BM_WholeCatalogApplyEachOnce(benchmark::State& state) {
  bool indexed = state.range(0) != 0;
  Rewriter rewriter = MakeRewriter(Mode{indexed});
  std::vector<Rule> all = AllCatalogRules();
  TermPtr garage = GarageQueryKG1();
  for (auto _ : state) {
    auto batch = rewriter.ApplyEachOnce(all, garage);
    benchmark::DoNotOptimize(batch);
  }
}
BENCHMARK(BM_WholeCatalogApplyEachOnce)->Arg(0)->Arg(1);

}  // namespace
}  // namespace kola

int main(int argc, char** argv) {
  std::string out = "BENCH_rule_index.json";
  bool assert_not_slower = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strcmp(argv[i], "--assert") == 0) assert_not_slower = true;
  }
  if (kola::RuleIndexDisabledByEnv()) {
    std::fprintf(stderr,
                 "KOLA_NO_RULE_INDEX is set; the indexed mode would "
                 "silently measure the linear scan\n");
    return 2;
  }
  std::vector<kola::Row> rows = kola::RunTable();
  kola::WriteJson(rows, out);
  if (assert_not_slower) {
    // The whole-catalog probe guards the index itself; the deep untangling
    // rows guard the incremental fixpoint sweeps built on it.
    const char* guarded[] = {"bench_matching/whole_catalog_apply_once",
                             "bench_hidden_join/untangle_depth4",
                             "bench_hidden_join/untangle_depth8"};
    for (const kola::Row& row : rows) {
      for (const char* name : guarded) {
        if (row.name == name && row.speedup < 1.0) {
          std::fprintf(stderr,
                       "FAIL: indexed %s is slower than the linear scan "
                       "(%.2fx)\n",
                       name, row.speedup);
          return 1;
        }
      }
    }
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
