// kola_perfbench -- the repository's end-to-end benchmark.
//
//   kola_perfbench --workload compile|serve --seed N --seconds S
//                  --trace 0|1 [--rev REV] [--plant]
//
// Prints per-query rows and notes, a provenance line, a sample-count line,
// a correctness summary, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of the traced run, whose spans are
// written under .bench_out/. --plant plants one wrong answer and one
// refused request (perfbench/run.py --self-check uses it). perfbench/run.py
// builds this binary and is the usual entry point.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parse_number.h"

namespace {

using kola::bench::MetricMap;
using kola::bench::RunConfig;
using kola::bench::RunResult;

int Usage(const char* message) {
  std::fprintf(stderr,
               "kola_perfbench: %s\nusage: kola_perfbench --workload "
               "compile|serve --seed N --seconds S --trace 0|1 "
               "[--rev REV] [--plant]\n",
               message);
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string SamplesJson(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + std::to_string(metric.samples);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string rev = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--plant") {
      config.plant = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      auto seed = kola::ParseUint64(v);
      if (!seed.ok()) return Usage("bad --seed");
      config.seed = seed.value();
      have_seed = true;
    } else if (arg == "--seconds") {
      auto seconds = kola::ParseInt64InRange(v, "--seconds", 1, 600);
      if (!seconds.ok()) return Usage("bad --seconds (1..600)");
      config.seconds = static_cast<double>(seconds.value());
      have_seconds = true;
    } else if (arg == "--trace") {
      auto trace = kola::ParseInt64InRange(v, "--trace", 0, 1);
      if (!trace.ok()) return Usage("bad --trace (0 or 1)");
      config.trace = trace.value() == 1;
      have_trace = true;
    } else if (arg == "--rev") {
      rev = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (config.trace) ::mkdir(kola::bench::kSpanDir, 0755);

  RunResult result;
  if (config.workload == "compile") {
    result = kola::bench::RunCompile(config);
  } else if (config.workload == "serve") {
    result = kola::bench::RunServe(config);
  } else {
    return Usage("unknown workload (compile, serve)");
  }

  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  const std::string build_type = KOLA_BENCH_BUILD_TYPE;
  const bool optimized =
      build_type == "Release" || build_type == "RelWithDebInfo";
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "provenance {\"rev\": \"%s\", \"nproc\": %ld, \"hardware_jobs\": %u, "
      "\"build_type\": \"%s\", \"optimized_build\": %s, \"ndebug\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      rev.c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), build_type.c_str(),
      optimized ? "true" : "false", ndebug ? "true" : "false",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0);
  if (!optimized) {
    std::printf("note WARNING: non-optimized build (%s); timings are not "
                "comparable\n",
                build_type.c_str());
  }
  const MetricMap& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  std::printf("samples %s\n", SamplesJson(metrics).c_str());
  if (config.trace) {
    std::printf("end_to_end_traced %s\n",
                MetricsJson(result.end_to_end).c_str());
  }
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) /
                static_cast<double>(result.attempted)
          : 0;
  std::printf(
      "summary {\"wrong_answers\": %lld, \"checked\": %lld, "
      "\"error_rate\": %s, \"attempted\": %lld, \"failed\": %lld}\n",
      static_cast<long long>(result.wrong_answers),
      static_cast<long long>(result.checked), Number(error_rate).c_str(),
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      result.wrong_answers == 0 && result.checked > 0 ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), MetricsJson(metrics).c_str());
  return 0;
}
