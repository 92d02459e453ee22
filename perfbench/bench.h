#ifndef KOLA_PERFBENCH_BENCH_H_
#define KOLA_PERFBENCH_BENCH_H_

// Shared declarations of the end-to-end benchmark binary (kola_perfbench).
// Every layer is measured from outside: the benchmark times calls into each
// layer's public functions and never reaches into library internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "service/service.h"
#include "term/term.h"
#include "values/database.h"

namespace kola {
namespace bench {

// ---------------------------------------------------------------- clock

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- tracing

/// One timed call into a layer. `parent` is the index of the enclosing
/// span on the same thread (-1 for a root); spans of one request share
/// `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = 0;
};

/// In-memory span recorder for one thread. Spans stay in memory until the
/// run ends; WriteSpans serializes them.
class Tracer {
 public:
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer makes it free, which is how the untraced runs
/// share code with the traced one.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Writes the spans of several per-thread tracers as JSON lines
/// ({"thread", "id", "name", "start_ns", "end_ns", "parent", "request"}).
Status WriteSpans(const std::string& path,
                  const std::vector<const Tracer*>& tracers);

// ---------------------------------------------------------------- metrics

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // observations behind `value`
};

using MetricMap = std::map<std::string, Metric>;

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& values);
/// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

// ---------------------------------------------------------------- inputs

/// One benchmark input: query text in its source language. The program
/// under test only ever receives `text`.
struct QueryText {
  std::string name;
  QueryLanguage language = QueryLanguage::kKola;
  std::string text;
};

/// Scale of the seeded car world every workload runs against.
inline constexpr int64_t kWorldScale = 200;

/// The seeded car world at kWorldScale.
std::unique_ptr<Database> BuildBenchWorld(uint64_t seed);

/// The corpus of the compile workload (and the serve workload's warm shape
/// pool): the paper's queries in their source
/// languages (K3/K4 and KG1 as KOLA, the garage query as AQUA and OQL,
/// hidden joins at depths 1-8), the kolaload OQL shapes with constants
/// drawn from `seed`, and a fixed-seed QueryGenerator batch rendered to
/// KOLA text. Generated queries whose input the naive evaluator rejects
/// (runtime type errors, over 5M ticks on `db`) are redrawn, as the
/// soundness harness does.
std::vector<QueryText> BuildCorpus(uint64_t seed, const Database& db);

/// Templates for never-seen-before serve shapes: query text containing
/// kNovelSentinel, which NovelShape replaces by a unique constant.
inline constexpr const char* kNovelSentinel = "987654321";
std::vector<QueryText> NovelTemplates();
QueryText NovelShape(const std::vector<QueryText>& templates,
                     int64_t unique);

/// Text -> KOLA through the language's own front end (parse, then
/// translate for OQL/AQUA), with one span per layer call.
StatusOr<TermPtr> FrontEnd(const QueryText& query, Tracer* tracer,
                           int64_t request);

// ---------------------------------------------------------------- runs

/// Directory (relative to the working directory) the traced run writes
/// its spans to.
inline constexpr const char* kSpanDir = ".bench_out";

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check: plant one wrong plan/answer and one refused request.
  bool plant = false;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;          // failed or shed ops
  int64_t wrong_answers = 0;   // outputs that differ from the reference
  int64_t checked = 0;         // outputs compared against a reference
  MetricMap end_to_end;
  MetricMap per_layer;
  /// Free-form report lines (per-query rows, notes), printed before the
  /// result line.
  std::vector<std::string> report;
};

RunResult RunCompile(const RunConfig& config);
RunResult RunServe(const RunConfig& config);

}  // namespace bench
}  // namespace kola

#endif  // KOLA_PERFBENCH_BENCH_H_
