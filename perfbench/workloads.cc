// The two workloads (compile, serve), their reference oracles,
// and the traced layer pass that produces the per-layer metrics.
//
// Every measurement is taken from outside the library: spans wrap calls
// into each layer's public functions, counters come from public stats.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aqua/parser.h"
#include "bench.h"
#include "coko/strategy.h"
#include "common/macros.h"
#include "common/random.h"
#include "egraph/egraph.h"
#include "eval/evaluator.h"
#include "optimizer/code_motion.h"
#include "optimizer/cost.h"
#include "optimizer/explore.h"
#include "optimizer/hidden_join.h"
#include "optimizer/optimizer.h"
#include "optimizer/retry.h"
#include "oql/oql.h"
#include "rewrite/properties.h"
#include "rewrite/rule_index.h"
#include "rules/catalog.h"
#include "service/server.h"
#include "term/parser.h"
#include "translate/translate.h"

namespace kola {
namespace bench {

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 5;
/// Serve: share of requests that are never-seen-before shapes.
constexpr double kNovelShare = 0.10;
/// Serve: never-seen-before answers checked against an in-process
/// optimization (the first ones by shape number); warm answers are all
/// checked.
constexpr int64_t kNovelChecked = 128;
constexpr const char* kTier = "gold";
/// Serve: timing window of the quiet-speed estimator (compile's windows
/// are its corpus passes).
constexpr int64_t kServeWindowNs = 500'000'000;
/// peak_rss_mb is read once this many ops into the timed loop: the
/// optimizer's and the plan cache's bounded memo tables fill with work
/// done, so a fixed-time window would tie peak memory to throughput.
constexpr int64_t kRssAfterCompileOps = 2000;
constexpr int64_t kRssAfterServeRequests = 10000;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

void Put(MetricMap* map, const std::string& name, double value,
         const std::string& unit, int64_t samples) {
  (*map)[name] = Metric{value, unit, samples};
}

/// Timings are reported at the machine speed of the fastest 5% of short
/// windows of the timed loop. A shared machine drifts in speed by 30% to
/// 60% in phases lasting seconds to tens of seconds; the fast tail of many
/// windows measures the code rather than its neighbours, as long as some
/// of the run saw a quiet machine.
constexpr double kFastShare = 0.05;

/// One timed op: its latency, its class (ops of one class do the same
/// work: one corpus query, or one serve request kind, shape and cache
/// outcome) and the timing window it completed in.
struct TimedOp {
  double latency_us = 0;
  int64_t op_class = 0;
  size_t window = 0;
};

/// Latency and throughput at the machine's quiet speed. A window's speed is
/// the median, over its ops, of each op's latency over its class's median
/// latency in the run; the quiet speed is the fastest 5% of window speeds.
/// Every op's latency is rescaled from its window's speed to the quiet
/// speed. latency_p50_us and latency_p99_us are percentiles over all
/// rescaled ops, so a stall that hits more than 1% of the ops moves p99.
/// ops_per_s is the op count over the windows' rescaled length (a window
/// in which no op completed counts at its measured length). A change to
/// the code that slows every op, or only some classes, moves the result
/// with it; a machine phase that slows whole windows is taken out.
void PutQuietLatency(MetricMap* map, const std::vector<TimedOp>& ops,
                     const std::vector<double>& window_seconds) {
  std::unordered_map<int64_t, std::vector<double>> by_class;
  for (const TimedOp& op : ops) by_class[op.op_class].push_back(op.latency_us);
  std::unordered_map<int64_t, double> class_median;
  for (const auto& [op_class, latency] : by_class) {
    class_median[op_class] = Median(latency);
  }
  std::vector<std::vector<double>> relative(window_seconds.size());
  for (const TimedOp& op : ops) {
    relative[op.window].push_back(op.latency_us /
                                  class_median.at(op.op_class));
  }
  std::vector<double> speed(window_seconds.size(), 0);
  std::vector<double> speeds;
  for (size_t w = 0; w < relative.size(); ++w) {
    if (relative[w].empty()) continue;
    speed[w] = Median(relative[w]);
    speeds.push_back(speed[w]);
  }
  const double quiet = Percentile(speeds, kFastShare);
  std::vector<double> rescaled;
  rescaled.reserve(ops.size());
  for (const TimedOp& op : ops) {
    rescaled.push_back(op.latency_us * quiet / speed[op.window]);
  }
  double seconds = 0;
  for (size_t w = 0; w < window_seconds.size(); ++w) {
    seconds += speed[w] > 0 ? window_seconds[w] * quiet / speed[w]
                            : window_seconds[w];
  }
  const int64_t n = static_cast<int64_t>(ops.size());
  Put(map, "ops_per_s", seconds > 0 ? static_cast<double>(n) / seconds : 0,
      "1/s", n);
  Put(map, "latency_p50_us", Percentile(rescaled, 0.50), "us", n);
  Put(map, "latency_p99_us", Percentile(rescaled, 0.99), "us", n);
}

void PutDurations(MetricMap* map, const std::string& metric,
                  const std::vector<double>& us) {
  Put(map, metric, Median(us), "us", static_cast<int64_t>(us.size()));
}

bool HasJoin(const TermPtr& root) {
  std::vector<const Term*> stack = {root.get()};
  while (!stack.empty()) {
    const Term* t = stack.back();
    stack.pop_back();
    if (t->kind() == TermKind::kJoin) return true;
    for (const TermPtr& child : t->children()) stack.push_back(child.get());
  }
  return false;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The seeded world plus the optimizer's property store: what every
/// workload's set-up builds first.
struct World {
  std::unique_ptr<Database> db;
  PropertyStore properties = PropertyStore::Default();
};

World BuildWorld(uint64_t seed, Tracer* tracer) {
  World world;
  ScopedSpan span(tracer, "values.world_build", 0);
  world.db = BuildBenchWorld(seed);
  return world;
}

// ------------------------------------------------------------ plan oracle

/// One corpus query's measured plan quality and its reference check.
struct PlanRow {
  std::string name;
  bool ok = false;            // every evaluation below succeeded
  bool correct = false;       // chosen plan's answer == reference answer
  std::string error;
  int64_t input_ticks = 0;    // evaluator ticks of the input (fastpaths on)
  int64_t plan_ticks = 0;     // ticks of the chosen plan
  int64_t rewritten_ticks = 0;  // ticks of the rewritten candidate
  int64_t fastpath_hits = 0;  // chosen plan's hash join / nest hits
  double cost_before = 0;     // estimated cost of the input
  double cost_after = 0;      // estimated cost of the rewritten candidate
  bool kept = false;          // the rewritten candidate was chosen
  bool rewritten_differs = false;

  double TickRatio() const {
    return static_cast<double>(std::max<int64_t>(plan_ticks, 1)) /
           static_cast<double>(std::max<int64_t>(input_ticks, 1));
  }
  bool Inversion() const { return kept && plan_ticks > input_ticks; }
};

/// Evaluates the input naively (EvalOptions{.physical_fastpaths = false},
/// the optimizer-independent reference), the input and the chosen plan
/// with the shipped evaluator, and compares answers.
PlanRow CheckPlan(const std::string& name, const Database& db,
                  const TermPtr& input, const OptimizeResult& result,
                  Tracer* tracer) {
  PlanRow row;
  row.name = name;
  row.cost_before = result.cost_before;
  row.cost_after = result.cost_after;
  row.kept = result.kept_rewrite;
  row.rewritten_differs = !Term::Equal(result.rewritten, input);

  Evaluator reference(&db, EvalOptions{.physical_fastpaths = false});
  StatusOr<Value> expected = reference.EvalObject(input);
  Evaluator input_eval(&db);
  StatusOr<Value> input_value = input_eval.EvalObject(input);
  Evaluator plan_eval(&db);
  StatusOr<Value> plan_value = [&] {
    ScopedSpan span(tracer, "eval.plan", 0);
    return plan_eval.EvalObject(result.query);
  }();
  row.input_ticks = input_eval.steps();
  row.plan_ticks = plan_eval.steps();
  row.fastpath_hits = plan_eval.fastpath_hits();
  row.rewritten_ticks = row.plan_ticks;
  if (!Term::Equal(result.rewritten, result.query)) {
    Evaluator rewritten_eval(&db);
    StatusOr<Value> rewritten_value = rewritten_eval.EvalObject(
        result.rewritten);
    row.rewritten_ticks = rewritten_eval.steps();
    if (!rewritten_value.ok()) row.error = rewritten_value.status().ToString();
  }
  for (const StatusOr<Value>* v : {&expected, &input_value, &plan_value}) {
    if (!v->ok() && row.error.empty()) row.error = v->status().ToString();
  }
  row.ok = row.error.empty();
  row.correct = row.ok && plan_value.value() == expected.value() &&
                input_value.value() == expected.value();
  return row;
}

std::string RowJson(const PlanRow& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "row {\"query\": \"%s\", \"input_ticks\": %lld, "
                "\"plan_ticks\": %lld, \"tick_ratio\": %.4f, "
                "\"est_cost_before\": %.6g, \"est_cost_after\": %.6g, "
                "\"kept\": %s, \"inversion\": %s, \"correct\": %s}",
                JsonEscape(r.name).c_str(),
                static_cast<long long>(r.input_ticks),
                static_cast<long long>(r.plan_ticks), r.TickRatio(),
                r.cost_before, r.cost_after, r.kept ? "true" : "false",
                r.Inversion() ? "true" : "false",
                r.correct ? "true" : "false");
  return buf;
}

/// Folds plan rows into the plan-quality end-to-end metrics, the
/// wrong-answer count and the per-query report.
void SummarizePlans(const std::vector<PlanRow>& rows, RunResult* out) {
  std::vector<double> ratios;
  int64_t inversions = 0;
  for (const PlanRow& row : rows) {
    out->report.push_back(RowJson(row));
    ++out->checked;
    if (!row.correct) {
      ++out->wrong_answers;
      if (!row.error.empty()) {
        out->report.push_back("note query " + row.name +
                              " failed evaluation: " + row.error);
      }
      continue;
    }
    ratios.push_back(row.TickRatio());
    if (row.Inversion()) ++inversions;
  }
  const int64_t n = static_cast<int64_t>(ratios.size());
  Put(&out->end_to_end, "plan_tick_ratio", GeoMean(ratios), "ratio", n);
  Put(&out->end_to_end, "cost_inversions", static_cast<double>(inversions),
      "count", n);
}

// ------------------------------------------------------------ serve client

/// A blocking line-protocol client for SocketServer.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return UnavailableError("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{30, 0};  // a wedged server fails the run, not hangs it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return UnavailableError(std::string("connect: ") +
                              std::strerror(errno));
    }
    return Status::OK();
  }

  /// Sends one request line and returns the one-line response.
  StatusOr<std::string> Request(const std::string& line) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return UnavailableError("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string response = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return response;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return UnavailableError("connection closed");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A parsed "OK <hit> <usec>\t<payload>" response.
struct QResponse {
  bool ok = false;
  bool hit = false;
  int64_t server_usec = 0;
  std::string payload;
};

QResponse ParseQResponse(const std::string& line) {
  QResponse r;
  size_t tab = line.find('\t');
  if (line.rfind("OK ", 0) != 0 || tab == std::string::npos) return r;
  long long usec = 0;
  int hit = 0;
  if (std::sscanf(line.c_str(), "OK %d %lld", &hit, &usec) != 2) return r;
  r.ok = true;
  r.hit = hit != 0;
  r.server_usec = usec;
  r.payload = line.substr(tab + 1);
  return r;
}

std::string RequestLine(const char* verb, const QueryText& q) {
  return std::string(verb) + " " + kTier + " " +
         QueryLanguageName(q.language) + " " + q.text;
}

/// The service's payload for one optimization outcome, rendered in
/// process: every OptimizeResult field the protocol carries, tab
/// separated, in the protocol's field order. A served payload must equal
/// this byte for byte.
std::string RenderPayload(const OptimizeResult& r, const RetryReport& report) {
  auto number = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ',';
      out += parts[i];
    }
    return out;
  };
  std::string reason = r.degradation.ToString();
  std::replace(reason.begin(), reason.end(), '\n', ' ');
  std::replace(reason.begin(), reason.end(), '\r', ' ');
  std::string out = std::string("tier=") + kTier;
  out += std::string("\tdegraded=") + (r.degradation.degraded ? "1" : "0");
  out += std::string("\tquarantined=") + (report.quarantined ? "1" : "0");
  out += "\tattempts=" + std::to_string(report.attempts);
  out += std::string("\tkept=") + (r.kept_rewrite ? "1" : "0");
  out += "\tcost=" + number(r.cost_before) + "->" + number(r.cost_after);
  out += "\tblocks=" + join(r.applied_blocks);
  out += "\trules=" + join(r.trace.RuleIds());
  out += "\tplan=" + (r.query == nullptr ? "" : r.query->ToString());
  out += "\trewritten=" +
         (r.rewritten == nullptr ? "" : r.rewritten->ToString());
  out += "\tdegradation=" + reason;
  return out;
}

/// In-process optimization the way the service's default tier runs it.
RetryOutcome OptimizeLikeService(const Optimizer& optimizer,
                                 const TermPtr& query) {
  const TierPolicy tier = DefaultTiers().front();
  RetryOptions retry;
  retry.memory_budget_bytes = tier.memory_budget_bytes;
  retry.deadline_ms = tier.deadline_ms;
  retry.step_budget = tier.step_budget;
  retry.max_attempts = tier.max_attempts;
  retry.escalation_factor = tier.escalation_factor;
  RetrySupervisor supervisor(&optimizer, retry);
  return supervisor.Optimize(query, 0);
}

/// A running service + server on a loopback ephemeral port.
struct ServeStack {
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<SocketServer> server;

  ~ServeStack() {
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<ServeStack> StartServeStack(const World& world) {
  auto stack = std::make_unique<ServeStack>();
  ServiceOptions options;
  options.jobs = 2;
  stack->service = std::make_unique<OptimizationService>(
      world.db.get(), &world.properties, options);
  stack->server =
      std::make_unique<SocketServer>(stack->service.get(), ServerOptions{});
  KOLA_CHECK_OK(stack->server->Start());
  return stack;
}

// ------------------------------------------------------------ layer pass

/// Counters the traced run collects next to its spans.
struct LayerCounters {
  int64_t optimizes = 0;
  int64_t degraded = 0;
  int64_t firings = 0;
  int64_t egraph_runs = 0;
  int64_t egraph_nodes = 0;
  std::vector<double> egraph_tick_ratios;
  std::vector<double> unattributed_us;
  std::vector<double> size_ratios;
  // Within-query (estimated cost, measured ticks) pairs of distinct plans.
  int64_t concordant = 0;
  int64_t discordant = 0;
  int64_t rank_pairs = 0;
  // Serve: per-request server-reported latency, split by hit flag, and
  // client round trip minus server time.
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::vector<double> overhead_us;
  int64_t q_requests = 0;
  int64_t q_hits = 0;
  int64_t shed = 0;
  int64_t evictions = 0;
  RuleIndexCacheStats index_before;
};

void NoteRank(double cost_a, int64_t ticks_a, double cost_b, int64_t ticks_b,
              LayerCounters* c) {
  ++c->rank_pairs;
  const double dc = cost_a - cost_b;
  const double dt = static_cast<double>(ticks_a - ticks_b);
  if (dc * dt > 0) ++c->concordant;
  if (dc * dt < 0) ++c->discordant;
}

void NoteOptimize(const OptimizeResult& r, LayerCounters* c) {
  ++c->optimizes;
  if (r.degradation.degraded) ++c->degraded;
  c->firings += static_cast<int64_t>(r.trace.steps.size());
}

/// Optimize, then replay the pipeline's public phase entry points in
/// order on the same input, each under its own span. The part of Optimize
/// the replay does not cover (loop fusion, orchestration) is recorded as
/// unattributed time. Optimize and the replay each run on a fresh
/// Optimizer with the shipped defaults: an Optimizer keeps its rewrite
/// memo tables across calls, so a replay on the instance that just
/// optimized this input would hit the memos that call filled.
StatusOr<OptimizeResult> OptimizeAndReplay(const World& world,
                                           const TermPtr& input,
                                           Tracer* tracer, int64_t request,
                                           LayerCounters* counters) {
  const Optimizer optimizer(&world.properties, world.db.get());
  const int64_t t0 = NowNs();
  StatusOr<OptimizeResult> result = [&] {
    ScopedSpan span(tracer, "optimizer.optimize", request);
    return optimizer.Optimize(input);
  }();
  const int64_t optimize_ns = NowNs() - t0;
  if (!result.ok()) return result;
  NoteOptimize(result.value(), counters);

  const Optimizer replay(&world.properties, world.db.get());
  const Rewriter& rewriter = replay.rewriter();
  int64_t covered_ns = 0;
  auto timed = [&](const char* name, auto&& body) {
    ScopedSpan span(tracer, name, request);
    const int64_t start = NowNs();
    body();
    covered_ns += NowNs() - start;
  };
  {
    ScopedSpan span(tracer, "rules.catalog", request);
    std::vector<Rule> catalog = AllCatalogRules();
  }
  std::optional<RuleBlock> simplify;
  {
    ScopedSpan span(tracer, "rules.block_build", request);
    // Only the simplify block's build is a step of Optimize itself; the
    // code-motion blocks are rebuilt inside ApplyCodeMotion below.
    timed("rules.simplify_block", [&] { simplify.emplace(SimplifyBlock()); });
    std::vector<RuleBlock> code_motion = CodeMotionBlocks();
    std::vector<RuleBlock> hidden_join = HiddenJoinBlocks();
  }
  TermPtr current = input;
  timed("coko.simplify", [&] {
    StatusOr<StrategyResult> r = simplify->Apply(current, rewriter, nullptr);
    if (r.ok()) current = r->term;
  });
  timed("optimizer.code_motion", [&] {
    StatusOr<CodeMotionResult> r = ApplyCodeMotion(current, rewriter);
    if (r.ok()) current = r->query;
  });
  timed("optimizer.hidden_join", [&] {
    StatusOr<HiddenJoinResult> r = UntangleHiddenJoin(current, rewriter);
    if (r.ok()) current = r->query;
  });
  CostModel cost_model(world.db.get());
  if (HasJoin(current)) {
    timed("optimizer.explore", [&] {
      (void)ExploreJoinPlans(current, rewriter, cost_model);
    });
  }
  timed("optimizer.cost",
        [&] { (void)cost_model.EstimateQueryCost(input); });
  timed("optimizer.cost", [&] {
    (void)cost_model.EstimateQueryCost(result.value().rewritten);
  });
  counters->unattributed_us.push_back(Micros(optimize_ns - covered_ns));
  return result;
}

/// Saturates with the e-graph backend and measures the extracted plan.
void EGraphProbe(const Optimizer& optimizer, const Database& db,
                 const TermPtr& input, const OptimizeResult& greedy,
                 int64_t input_ticks, Tracer* tracer, int64_t request,
                 LayerCounters* counters) {
  CostModel cost_model(&db);
  PlanCostFn cost = [&](const TermPtr& plan) {
    return cost_model.EstimateQueryCost(plan);
  };
  EGraphOptions options;
  options.max_nodes = optimizer.rewriter().options().egraph_max_nodes;
  EGraphOutcome outcome = [&] {
    ScopedSpan span(tracer, "egraph.saturate", request);
    return SaturateAndExtract(input, greedy.rewritten, optimizer.rewriter(),
                              cost, options);
  }();
  ++counters->egraph_runs;
  counters->egraph_nodes += static_cast<int64_t>(outcome.stats.nodes);
  Evaluator eval(&db);
  StatusOr<Value> value = eval.EvalObject(outcome.plan);
  if (!value.ok()) return;
  counters->egraph_tick_ratios.push_back(
      static_cast<double>(std::max<int64_t>(eval.steps(), 1)) /
      static_cast<double>(std::max<int64_t>(input_ticks, 1)));
  StatusOr<double> egraph_cost = cost(outcome.plan);
  if (egraph_cost.ok() && !Term::Equal(outcome.plan, input)) {
    NoteRank(egraph_cost.value(), eval.steps(), greedy.cost_before,
             input_ticks, counters);
  }
}

/// Requests every query through a live service: one miss, three hits and
/// one cache-bypassing F each, for the service and server layer numbers.
void ServeProbe(const World& world, const std::vector<QueryText>& corpus,
                Tracer* tracer, LayerCounters* counters) {
  std::unique_ptr<ServeStack> stack = StartServeStack(world);
  LineClient client;
  KOLA_CHECK_OK(client.Connect(stack->server->port()));
  int64_t request = 1;
  for (const QueryText& q : corpus) {
    for (int k = 0; k < 5; ++k) {
      const bool bypass = k == 4;
      const int64_t t0 = NowNs();
      StatusOr<std::string> line = [&] {
        ScopedSpan span(tracer, "serve.request", request++);
        return client.Request(RequestLine(bypass ? "F" : "Q", q));
      }();
      const double rtt_us = Micros(NowNs() - t0);
      if (!line.ok()) continue;
      QResponse r = ParseQResponse(line.value());
      if (!r.ok) continue;
      (r.hit ? counters->hit_us : counters->miss_us)
          .push_back(static_cast<double>(r.server_usec));
      counters->overhead_us.push_back(rtt_us -
                                      static_cast<double>(r.server_usec));
      if (!bypass) {
        ++counters->q_requests;
        if (r.hit) ++counters->q_hits;
      }
    }
  }
  ServiceStats stats = stack->service->stats();
  counters->shed += static_cast<int64_t>(stats.shed);
  counters->evictions += static_cast<int64_t>(stats.cache.evictions);
}

/// The traced layer pass over a workload's queries: front end, Optimize
/// plus phase replay, evaluation of input / plan / candidates, e-graph
/// saturation on the paper and kolaload queries, and (unless the workload
/// already drove a server) a short serve probe.
void LayerPass(const World& world, const std::vector<QueryText>& corpus,
               bool serve_probe, Tracer* tracer, LayerCounters* counters,
               RunResult* out) {
  Optimizer optimizer(&world.properties, world.db.get());
  std::vector<PlanRow> rows;
  int64_t kept = 0;
  std::vector<double> est_ratios;
  int64_t request = 1'000'000;
  for (const QueryText& q : corpus) {
    ++request;
    ScopedSpan root(tracer, "layer_pass.query", request);
    StatusOr<TermPtr> input = FrontEnd(q, tracer, request);
    if (!input.ok()) continue;
    if (q.language != QueryLanguage::kKola) {
      StatusOr<aqua::ExprPtr> expr = q.language == QueryLanguage::kOql
                                         ? oql::ParseOql(q.text)
                                         : aqua::ParseAqua(q.text);
      if (expr.ok()) {
        StatusOr<TranslationSizes> sizes = MeasureTranslation(expr.value());
        if (sizes.ok()) counters->size_ratios.push_back(sizes->ratio());
      }
    }
    StatusOr<OptimizeResult> result =
        OptimizeAndReplay(world, input.value(), tracer, request, counters);
    if (!result.ok()) continue;
    PlanRow row =
        CheckPlan(q.name, *world.db, input.value(), result.value(), tracer);
    if (!row.ok) continue;
    if (row.kept) ++kept;
    const double chosen_cost = row.kept ? row.cost_after : row.cost_before;
    if (row.cost_before > 0 && chosen_cost > 0) {
      est_ratios.push_back(chosen_cost / row.cost_before);
    }
    if (row.rewritten_differs) {
      NoteRank(row.cost_after, row.rewritten_ticks, row.cost_before,
               row.input_ticks, counters);
    }
    if (q.name.rfind("gen", 0) != 0) {
      EGraphProbe(optimizer, *world.db, input.value(), result.value(),
                  row.input_ticks, tracer, request, counters);
    }
    rows.push_back(std::move(row));
  }

  MetricMap& m = out->per_layer;
  const int64_t n = static_cast<int64_t>(rows.size());
  int64_t plan_ticks = 0, input_ticks = 0, fastpath_hits = 0;
  for (const PlanRow& row : rows) {
    plan_ticks += row.plan_ticks;
    input_ticks += row.input_ticks;
    fastpath_hits += row.fastpath_hits;
  }
  Put(&m, "eval.plan_ticks", static_cast<double>(plan_ticks), "ticks", n);
  Put(&m, "eval.input_ticks", static_cast<double>(input_ticks), "ticks", n);
  Put(&m, "eval.fastpath_hits", static_cast<double>(fastpath_hits), "count",
      n);
  Put(&m, "optimizer.plans", static_cast<double>(n), "count", n);
  Put(&m, "optimizer.kept_share",
      n > 0 ? static_cast<double>(kept) / static_cast<double>(n) : 0,
      "ratio", n);
  Put(&m, "optimizer.est_cost_ratio", GeoMean(est_ratios), "ratio",
      static_cast<int64_t>(est_ratios.size()));
  if (serve_probe) ServeProbe(world, corpus, tracer, counters);
}

/// Per-layer metrics from the traced run's spans and counters.
void LayerMetrics(const std::vector<const Tracer*>& tracers,
                  const LayerCounters& c, RunResult* out) {
  auto durations = [&](const char* name) {
    std::vector<double> all;
    for (const Tracer* t : tracers) {
      std::vector<double> d = t->DurationsUs(name);
      all.insert(all.end(), d.begin(), d.end());
    }
    return all;
  };
  MetricMap& m = out->per_layer;
  PutDurations(&m, "oql.parse_us", durations("oql.parse"));
  PutDurations(&m, "aqua.parse_us", durations("aqua.parse"));
  PutDurations(&m, "term.parse_us", durations("term.parse"));
  PutDurations(&m, "translate.us", durations("translate"));
  double max_ratio = 0;
  for (double r : c.size_ratios) max_ratio = std::max(max_ratio, r);
  Put(&m, "translate.size_ratio", max_ratio, "ratio",
      static_cast<int64_t>(c.size_ratios.size()));
  PutDurations(&m, "rules.catalog_us", durations("rules.catalog"));
  PutDurations(&m, "rules.block_build_us", durations("rules.block_build"));
  PutDurations(&m, "coko.simplify_us", durations("coko.simplify"));
  PutDurations(&m, "optimizer.code_motion_us",
               durations("optimizer.code_motion"));
  PutDurations(&m, "optimizer.hidden_join_us",
               durations("optimizer.hidden_join"));
  PutDurations(&m, "optimizer.explore_us", durations("optimizer.explore"));
  PutDurations(&m, "optimizer.cost_us", durations("optimizer.cost"));
  PutDurations(&m, "optimizer.optimize_us", durations("optimizer.optimize"));
  PutDurations(&m, "optimizer.unattributed_us", c.unattributed_us);
  Put(&m, "optimizer.degraded", static_cast<double>(c.degraded), "count",
      c.optimizes);
  Put(&m, "rewrite.firings",
      c.optimizes > 0 ? static_cast<double>(c.firings) /
                            static_cast<double>(c.optimizes)
                      : 0,
      "count", c.optimizes);
  RuleIndexCacheStats index = GetRuleIndexCacheStats();
  Put(&m, "rewrite.index_hits",
      static_cast<double>(index.hits - c.index_before.hits), "count",
      c.optimizes);
  Put(&m, "rewrite.index_misses",
      static_cast<double>(index.misses - c.index_before.misses), "count",
      c.optimizes);
  Put(&m, "optimizer.rank_agreement",
      c.rank_pairs > 0 ? static_cast<double>(c.concordant - c.discordant) /
                             static_cast<double>(c.rank_pairs)
                       : 0,
      "tau", c.rank_pairs);
  PutDurations(&m, "eval.plan_us", durations("eval.plan"));
  PutDurations(&m, "egraph.saturate_us", durations("egraph.saturate"));
  Put(&m, "egraph.nodes",
      c.egraph_runs > 0 ? static_cast<double>(c.egraph_nodes) /
                              static_cast<double>(c.egraph_runs)
                        : 0,
      "count", c.egraph_runs);
  Put(&m, "egraph.plan_tick_ratio", GeoMean(c.egraph_tick_ratios), "ratio",
      static_cast<int64_t>(c.egraph_tick_ratios.size()));
  PutDurations(&m, "values.world_build_us", durations("values.world_build"));
  PutDurations(&m, "service.hit_us", c.hit_us);
  PutDurations(&m, "service.miss_us", c.miss_us);
  Put(&m, "service.hit_ratio",
      c.q_requests > 0 ? static_cast<double>(c.q_hits) /
                             static_cast<double>(c.q_requests)
                       : 0,
      "ratio", c.q_requests);
  Put(&m, "service.shed", static_cast<double>(c.shed), "count", c.q_requests);
  Put(&m, "plan_cache.evictions", static_cast<double>(c.evictions), "count",
      c.q_requests);
  PutDurations(&m, "server.overhead_us", c.overhead_us);
}

/// Tracing overhead: the same loop, untraced then traced, in one process.
/// `overhead_ratio` is traced time per op over untraced time per op.
void PutTraceOverhead(double traced_ops_per_s, double overhead_ratio,
                      int64_t traced_ops, RunResult* out) {
  Put(&out->per_layer, "trace.ops_per_s", traced_ops_per_s, "1/s",
      traced_ops);
  Put(&out->per_layer, "trace.overhead_ratio", overhead_ratio, "ratio",
      traced_ops);
}

/// Overhead ratio for a loop that cycles a heterogeneous corpus: the two
/// halves cover different slices of it, so raw ops/s would compare
/// different work. Compares per-query median latencies instead, summed
/// over the queries both halves reached.
double PairedOverhead(const std::vector<double>& latency_us,
                      const std::vector<size_t>& op_query, size_t split,
                      size_t queries) {
  std::vector<std::vector<double>> untraced(queries), traced(queries);
  for (size_t i = 0; i < latency_us.size(); ++i) {
    (i < split ? untraced : traced)[op_query[i]].push_back(latency_us[i]);
  }
  double untraced_sum = 0, traced_sum = 0;
  for (size_t q = 0; q < queries; ++q) {
    if (untraced[q].empty() || traced[q].empty()) continue;
    untraced_sum += Median(untraced[q]);
    traced_sum += Median(traced[q]);
  }
  return untraced_sum > 0 ? traced_sum / untraced_sum : 0;
}

Status FinishTrace(const RunConfig& config,
                   const std::vector<const Tracer*>& tracers,
                   RunResult* out) {
  const std::string path = std::string(kSpanDir) + "/spans-" +
                           config.workload + "-" +
                           std::to_string(config.seed) + ".jsonl";
  KOLA_RETURN_IF_ERROR(WriteSpans(path, tracers));
  int64_t spans = 0;
  for (const Tracer* t : tracers) {
    spans += static_cast<int64_t>(t->spans().size());
  }
  out->report.push_back("note spans " + std::to_string(spans) +
                        " written to " + path);
  return Status::OK();
}

/// setup_s: the median of the set-up repeats.
void PutSetup(const std::vector<double>& setup_s, RunResult* out) {
  Put(&out->end_to_end, "setup_s", Median(setup_s), "s",
      static_cast<int64_t>(setup_s.size()));
}

/// Peak RSS after set-up plus a fixed amount of loop work (the whole run
/// when the loop did less).
class RssProbe {
 public:
  explicit RssProbe(int64_t after_ops) : after_ops_(after_ops) {}
  /// Cheap until the threshold; thread-safe.
  void Note(int64_t ops_done) {
    if (ops_done < after_ops_ || taken_.exchange(true)) return;
    mb_.store(PeakRssMb());
    ops_.store(ops_done);
  }
  void Put(RunResult* out) {
    if (!taken_.exchange(true)) {
      mb_.store(PeakRssMb());
      ops_.store(-1);
    }
    out->end_to_end["peak_rss_mb"] = Metric{mb_.load(), "MB", 1};
    out->report.push_back(
        ops_.load() < 0
            ? "note peak_rss_mb read at the end of the run (loop did fewer "
              "than " + std::to_string(after_ops_) + " ops)"
            : "note peak_rss_mb read after " + std::to_string(ops_.load()) +
                  " loop ops");
  }

 private:
  const int64_t after_ops_;
  std::atomic<bool> taken_{false};
  std::atomic<double> mb_{0};
  std::atomic<int64_t> ops_{0};
};

// ------------------------------------------------------------ compile

/// One timed text -> plan loop over whole passes. Plans' stable hashes are
/// recorded per op for the determinism check after the loop.
struct CompileLoop {
  std::vector<double> latency_us;
  std::vector<size_t> op_query;                          // per op
  std::vector<size_t> op_pass;                           // per op
  std::vector<std::pair<size_t, uint64_t>> plan_hashes;  // (query, hash)
  std::vector<TermPtr> first_plan;                       // per query
  std::vector<std::optional<OptimizeResult>> first_result;
  int64_t failed = 0;
  double wall_s = 0;
};

void RunCompileLoop(const std::vector<QueryText>& corpus,
                    const Optimizer& optimizer, double seconds,
                    bool plant_refused, Tracer* tracer, size_t* cursor,
                    LayerCounters* counters, RssProbe* rss,
                    CompileLoop* loop) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  bool refused_pending = plant_refused;
  int64_t request = static_cast<int64_t>(loop->latency_us.size());
  do {
    // The planted refused op takes no corpus slot.
    const size_t pass = *cursor / corpus.size();
    const size_t q = refused_pending ? 0 : (*cursor)++ % corpus.size();
    QueryText text = corpus[q];
    if (refused_pending) {
      text.text = "select from where";  // refused: does not parse
      refused_pending = false;
    }
    ++request;
    const int64_t t0 = NowNs();
    StatusOr<OptimizeResult> result = [&]() -> StatusOr<OptimizeResult> {
      ScopedSpan span(tracer, "compile", request);
      KOLA_ASSIGN_OR_RETURN(TermPtr input, FrontEnd(text, tracer, request));
      ScopedSpan optimize(tracer, "optimizer.optimize", request);
      return optimizer.Optimize(input);
    }();
    loop->latency_us.push_back(Micros(NowNs() - t0));
    loop->op_query.push_back(q);
    loop->op_pass.push_back(pass);
    rss->Note(static_cast<int64_t>(loop->latency_us.size()));
    if (!result.ok()) {
      ++loop->failed;
      continue;
    }
    if (counters != nullptr) NoteOptimize(result.value(), counters);
    loop->plan_hashes.emplace_back(q, result->query->stable_hash());
    if (loop->first_plan[q] == nullptr) {
      loop->first_plan[q] = result->query;
      loop->first_result[q] = std::move(result).value();
    }
    // Only whole passes over the corpus: a window cut mid-pass would
    // weigh the queries unevenly.
  } while (NowNs() < deadline || *cursor % corpus.size() != 0);
  loop->wall_s += Seconds(NowNs() - start);
}

}  // namespace

RunResult RunCompile(const RunConfig& config) {
  RunResult out;
  Tracer setup_tracer;
  std::vector<double> setup_s;
  World world;
  std::vector<QueryText> corpus;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    world = BuildWorld(config.seed, &setup_tracer);
    corpus = BuildCorpus(config.seed, *world.db);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  Optimizer optimizer(&world.properties, world.db.get());

  RssProbe rss(kRssAfterCompileOps);
  CompileLoop loop;
  loop.first_plan.resize(corpus.size());
  loop.first_result.resize(corpus.size());
  size_t cursor = 0;
  Tracer tracer;
  LayerCounters counters;
  counters.index_before = GetRuleIndexCacheStats();
  if (!config.trace) {
    RunCompileLoop(corpus, optimizer, config.seconds, config.plant, nullptr,
                   &cursor, nullptr, &rss, &loop);
    // Windows are corpus passes, so every window holds the same mix.
    std::vector<TimedOp> ops;
    std::vector<double> pass_seconds;
    for (size_t i = 0; i < loop.latency_us.size(); ++i) {
      ops.push_back({loop.latency_us[i],
                     static_cast<int64_t>(loop.op_query[i]), loop.op_pass[i]});
      if (pass_seconds.size() <= loop.op_pass[i]) {
        pass_seconds.resize(loop.op_pass[i] + 1, 0);
      }
      pass_seconds[loop.op_pass[i]] += loop.latency_us[i] / 1e6;
    }
    PutQuietLatency(&out.end_to_end, ops, pass_seconds);
  } else {
    RunCompileLoop(corpus, optimizer, config.seconds / 2, config.plant,
                   nullptr, &cursor, nullptr, &rss, &loop);
    const size_t split = loop.latency_us.size();
    const double untraced_wall = loop.wall_s;
    RunCompileLoop(corpus, optimizer, config.seconds / 2, false, &tracer,
                   &cursor, &counters, &rss, &loop);
    const size_t traced_ops = loop.latency_us.size() - split;
    PutTraceOverhead(traced_ops / (loop.wall_s - untraced_wall),
                     PairedOverhead(loop.latency_us, loop.op_query, split,
                                    corpus.size()),
                     static_cast<int64_t>(traced_ops), &out);
  }
  out.attempted = static_cast<int64_t>(loop.latency_us.size());
  out.failed = loop.failed;

  // Oracle, outside the timed loop: every op's plan equals its query's
  // first plan, and that plan's answer equals the naive evaluation of the
  // unoptimized input.
  if (config.plant && loop.first_result[0].has_value()) {
    StatusOr<TermPtr> wrong = ParseQuery("V");
    KOLA_CHECK_OK(wrong.status());
    loop.first_result[0]->query = wrong.value();
    loop.first_plan[0] = wrong.value();
  }
  for (const auto& [q, hash] : loop.plan_hashes) {
    if (hash != loop.first_plan[q]->stable_hash()) ++out.wrong_answers;
  }
  std::vector<PlanRow> rows;
  for (size_t q = 0; q < corpus.size(); ++q) {
    if (!loop.first_result[q].has_value()) continue;
    StatusOr<TermPtr> input = FrontEnd(corpus[q], nullptr, 0);
    KOLA_CHECK_OK(input.status());
    rows.push_back(CheckPlan(corpus[q].name, *world.db, input.value(),
                             *loop.first_result[q], nullptr));
  }
  SummarizePlans(rows, &out);
  PutSetup(setup_s, &out);

  if (config.trace) {
    LayerPass(world, corpus, true, &tracer, &counters, &out);
    LayerMetrics({&tracer, &setup_tracer}, counters, &out);
    KOLA_CHECK_OK(FinishTrace(config, {&tracer, &setup_tracer}, &out));
  }
  rss.Put(&out);
  return out;
}

// ------------------------------------------------------------ serve

namespace {

enum class ServeKind { kWarm, kNovel, kBump, kPlanted };

struct ServeRecord {
  ServeKind kind = ServeKind::kWarm;
  int64_t shape = 0;  // warm pool index or novel unique number
  bool ok = false;
  bool hit = false;
  double rtt_us = 0;
  int64_t done_ns = 0;  // completion time
  int64_t server_usec = 0;
  uint64_t payload_hash = 0;
};

struct ServeClientLog {
  std::vector<ServeRecord> records;
  Tracer tracer;
};

/// When the serve workload's catalog changes. A BUMP invalidates the plan
/// cache; client 0 sends the next one once every warm-pool shape has been
/// answered again since the last one was acknowledged, so each BUMP is
/// followed by one full re-warm of the pool. Answers to requests sent
/// before the last acknowledgement do not count.
class BumpCadence {
 public:
  explicit BumpCadence(size_t shapes) : answered_in_(shapes, -1) {}

  int64_t epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }
  /// Warm shape `shape` was answered to a request sent in `sent_epoch`.
  void Answered(size_t shape, int64_t sent_epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (sent_epoch != epoch_ || answered_in_[shape] == epoch_) return;
    answered_in_[shape] = epoch_;
    ++answered_;
  }
  /// Every warm shape has been answered since the last BUMP.
  bool Due() const {
    std::lock_guard<std::mutex> lock(mu_);
    return answered_ == answered_in_.size();
  }
  /// A BUMP was answered: a new epoch starts.
  void Bumped() {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
    answered_ = 0;
  }

 private:
  mutable std::mutex mu_;
  int64_t epoch_ = 0;
  std::vector<int64_t> answered_in_;  // per shape: last epoch answered in
  size_t answered_ = 0;               // shapes answered in this epoch
};

/// What the serve clients share: the server, the shape pool, the BUMP
/// cadence, and the run-wide novel-shape and request counters.
struct ServeShared {
  ServeShared(int port, const std::vector<QueryText>* pool,
              const std::vector<QueryText>* templates, RssProbe* rss)
      : port(port),
        pool(pool),
        templates(templates),
        rss(rss),
        cadence(pool->size()) {}

  const int port;
  const std::vector<QueryText>* const pool;
  const std::vector<QueryText>* const templates;
  RssProbe* const rss;
  BumpCadence cadence;
  std::atomic<int64_t> next_novel{0};
  std::atomic<int64_t> requests{0};
};

/// One closed-loop client connection.
void ServeClient(ServeShared* shared, Rng rng, int client,
                 int64_t deadline_ns, bool plant_refused, bool traced,
                 ServeClientLog* log) {
  const std::vector<QueryText>& pool = *shared->pool;
  LineClient conn;
  if (!conn.Connect(shared->port).ok()) {
    log->records.push_back(ServeRecord{});
    return;
  }
  Tracer* tracer = traced ? &log->tracer : nullptr;
  for (int64_t k = 0; NowNs() < deadline_ns; ++k) {
    ServeRecord record;
    std::string line;
    if (plant_refused && k == 0) {
      record.kind = ServeKind::kPlanted;
      line = "Q platinum kola P";  // refused: unknown tier
    } else if (client == 0 && shared->cadence.Due()) {
      record.kind = ServeKind::kBump;
      line = "BUMP";
    } else if (rng.NextDouble() < kNovelShare) {
      record.kind = ServeKind::kNovel;
      record.shape = shared->next_novel.fetch_add(1);
      line = RequestLine("Q", NovelShape(*shared->templates, record.shape));
    } else {
      record.kind = ServeKind::kWarm;
      record.shape = static_cast<int64_t>(rng.Index(pool.size()));
      line = RequestLine("Q", pool[static_cast<size_t>(record.shape)]);
    }
    const int64_t epoch = shared->cadence.epoch();
    const int64_t t0 = NowNs();
    StatusOr<std::string> response = [&] {
      ScopedSpan span(tracer, "serve.request",
                      static_cast<int64_t>(client) << 40 | k);
      return conn.Request(line);
    }();
    record.done_ns = NowNs();
    record.rtt_us = Micros(record.done_ns - t0);
    if (response.ok()) {
      if (record.kind == ServeKind::kBump) {
        record.ok = response->rfind("OK version=", 0) == 0;
        shared->cadence.Bumped();
      } else {
        QResponse q = ParseQResponse(response.value());
        record.ok = q.ok;
        record.hit = q.hit;
        record.server_usec = q.server_usec;
        record.payload_hash = Fnv1a(q.payload);
        if (q.ok && record.kind == ServeKind::kWarm) {
          shared->cadence.Answered(static_cast<size_t>(record.shape), epoch);
        }
      }
    }
    log->records.push_back(record);
    shared->rss->Note(shared->requests.fetch_add(1) + 1);
    if (!response.ok()) break;  // connection lost: stop this client
  }
}

struct ServeSession {
  std::vector<ServeClientLog> logs;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double wall_s = 0;
};

ServeSession RunServeSession(ServeShared* shared, uint64_t seed, int64_t salt,
                             double seconds, bool plant_refused,
                             bool traced) {
  constexpr int kClients = 2;
  ServeSession session;
  session.logs.resize(kClients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    Rng rng = Rng(seed).Child(static_cast<uint64_t>(100 + salt * 10 + c));
    threads.emplace_back(ServeClient, shared, rng, c, deadline,
                         plant_refused && c == 0, traced, &session.logs[c]);
  }
  for (std::thread& t : threads) t.join();
  session.start_ns = start;
  session.end_ns = NowNs();
  session.wall_s = Seconds(session.end_ns - start);
  return session;
}

size_t ServeWindows(const ServeSession& session) {
  return std::max<size_t>(
      static_cast<size_t>((session.end_ns - session.start_ns) /
                          kServeWindowNs),
      1);
}

/// Serve windows are fixed slices of wall time, by completion; the
/// trailing partial slice joins the last whole one.
std::vector<double> ServeWindowSeconds(const ServeSession& session) {
  const size_t count = ServeWindows(session);
  std::vector<double> seconds(count, Seconds(kServeWindowNs));
  seconds.back() = Seconds(session.end_ns - session.start_ns -
                           static_cast<int64_t>(count - 1) * kServeWindowNs);
  return seconds;
}

/// The session's round trips as timed ops. Requests of one class do the
/// same work: same kind, same warm shape or novel template, same cache
/// outcome.
std::vector<TimedOp> ServeOps(const ServeSession& session, size_t templates) {
  const size_t count = ServeWindows(session);
  std::vector<TimedOp> ops;
  for (const ServeClientLog& log : session.logs) {
    for (const ServeRecord& r : log.records) {
      const int64_t shape = r.kind == ServeKind::kNovel
                                ? r.shape % static_cast<int64_t>(templates)
                                : r.shape;
      const int64_t op_class =
          (static_cast<int64_t>(r.kind) << 32 | shape) << 1 | (r.hit ? 1 : 0);
      const size_t window = std::min(
          static_cast<size_t>((r.done_ns - session.start_ns) / kServeWindowNs),
          count - 1);
      ops.push_back({r.rtt_us, op_class, window});
    }
  }
  return ops;
}

/// The request mix the first session actually saw: the hit ratio of its Q
/// requests, how often BUMPs came, and the share of client round-trip time
/// spent on cache misses.
std::string ServeMixNote(const ServeSession& session) {
  int64_t requests = 0, q_requests = 0, hits = 0, bumps = 0;
  double total_us = 0, miss_us = 0;
  for (const ServeClientLog& log : session.logs) {
    for (const ServeRecord& r : log.records) {
      ++requests;
      total_us += r.rtt_us;
      if (r.kind == ServeKind::kBump) ++bumps;
      const bool q_request =
          r.kind == ServeKind::kWarm || r.kind == ServeKind::kNovel;
      if (!r.ok || !q_request) continue;
      ++q_requests;
      if (r.hit) {
        ++hits;
      } else {
        miss_us += r.rtt_us;
      }
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "note serve mix: %lld requests, %lld BUMPs (one per %.0f "
                "requests), hit_ratio %.4f, misses take %.4f of round-trip "
                "time",
                static_cast<long long>(requests),
                static_cast<long long>(bumps),
                bumps > 0 ? static_cast<double>(requests) /
                                static_cast<double>(bumps)
                          : 0.0,
                q_requests > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(q_requests)
                               : 0.0,
                total_us > 0 ? miss_us / total_us : 0.0);
  return buf;
}

}  // namespace

RunResult RunServe(const RunConfig& config) {
  RunResult out;
  Tracer setup_tracer;
  std::vector<double> setup_s;
  World world;
  std::vector<QueryText> pool;
  std::vector<QueryText> templates;
  std::unique_ptr<ServeStack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const int64_t t0 = NowNs();
    world = BuildWorld(config.seed, &setup_tracer);
    pool = BuildCorpus(config.seed, *world.db);
    templates = NovelTemplates();
    stack = StartServeStack(world);
    // Warm the shape pool: one request per shape fills the plan cache.
    LineClient warm;
    KOLA_CHECK_OK(warm.Connect(stack->server->port()));
    for (const QueryText& q : pool) {
      StatusOr<std::string> r = warm.Request(RequestLine("Q", q));
      KOLA_CHECK(r.ok() && ParseQResponse(r.value()).ok);
    }
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  const int port = stack->server->port();

  RssProbe rss(kRssAfterServeRequests);
  ServeShared shared(port, &pool, &templates, &rss);
  std::vector<ServeSession> sessions;
  LayerCounters counters;
  counters.index_before = GetRuleIndexCacheStats();
  if (!config.trace) {
    sessions.push_back(RunServeSession(&shared, config.seed, 0,
                                       config.seconds, config.plant, false));
  } else {
    sessions.push_back(RunServeSession(&shared, config.seed, 0,
                                       config.seconds / 2, config.plant,
                                       false));
    sessions.push_back(RunServeSession(&shared, config.seed, 1,
                                       config.seconds / 2, false, true));
  }

  int64_t warm_requests = 0;
  for (const ServeSession& s : sessions) {
    for (const ServeClientLog& log : s.logs) {
      for (const ServeRecord& r : log.records) {
        ++out.attempted;
        if (!r.ok) ++out.failed;
        if (r.kind == ServeKind::kWarm) ++warm_requests;
      }
    }
  }
  out.report.push_back(ServeMixNote(sessions[0]));
  if (!config.trace) {
    PutQuietLatency(&out.end_to_end, ServeOps(sessions[0], templates.size()),
                    ServeWindowSeconds(sessions[0]));
  } else {
    auto ops = [](const ServeSession& s) {
      int64_t n = 0;
      for (const ServeClientLog& log : s.logs) n += log.records.size();
      return n;
    };
    const double untraced_ops_per_s = ops(sessions[0]) / sessions[0].wall_s;
    const double traced_ops_per_s = ops(sessions[1]) / sessions[1].wall_s;
    PutTraceOverhead(traced_ops_per_s, untraced_ops_per_s / traced_ops_per_s,
                     ops(sessions[1]), &out);
    for (const ServeClientLog& log : sessions[1].logs) {
      for (const ServeRecord& r : log.records) {
        if (!r.ok || r.kind == ServeKind::kBump) continue;
        (r.hit ? counters.hit_us : counters.miss_us)
            .push_back(static_cast<double>(r.server_usec));
        counters.overhead_us.push_back(r.rtt_us -
                                       static_cast<double>(r.server_usec));
        ++counters.q_requests;
        if (r.hit) ++counters.q_hits;
      }
    }
    ServiceStats stats = stack->service->stats();
    counters.shed = static_cast<int64_t>(stats.shed);
    counters.evictions = static_cast<int64_t>(stats.cache.evictions);
  }

  // Oracle, outside the timed loop. Reference payload per shape: an
  // in-process optimization rendered like the protocol. Every warm answer
  // and the first kNovelChecked novel answers must equal it; each checked
  // shape's Q and cache-bypassing F answers, asked again now, must too.
  Optimizer reference_optimizer(&world.properties, world.db.get());
  LineClient control;
  KOLA_CHECK_OK(control.Connect(port));
  auto reference = [&](const QueryText& q, std::vector<PlanRow>* rows)
      -> std::optional<std::string> {
    StatusOr<TermPtr> input = FrontEnd(q, nullptr, 0);
    if (!input.ok()) return std::nullopt;
    RetryOutcome outcome = OptimizeLikeService(reference_optimizer,
                                               input.value());
    if (!outcome.ok() || !outcome.result.has_value()) return std::nullopt;
    if (rows != nullptr) {
      rows->push_back(CheckPlan(q.name, *world.db, input.value(),
                                *outcome.result, nullptr));
    }
    return RenderPayload(*outcome.result, outcome.report);
  };
  auto live_matches = [&](const QueryText& q, const std::string& expected) {
    for (const char* verb : {"Q", "F"}) {
      StatusOr<std::string> line = control.Request(RequestLine(verb, q));
      if (!line.ok()) return false;
      QResponse r = ParseQResponse(line.value());
      if (!r.ok || r.payload != expected) return false;
    }
    return true;
  };

  std::vector<PlanRow> rows;
  std::vector<uint64_t> pool_hash(pool.size(), 0);
  for (size_t s = 0; s < pool.size(); ++s) {
    std::optional<std::string> expected = reference(pool[s], &rows);
    ++out.checked;
    if (!expected.has_value() || !live_matches(pool[s], *expected)) {
      ++out.wrong_answers;
      continue;
    }
    pool_hash[s] = Fnv1a(*expected);
  }
  std::vector<std::pair<int64_t, uint64_t>> novel_seen;  // (shape, hash)
  bool planted_wrong = !config.plant;
  for (ServeSession& s : sessions) {
    for (ServeClientLog& log : s.logs) {
      for (ServeRecord& r : log.records) {
        if (!r.ok) continue;
        if (!planted_wrong && r.kind == ServeKind::kWarm) {
          r.payload_hash ^= 1;  // a corrupted answer the oracle must catch
          planted_wrong = true;
        }
        if (r.kind == ServeKind::kWarm) {
          ++out.checked;
          if (r.payload_hash != pool_hash[static_cast<size_t>(r.shape)]) {
            ++out.wrong_answers;
          }
        } else if (r.kind == ServeKind::kNovel &&
                   r.shape < kNovelChecked) {
          novel_seen.emplace_back(r.shape, r.payload_hash);
        }
      }
    }
  }
  for (const auto& [shape, hash] : novel_seen) {
    const QueryText q = NovelShape(templates, shape);
    std::optional<std::string> expected = reference(q, nullptr);
    ++out.checked;
    if (!expected.has_value() || Fnv1a(*expected) != hash ||
        !live_matches(q, *expected)) {
      ++out.wrong_answers;
    }
  }
  out.report.push_back(
      "note serve answers: " + std::to_string(warm_requests) +
      " warm checked, " + std::to_string(novel_seen.size()) + " of " +
      std::to_string(shared.next_novel.load()) + " novel checked");
  SummarizePlans(rows, &out);
  PutSetup(setup_s, &out);

  if (config.trace) {
    std::vector<const Tracer*> tracers = {&setup_tracer};
    for (const ServeSession& s : sessions) {
      for (const ServeClientLog& log : s.logs) tracers.push_back(&log.tracer);
    }
    Tracer pass_tracer;
    tracers.push_back(&pass_tracer);
    LayerPass(world, pool, false, &pass_tracer, &counters, &out);
    LayerMetrics(tracers, counters, &out);
    KOLA_CHECK_OK(FinishTrace(config, tracers, &out));
  }
  stack.reset();
  rss.Put(&out);
  return out;
}

}  // namespace bench
}  // namespace kola
