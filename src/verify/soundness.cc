#include "verify/soundness.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/fault_injection.h"
#include "common/governor.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "optimizer/optimizer.h"
#include "optimizer/retry.h"
#include "rewrite/properties.h"
#include "rewrite/types.h"
#include "verify/query_gen.h"

namespace kola {

// ---------------------------------------------------------------------------
// Configuration matrix
// ---------------------------------------------------------------------------

std::string PipelineConfig::Name() const {
  std::vector<std::string> parts;
  if (physical_fastpaths) parts.push_back("fast");
  if (rule_index) parts.push_back("index");
  if (egraph) parts.push_back("egraph");
  if (parts.empty()) return "plain";
  return Join(parts, "+");
}

StatusOr<PipelineConfig> ParsePipelineConfig(const std::string& name) {
  PipelineConfig config;
  config.physical_fastpaths = false;
  config.rule_index = false;
  config.egraph = false;
  if (name == "plain") return config;
  size_t start = 0;
  while (start <= name.size()) {
    size_t plus = name.find('+', start);
    std::string part = name.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    bool* feature = nullptr;
    if (part == "intern" || part == "memo") {
      return InvalidArgumentError(
          "pipeline feature '" + part + "' was removed from the engine; "
          "replay lines naming it no longer select a cell");
    }
    if (part == "fast") {
      feature = &config.physical_fastpaths;
    } else if (part == "index") {
      feature = &config.rule_index;
    } else if (part == "egraph") {
      feature = &config.egraph;
    } else {
      return InvalidArgumentError(
          "unknown pipeline feature '" + part +
          "' (expected fast, index, egraph, or the name 'plain')");
    }
    if (*feature) {
      return InvalidArgumentError("duplicate pipeline feature '" + part +
                                  "' in '" + name + "'");
    }
    *feature = true;
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return config;
}

std::vector<PipelineConfig> FullConfigMatrix() {
  std::vector<PipelineConfig> configs;
  for (bool fast : {false, true}) {
    for (bool index : {false, true}) {
      for (bool egraph : {false, true}) {
        configs.push_back(PipelineConfig{fast, index, egraph});
      }
    }
  }
  return configs;
}

Rule PlantedDropMapRule() {
  auto rule = MakeRule(
      "plant.drop-map",
      "TEST ONLY: deliberately unsound -- drops the projection of a map",
      "iterate(?p, ?f)", "iterate(?p, id)", Sort::kFunction);
  KOLA_CHECK_OK(rule.status());
  return std::move(rule).value();
}

// ---------------------------------------------------------------------------
// Term metrics and reductions
// ---------------------------------------------------------------------------

int TermDepth(const TermPtr& term) {
  int depth = 0;
  for (const TermPtr& child : term->children()) {
    depth = std::max(depth, 1 + TermDepth(child));
  }
  return depth;
}

namespace {

/// Appends every well-sorted term strictly smaller than `term` obtainable
/// by one local reduction: replacing any subterm with a same-sorted child
/// of it, with `id` (function slots), or with `Kp(T)` (predicate slots).
/// Candidates closest to the root come first, so the greedy shrinker tries
/// the biggest cuts first.
void CollectReductions(const TermPtr& term, std::vector<TermPtr>* out) {
  for (const TermPtr& child : term->children()) {
    if (child->sort() == term->sort()) out->push_back(child);
  }
  if (term->sort() == Sort::kFunction && term->node_count() > 1) {
    out->push_back(Id());
  }
  if (term->sort() == Sort::kPredicate && term->node_count() > 2) {
    out->push_back(ConstPredTrue());
  }
  for (size_t i = 0; i < term->arity(); ++i) {
    std::vector<TermPtr> reduced_child;
    CollectReductions(term->child(i), &reduced_child);
    for (TermPtr& replacement : reduced_child) {
      std::vector<TermPtr> children = term->children();
      children[i] = std::move(replacement);
      auto rebuilt = term->TryWithChildren(std::move(children));
      // An ill-sorted rebuild just means this reduction does not apply
      // here; skip it rather than abort (the whole point of
      // TryWithChildren).
      if (rebuilt.ok() && rebuilt.value()->node_count() < term->node_count()) {
        out->push_back(std::move(rebuilt).value());
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Divergence reporting
// ---------------------------------------------------------------------------

std::string Divergence::ReplayCommand() const {
  std::string cmd = "kolaverify --replay '" + query->ToString() +
                    "' --world-seed " + std::to_string(world_seed) +
                    " --world-scale " + std::to_string(world_scale) +
                    " --config " + config.Name();
  if (planted) cmd += " --plant-unsound";
  if (deadline_ms > 0) cmd += " --deadline-ms " + std::to_string(deadline_ms);
  if (memory_budget_bytes > 0) {
    cmd += " --memory-budget " + std::to_string(memory_budget_bytes);
  }
  if (retries > 0) cmd += " --retries " + std::to_string(retries);
  if (!fault_spec.empty()) {
    cmd += " --faults '" + fault_spec + "' --fault-seed " +
           std::to_string(fault_stream);
  }
  return cmd;
}

std::string Divergence::Report() const {
  std::string report =
      "UNSOUND: optimized plan disagrees with the original query\n";
  report += "  query:     " + query->ToString() + "\n";
  report += "  optimized: " + optimized->ToString() + "\n";
  report += "  world:     seed=" + std::to_string(world_seed) +
            " scale=" + std::to_string(world_scale) + "\n";
  report += "  config:    " + config.Name() + "\n";
  report += "  rules:     " +
            (rule_trace.empty() ? std::string("(none fired)")
                                : Join(rule_trace, ", ")) +
            "\n";
  if (!fault_spec.empty()) {
    report += "  faults:    " + fault_spec +
              " stream=" + std::to_string(fault_stream) + "\n";
  }
  if (deadline_ms > 0) {
    report += "  deadline:  " + std::to_string(deadline_ms) + "ms\n";
  }
  if (memory_budget_bytes > 0) {
    report += "  memory:    " + std::to_string(memory_budget_bytes) +
              " bytes" +
              (retries > 0 ? " (+" + std::to_string(retries) + " retries)"
                           : std::string()) +
              "\n";
  }
  report += "  expected:  " + expected + "\n";
  report += "  actual:    " + actual + "\n";
  report += "  replay:    " + ReplayCommand() + "\n";
  if (!Term::Equal(query, original_query)) {
    report += "  shrunk from: " + original_query->ToString() + "\n";
  }
  return report;
}

std::string SoundnessReport::Summary() const {
  std::string summary =
      "soundness: " + std::to_string(trials) + " trials (" +
      std::to_string(evaluated) + " evaluated, " +
      std::to_string(gen_skipped) + " gen-skipped, " +
      std::to_string(eval_skipped) + " eval-skipped), " +
      std::to_string(config_runs) + " config cells, " +
      std::to_string(strictness) + " strictness diffs, " +
      std::to_string(degraded) + " degraded, " +
      (supervised ? std::to_string(retried) + " retried, " +
                        std::to_string(quarantined) + " quarantined, "
                  : std::string()) +
      std::to_string(cost_regressions) + " cost-regressions, " +
      std::to_string(failures.size()) + " divergences";
  summary += failures.empty() ? " -- CLEAN" : " -- UNSOUND";
  return summary;
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// What happened when one query ran through the pipeline under one config.
struct SoundnessHarness::RunOutcome {
  bool skipped = false;     // a step budget or deadline ran out; no verdict
  bool strictness = false;  // pipeline errored where the baseline did not
  bool degraded = false;    // optimizer stopped early; plan still checked
  bool retried = false;     // RetrySupervisor ran more than one attempt
  bool quarantined = false; // still degraded at the top of the escalation
  bool cost_regression = false;  // egraph cell costed more than greedy
  bool diverged = false;
  TermPtr optimized;
  std::string expected;
  std::string actual;
  std::vector<std::string> rule_trace;
};

SoundnessHarness::RunOutcome SoundnessHarness::RunConfig(
    const TermPtr& query, const Database& db, const PipelineConfig& config,
    uint64_t fault_stream) const {
  RunOutcome out;

  // Ground truth: the un-optimized query under the naive nested-loop
  // semantics. Fastpaths are part of what is being tested, so they stay
  // off here even when the config turns them on for the optimized side.
  // No governor and no faults: ground truth must not depend on wall clock
  // or on the injected chaos schedule.
  Evaluator baseline(
      &db, EvalOptions{.max_steps = options_.max_eval_steps,
                       .physical_fastpaths = false});
  auto expected = baseline.EvalObject(query);
  if (!expected.ok()) {
    out.skipped = true;
    return out;
  }

  // The optimizer section runs under this cell's own fault stream (the
  // spec was validated before the sweep started) and, when a deadline is
  // set, under a fresh per-stage Governor. A degraded pass is the whole
  // point of chaos testing: its best-so-far plan is still differentially
  // checked below, so an unsound degradation cannot hide as a skip.
  std::optional<FaultInjector> injector;
  if (!options_.fault_spec.empty()) {
    auto parsed = FaultInjector::Parse(options_.fault_spec, fault_stream);
    KOLA_CHECK_OK(parsed.status());
    injector.emplace(std::move(parsed).value());
  }
  ScopedFaultInjection faults(injector.has_value() ? &*injector : nullptr);
  std::optional<Governor> opt_governor;
  if (options_.deadline_ms > 0 || options_.memory_budget_bytes > 0) {
    Governor::Limits limits;
    limits.deadline_ms = options_.deadline_ms;
    limits.memory_budget_bytes = options_.memory_budget_bytes;
    opt_governor.emplace(limits);
  }

  PropertyStore properties = PropertyStore::Default();
  RewriterOptions engine_options;
  engine_options.use_rule_index = config.rule_index;
  engine_options.use_egraph = config.egraph;
  Optimizer optimizer(&properties, &db, engine_options);
  StatusOr<OptimizeResult> result = InternalError("unreached");
  if (options_.retries > 0 && options_.memory_budget_bytes > 0) {
    // Supervised path: memory-degraded passes re-run under escalated
    // budgets. The jitter key is the cell's fault stream -- already a pure
    // function of (seed, trial), so the escalation schedule is
    // jobs-invariant like everything else.
    RetryOptions retry;
    retry.memory_budget_bytes = options_.memory_budget_bytes;
    retry.deadline_ms = options_.deadline_ms;
    retry.max_attempts = options_.retries + 1;
    retry.seed = options_.seed;
    RetrySupervisor supervisor(&optimizer, retry);
    RetryOutcome supervised = supervisor.Optimize(query, fault_stream);
    out.retried = supervised.report.attempts > 1;
    out.quarantined = supervised.report.quarantined;
    if (supervised.ok()) {
      result = std::move(*supervised.result);
    } else {
      result = supervised.status;
    }
  } else {
    result = optimizer.Optimize(
        query, opt_governor.has_value() ? &*opt_governor : nullptr);
  }
  if (!result.ok()) {
    // Exhaustion and injected faults degrade inside Optimize; an error
    // escaping here means the pipeline was stricter than the baseline
    // (except for a residual exhaustion, which stays a skip).
    if (result.status().code() == StatusCode::kResourceExhausted) {
      out.skipped = true;
    } else {
      out.strictness = true;
    }
    return out;
  }
  out.degraded = result->degradation.degraded;

  // Egraph cells carry an extra promise beyond soundness: saturate-and-
  // extract ranks the greedy plan as a candidate, so the chosen plan must
  // never cost more than what the same cell produces with the e-graph off.
  // Only meaningful on unbudgeted, fault-free runs -- under chaos or a
  // budget the two pipelines can degrade at different points.
  if (config.egraph && options_.deadline_ms == 0 &&
      options_.memory_budget_bytes == 0 && options_.retries == 0 &&
      options_.fault_spec.empty()) {
    RewriterOptions greedy_options = engine_options;
    greedy_options.use_egraph = false;
    Optimizer greedy(&properties, &db, greedy_options);
    auto greedy_result = greedy.Optimize(query);
    if (greedy_result.ok()) {
      CostModel cost_model(&db);
      auto egraph_cost = cost_model.EstimateQueryCost(result->query);
      auto greedy_cost = cost_model.EstimateQueryCost(greedy_result->query);
      if (egraph_cost.ok() && greedy_cost.ok() &&
          egraph_cost.value() > greedy_cost.value()) {
        out.cost_regression = true;
      }
    }
  }

  std::vector<std::pair<TermPtr, std::vector<std::string>>> plans;
  std::vector<std::string> fired = result->trace.RuleIds();
  plans.emplace_back(result->rewritten, fired);
  if (!Term::Equal(result->query, result->rewritten)) {
    plans.emplace_back(result->query, fired);
  }
  // Planted rules model "this rule fired during optimization": one
  // application each, on top of the genuine pipeline output.
  for (const Rule& rule : options_.extra_rules) {
    RewriteStep step;
    auto after = optimizer.rewriter().ApplyOnce(rule, result->rewritten,
                                                &step);
    if (after.has_value()) {
      std::vector<std::string> trace = fired;
      trace.push_back(rule.id);
      plans.emplace_back(std::move(after).value(), std::move(trace));
    }
  }

  for (auto& [plan, trace] : plans) {
    // Every plan evaluation gets a fresh per-stage deadline: a pass that
    // degraded at the optimizer's deadline must still have its plan
    // checked, so the (sticky, possibly expired) optimizer governor is
    // never reused here. A deadline hit during this evaluation surfaces
    // as RESOURCE_EXHAUSTED and is classified as a skip below, exactly
    // like a step-budget skip.
    std::optional<Governor> eval_governor;
    if (options_.deadline_ms > 0 || options_.memory_budget_bytes > 0) {
      Governor::Limits limits;
      limits.deadline_ms = options_.deadline_ms;
      limits.memory_budget_bytes = options_.memory_budget_bytes;
      eval_governor.emplace(limits);
    }
    Evaluator eval(
        &db,
        EvalOptions{.max_steps = options_.max_eval_steps,
                    .physical_fastpaths = config.physical_fastpaths,
                    .governor = eval_governor.has_value() ? &*eval_governor
                                                          : nullptr});
    auto actual = eval.EvalObject(plan);
    if (!actual.ok()) {
      if (actual.status().code() == StatusCode::kResourceExhausted) {
        out.skipped = true;
      } else {
        out.strictness = true;
      }
      continue;
    }
    if (actual.value() == expected.value()) continue;
    out.diverged = true;
    out.optimized = plan;
    out.expected = expected.value().ToString();
    out.actual = actual.value().ToString();
    out.rule_trace = std::move(trace);
    return out;
  }
  return out;
}

Divergence SoundnessHarness::ShrinkDivergence(Divergence failure) const {
  RandomWorldOptions world;
  world.seed = failure.world_seed;
  world.scale = failure.world_scale;

  auto diverges = [&](const TermPtr& candidate,
                      const RandomWorldOptions& w,
                      RunOutcome* out) -> bool {
    auto db = BuildRandomWorld(w);
    // Replaying the divergence's own fault stream keeps the shrinker's
    // predicate aligned with the failure it is minimizing.
    *out = RunConfig(candidate, *db, failure.config, failure.fault_stream);
    return out->diverged;
  };
  auto adopt = [&failure](const TermPtr& candidate, RunOutcome out) {
    failure.query = candidate;
    failure.optimized = std::move(out.optimized);
    failure.expected = std::move(out.expected);
    failure.actual = std::move(out.actual);
    failure.rule_trace = std::move(out.rule_trace);
  };

  // Greedy first-improvement descent over local term reductions: adopt any
  // strictly smaller query that still diverges, until none does.
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<TermPtr> candidates;
    CollectReductions(failure.query, &candidates);
    for (const TermPtr& candidate : candidates) {
      RunOutcome out;
      if (!diverges(candidate, world, &out)) continue;
      adopt(candidate, std::move(out));
      improved = true;
      break;
    }
  }

  // Then shrink the database: smallest scale (same seed) that still shows
  // the divergence. Scale 0 forces every extent empty.
  for (int scale = 0; scale < world.scale; ++scale) {
    RandomWorldOptions smaller = world;
    smaller.scale = scale;
    RunOutcome out;
    if (!diverges(failure.query, smaller, &out)) continue;
    world = smaller;
    adopt(failure.query, std::move(out));
    break;
  }
  failure.world_scale = world.scale;
  return failure;
}

StatusOr<std::optional<Divergence>> SoundnessHarness::CheckQuery(
    const TermPtr& query, const RandomWorldOptions& world,
    const PipelineConfig& config) {
  if (!options_.fault_spec.empty()) {
    KOLA_RETURN_IF_ERROR(
        FaultInjector::Parse(options_.fault_spec, options_.fault_seed)
            .status());
  }
  auto db = BuildRandomWorld(world);
  // Replay uses fault_seed directly as the stream -- the seed a reported
  // ReplayCommand() carries in --fault-seed IS the cell's stream.
  RunOutcome out = RunConfig(query, *db, config, options_.fault_seed);
  if (!out.diverged) return std::optional<Divergence>();
  Divergence failure;
  failure.query = query;
  failure.original_query = query;
  failure.optimized = std::move(out.optimized);
  failure.world_seed = world.seed;
  failure.world_scale = world.scale;
  failure.config = config;
  failure.planted = !options_.extra_rules.empty();
  failure.expected = std::move(out.expected);
  failure.actual = std::move(out.actual);
  failure.rule_trace = std::move(out.rule_trace);
  failure.deadline_ms = options_.deadline_ms;
  failure.memory_budget_bytes = options_.memory_budget_bytes;
  failure.retries = options_.retries;
  failure.fault_spec = options_.fault_spec;
  failure.fault_stream = options_.fault_seed;
  if (options_.shrink) failure = ShrinkDivergence(std::move(failure));
  return std::optional<Divergence>(std::move(failure));
}

/// Everything one trial produced, computed without touching shared state so
/// trials can run on any worker in any order. The fold back into the report
/// happens strictly in trial order.
struct SoundnessHarness::TrialOutcome {
  bool gen_skipped = false;
  bool eval_skipped = false;
  uint64_t world_seed = 0;
  int world_scale = 0;
  uint64_t fault_stream = 0;  // this trial's fault stream seed
  TermPtr query;
  std::vector<RunOutcome> cells;  // one per config, in options_.configs order
};

SoundnessHarness::TrialOutcome SoundnessHarness::RunTrial(int trial) const {
  TrialOutcome outcome;
  // Child(trial) is the whole parallel-determinism story: trial K's
  // randomness (world seed, query) depends only on (options.seed, K), so a
  // reported repro seed stays valid whether the sweep that found it ran
  // with --jobs 1 or --jobs 32, and --replay never needs to re-run the
  // preceding K-1 trials.
  Rng trial_rng = Rng(options_.seed).Child(static_cast<uint64_t>(trial));
  uint64_t world_seed = static_cast<uint64_t>(
      trial_rng.Uniform(0, std::numeric_limits<int64_t>::max()));
  RandomWorldOptions world = RandomWorldOptions::FromSeed(world_seed);
  outcome.world_seed = world.seed;
  outcome.world_scale = world.scale;
  // The trial's fault stream is a child of fault_seed alone (same
  // parallel-determinism contract as the query randomness above), so a
  // chaos sweep's fault schedule never depends on jobs or trial order.
  outcome.fault_stream =
      Rng(options_.fault_seed).Child(static_cast<uint64_t>(trial)).Next();
  auto db = BuildRandomWorld(world);

  SchemaTypes schema = SchemaTypes::CarWorld();
  Rng query_rng = trial_rng.Fork();
  QueryGenerator generator(&schema, db.get(), &query_rng,
                           QueryGenOptions{.max_depth = options_.gen_depth});
  auto query = generator.RandomQuery();
  if (!query.ok()) {
    outcome.gen_skipped = true;
    return outcome;
  }
  outcome.query = query.value();

  // One cheap un-instrumented probe so trials whose baseline cannot
  // evaluate (runtime type error, step budget) are classified once
  // instead of once per config.
  Evaluator probe(db.get(),
                  EvalOptions{.max_steps = options_.max_eval_steps,
                              .physical_fastpaths = false});
  if (!probe.EvalObject(query.value()).ok()) {
    outcome.eval_skipped = true;
    return outcome;
  }

  outcome.cells.reserve(options_.configs.size());
  for (const PipelineConfig& config : options_.configs) {
    outcome.cells.push_back(
        RunConfig(query.value(), *db, config, outcome.fault_stream));
  }
  return outcome;
}

StatusOr<SoundnessReport> SoundnessHarness::Run() {
  // Surface a malformed fault spec once, up front, instead of aborting
  // inside a worker mid-sweep.
  if (!options_.fault_spec.empty()) {
    KOLA_RETURN_IF_ERROR(
        FaultInjector::Parse(options_.fault_spec, options_.fault_seed)
            .status());
  }
  SoundnessReport report;
  report.supervised =
      options_.retries > 0 && options_.memory_budget_bytes > 0;
  const int jobs = std::max(1, options_.jobs);
  // Trials are dispatched in chunks; after each chunk the outcomes fold
  // into the report in trial order, replicating the serial early-stop at
  // max_failures exactly. The chunk size only bounds how much speculative
  // work can be discarded past the cutoff -- it never shows in the report,
  // so jobs-dependent chunking is safe.
  const int chunk = std::max(8, jobs * 8);
  std::vector<TrialOutcome> outcomes;
  bool stopped = false;

  for (int start = 0; start < options_.trials && !stopped; start += chunk) {
    const int n = std::min(chunk, options_.trials - start);
    outcomes.assign(static_cast<size_t>(n), TrialOutcome{});
    KOLA_RETURN_IF_ERROR(
        ParallelFor(jobs, static_cast<size_t>(n), [&](size_t i) {
          outcomes[i] = RunTrial(start + static_cast<int>(i));
        }));

    for (int i = 0; i < n && !stopped; ++i) {
      if (static_cast<int>(report.failures.size()) >=
          options_.max_failures) {
        stopped = true;
        break;
      }
      TrialOutcome& outcome = outcomes[static_cast<size_t>(i)];
      ++report.trials;
      if (outcome.gen_skipped) {
        ++report.gen_skipped;
        continue;
      }
      if (outcome.eval_skipped) {
        ++report.eval_skipped;
        continue;
      }
      ++report.evaluated;

      for (size_t c = 0; c < outcome.cells.size(); ++c) {
        ++report.config_runs;
        RunOutcome& out = outcome.cells[c];
        if (out.strictness) ++report.strictness;
        if (out.degraded) ++report.degraded;
        if (out.retried) ++report.retried;
        if (out.quarantined) ++report.quarantined;
        if (out.cost_regression) ++report.cost_regressions;
        if (!out.diverged) continue;
        Divergence failure;
        failure.query = outcome.query;
        failure.original_query = outcome.query;
        failure.optimized = std::move(out.optimized);
        failure.world_seed = outcome.world_seed;
        failure.world_scale = outcome.world_scale;
        failure.config = options_.configs[c];
        failure.planted = !options_.extra_rules.empty();
        failure.expected = std::move(out.expected);
        failure.actual = std::move(out.actual);
        failure.rule_trace = std::move(out.rule_trace);
        failure.deadline_ms = options_.deadline_ms;
        failure.memory_budget_bytes = options_.memory_budget_bytes;
        failure.retries = options_.retries;
        failure.fault_spec = options_.fault_spec;
        failure.fault_stream = outcome.fault_stream;
        if (options_.shrink) failure = ShrinkDivergence(std::move(failure));
        report.failures.push_back(std::move(failure));
        if (static_cast<int>(report.failures.size()) >=
            options_.max_failures) {
          break;
        }
      }
    }
  }
  return report;
}

}  // namespace kola
