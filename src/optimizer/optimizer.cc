#include "optimizer/optimizer.h"

#include <atomic>
#include <exception>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "coko/strategy.h"
#include "optimizer/code_motion.h"
#include "optimizer/explore.h"
#include "optimizer/hidden_join.h"
#include "rules/catalog.h"

namespace kola {

namespace {

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

}  // namespace

std::string Degradation::ToString() const {
  if (!degraded) return "";
  std::string out = "degraded at " + phase + " (" +
                    std::string(StatusCodeToString(code)) + ": " + reason +
                    ")";
  if (steps_spent > 0) {
    out += " after " + std::to_string(steps_spent) + " steps";
  }
  return out;
}

StatusOr<OptimizeResult> Optimizer::Optimize(const TermPtr& query) const {
  return RunPipeline(query, rewriter_, nullptr);
}

StatusOr<OptimizeResult> Optimizer::Optimize(const TermPtr& query,
                                             const Governor* governor) const {
  if (governor == nullptr) return Optimize(query);
  // A governed pass runs on a per-call Rewriter clone carrying the
  // governor, so the member rewriter_ never aliases a budget that outlives
  // the call.
  RewriterOptions options = rewriter_.options();
  options.governor = governor;
  Rewriter governed(rewriter_.properties(), options);
  // The arenas this pass interns into (plan exploration's dedup arena, the
  // e-graph's) charge their growth to the ambient per-thread governor.
  ScopedMemoryGovernor memory_scope(governor);
  return RunPipeline(query, governed, governor);
}

StatusOr<OptimizeResult> Optimizer::RunPipeline(
    const TermPtr& query, const Rewriter& rewriter,
    const Governor* governor) const {
  OptimizeResult result;
  result.query = query;
  result.trace.initial = query;

  TermPtr current = query;

  // Every phase transforms `current` and returns OK, or fails as a unit.
  // On failure the pass degrades: the trace is truncated back to the last
  // completed phase (a partial phase's steps no longer describe
  // `current`), the stop is recorded, and the completed-phase term goes to
  // cost-based acceptance below. The input query is the floor -- phase 1
  // failing degrades to the query itself, never to an error.
  bool stopped = false;
  auto phase = [&](const char* name, auto&& body) {
    if (stopped) return;
    size_t steps_before = result.trace.steps.size();
    size_t blocks_before = result.applied_blocks.size();
    Status status = body();
    if (status.ok()) return;
    result.trace.steps.resize(steps_before);
    result.applied_blocks.resize(blocks_before);
    result.degradation.degraded = true;
    result.degradation.phase = name;
    result.degradation.code = status.code();
    result.degradation.reason = status.message();
    result.degradation.steps_spent =
        governor == nullptr ? 0 : governor->steps_spent();
    stopped = true;
  };

  const RuleCatalog& catalog = RuleCatalog::Get();

  // Phase 1: general simplification.
  phase("simplify", [&]() -> Status {
    KOLA_ASSIGN_OR_RETURN(
        StrategyResult r,
        catalog.simplify.Apply(current, rewriter, &result.trace));
    if (r.changed) result.applied_blocks.push_back(catalog.simplify.name());
    current = r.term;
    return Status::OK();
  });

  // Phase 2: code motion (Figure 6).
  phase("code-motion", [&]() -> Status {
    KOLA_ASSIGN_OR_RETURN(CodeMotionResult r,
                          ApplyCodeMotion(current, rewriter));
    if (r.moved) result.applied_blocks.push_back("code-motion");
    for (RewriteStep& step : r.trace.steps) {
      result.trace.steps.push_back(std::move(step));
    }
    current = r.query;
    return Status::OK();
  });

  // Phase 3: hidden-join untangling (Section 4.1).
  phase("hidden-join", [&]() -> Status {
    KOLA_ASSIGN_OR_RETURN(HiddenJoinResult r,
                          UntangleHiddenJoin(current, rewriter));
    for (const std::string& name : r.blocks_fired) {
      result.applied_blocks.push_back("hidden-join/" + name);
    }
    for (RewriteStep& step : r.trace.steps) {
      result.trace.steps.push_back(std::move(step));
    }
    current = r.query;
    return Status::OK();
  });

  // Phase 4: loop fusion -- adjacent iterates collapse into one pass
  // (rule 11 plus predicate/identity cleanup). The hidden-join pipeline
  // leaves queries in composition-chain form, which is what rule 11
  // matches.
  phase("loop-fusion", [&]() -> Status {
    KOLA_ASSIGN_OR_RETURN(
        StrategyResult r,
        catalog.loop_fusion.Apply(current, rewriter, &result.trace));
    if (r.changed) result.applied_blocks.push_back(catalog.loop_fusion.name());
    current = r.term;
    return Status::OK();
  });

  // Phase 5: cost-ranked join exploration (commutation, selection
  // pushdown) when the plan contains a join. ExploreJoinPlans degrades
  // internally on exhaustion (returns the candidates found so far), so a
  // failure here is a genuine error, not a budget stop.
  phase("join-exploration", [&]() -> Status {
    if (!HasJoin(current)) return Status::OK();
    KOLA_ASSIGN_OR_RETURN(std::vector<Candidate> plans,
                          ExploreJoinPlans(current, rewriter, cost_model_));
    if (!plans.empty() && !plans.front().derivation.empty()) {
      result.applied_blocks.push_back("join-exploration");
      current = plans.front().query;
    }
    return Status::OK();
  });

  // Phase 6: equality saturation (ROADMAP item 3), behind
  // RewriterOptions::use_egraph / KOLA_EGRAPH. Saturates the catalog pool
  // into an e-graph seeded with the query and the greedy pipeline's plan,
  // then extracts the cheapest plan -- the greedy plan stays a ranked
  // candidate, so this phase never makes the result costlier. On a budget
  // stop the phase() wrapper records the degradation while `current` keeps
  // the best-extracted-so-far plan assigned below.
  phase("egraph", [&]() -> Status {
    if (!rewriter.options().use_egraph) return Status::OK();
    EGraphOptions egraph_options;
    egraph_options.max_nodes = rewriter.options().egraph_max_nodes;
    egraph_options.governor = governor;
    PlanCostFn cost = [this](const TermPtr& plan) {
      return cost_model_.EstimateQueryCost(plan);
    };
    EGraphOutcome outcome =
        SaturateAndExtract(query, current, rewriter, cost, egraph_options);
    result.egraph = outcome.stats;
    if (outcome.plan != nullptr && !Term::Equal(outcome.plan, current)) {
      result.applied_blocks.push_back("egraph");
      current = outcome.plan;
    }
    return outcome.status;
  });

  result.rewritten = current;

  // Cost-based acceptance. Runs on the degraded best-so-far term too:
  // every completed phase is semantics-preserving, so `current` is always
  // a sound plan, and the input query remains the fallback when it does
  // not win on cost.
  auto before = cost_model_.EstimateQueryCost(query);
  auto after = cost_model_.EstimateQueryCost(current);
  result.cost_before = before.ok() ? before.value() : 0;
  result.cost_after = after.ok() ? after.value() : 0;
  if (before.ok() && after.ok()) {
    result.kept_rewrite = result.cost_after <= result.cost_before;
  } else {
    // Cost model could not rank the plans; keep the rewrite (rules are
    // semantics-preserving, and simplified form is preferable).
    result.kept_rewrite = true;
  }
  result.query = result.kept_rewrite ? current : query;
  return result;
}

std::vector<BatchOptimizeResult> Optimizer::OptimizeAll(
    std::span<const TermPtr> queries, int jobs,
    const Governor* governor) const {
  const size_t count = queries.size();
  std::vector<BatchOptimizeResult> entries(count);
  // Captured once on the calling thread so pool workers see the caller's
  // injector; keyed draws are pure functions of (seed, site, index), so
  // which queries get poisoned is identical at every jobs level.
  FaultInjector* injector = ActiveFaultInjector();

  auto run_one = [&](const Optimizer& optimizer, size_t i) {
    if (injector != nullptr &&
        injector->ShouldFailKeyed(FaultSite::kPoolTask, i)) {
      // The worker task for this one query dies; its entry carries the
      // fault and every other query still gets optimized.
      entries[i].status =
          FaultInjector::InjectedFault(FaultSite::kPoolTask)
              .WithContext("optimizing batch query " + std::to_string(i));
      return;
    }
    try {
      auto result = optimizer.Optimize(queries[i], governor);
      if (result.ok()) {
        entries[i].result = std::move(result).value();
      } else {
        entries[i].status = result.status().WithContext(
            "optimizing batch query " + std::to_string(i));
      }
    } catch (const std::exception& e) {
      entries[i].status = InternalError("optimizing batch query " +
                                        std::to_string(i) + " threw: " +
                                        e.what());
    } catch (...) {
      entries[i].status =
          InternalError("optimizing batch query " + std::to_string(i) +
                        " threw a non-std exception");
    }
  };

  if (jobs > static_cast<int>(count)) jobs = static_cast<int>(count);
  if (jobs <= 1) {
    for (size_t i = 0; i < count; ++i) run_one(*this, i);
    return entries;
  }
  // One Optimizer clone per worker: each clone owns its Rewriter and cost
  // model, so workers share only immutable inputs (the PropertyStore, the
  // Database, the queries).
  const PropertyStore* properties = rewriter_.properties();
  const RewriterOptions options = rewriter_.options();
  std::atomic<size_t> next{0};
  auto drain = [&] {
    Optimizer worker(properties, db_, options);
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      run_one(worker, i);
    }
  };
  ThreadPool pool(jobs - 1);
  for (int w = 0; w < jobs - 1; ++w) pool.Submit(drain);
  drain();
  // A drain task lost to an injected pool fault leaves its indices to the
  // surviving workers (the calling thread at minimum), so the pool-level
  // error never reaches an entry; per-query failures are already recorded
  // in `entries` by run_one.
  (void)pool.Wait();
  return entries;
}

}  // namespace kola
