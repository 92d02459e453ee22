#include "optimizer/explore.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/macros.h"
#include "rules/catalog.h"
#include "term/intern.h"

namespace kola {

StatusOr<std::vector<Candidate>> ExploreJoinPlans(const TermPtr& query,
                                                  const Rewriter& rewriter,
                                                  const CostModel& model,
                                                  int max_candidates) {
  const RuleSet& cleanup = RuleCatalog::Get().explore_cleanup;

  std::vector<Candidate> candidates;
  // Dedup on canonical term identity: every candidate plan is interned into
  // an arena scoped to this exploration, so "seen before" is one hash-map
  // probe on a pointer instead of re-hashing and printing the whole tree.
  TermInterner interner;
  std::unordered_map<const Term*, size_t> seen;

  // Frontier accounting: every retained candidate charges its plan's node
  // footprint plus bookkeeping to the request's memory budget, released
  // when exploration returns (the chosen plan's ownership passes to the
  // caller; what is modeled here is the live breadth of the search).
  const Governor* governor = rewriter.options().governor;
  MemoryCharge frontier_charge(governor, MemoryCategory::kExploreFrontier);
  bool budget_hit = false;
  auto candidate_bytes = [](const TermPtr& term) {
    // Nodes the plan holds (shared subtrees deliberately counted per use:
    // the estimate prices the logical plan, not allocator luck) plus the
    // Candidate record itself.
    return static_cast<int64_t>(term->node_count()) *
               TermInterner::TermFootprintBytes(*term) +
           static_cast<int64_t>(sizeof(Candidate));
  };

  auto add = [&](TermPtr term,
                 std::vector<std::string> derivation) -> bool {
    TermPtr canonical = interner.Intern(std::move(term));
    if (seen.count(canonical.get()) > 0) return false;
    // The input plan (the first add) is always admitted -- it is the floor
    // every degradation falls back to -- but later candidates that do not
    // fit in the memory budget stop the search instead of growing it.
    if (!candidates.empty() &&
        !frontier_charge.Add(candidate_bytes(canonical)).ok()) {
      budget_hit = true;
      return false;
    }
    seen.emplace(canonical.get(), candidates.size());
    auto cost = model.EstimateQueryCost(canonical);
    candidates.push_back(Candidate{std::move(canonical),
                                   cost.ok() ? cost.value() : 1e18,
                                   std::move(derivation)});
    return true;
  };

  // Exploration degrades instead of failing on an exhausted budget or an
  // injected fault: every candidate already accumulated is a sound plan,
  // so running out of resources mid-search just means a smaller plan
  // space. Genuine errors (anything else) still propagate.
  auto recoverable = [](const Status& status) {
    return status.code() == StatusCode::kResourceExhausted ||
           status.code() == StatusCode::kUnavailable;
  };

  auto normalized = rewriter.Fixpoint(cleanup, query, nullptr);
  if (normalized.ok()) {
    add(std::move(normalized).value(), {});
  } else if (recoverable(normalized.status())) {
    add(query, {});  // the raw query is always a valid plan
  } else {
    return normalized.status();
  }

  std::deque<size_t> frontier = {0};
  while (!budget_hit && !frontier.empty() &&
         candidates.size() < static_cast<size_t>(max_candidates)) {
    size_t index = frontier.front();
    frontier.pop_front();
    // Copy: `candidates` may reallocate inside the loop.
    TermPtr base = candidates[index].query;
    std::vector<std::string> base_derivation = candidates[index].derivation;

    for (const Rule& rule : RuleCatalog::Get().explore_steps.rules()) {
      RewriteStep step;
      auto rewritten = rewriter.ApplyOnce(rule, base, &step);
      if (!rewritten) continue;
      auto cleaned = rewriter.Fixpoint(cleanup, *rewritten, nullptr);
      if (!cleaned.ok()) {
        if (recoverable(cleaned.status())) {
          budget_hit = true;  // keep what we have, stop exploring
          break;
        }
        return cleaned.status();
      }
      std::vector<std::string> derivation = base_derivation;
      derivation.push_back(rule.id);
      if (add(std::move(cleaned).value(), std::move(derivation))) {
        frontier.push_back(candidates.size() - 1);
        if (candidates.size() >= static_cast<size_t>(max_candidates)) break;
      }
      if (budget_hit) break;  // frontier memory exhausted: keep what we have
    }
  }

  // Total order: cost, then derivation, then the plan's printed form.
  // Sorting on cost alone leaves equal-cost plans in unspecified relative
  // order, so downstream truncation could keep different plans run-to-run.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     if (a.derivation != b.derivation) {
                       return a.derivation < b.derivation;
                     }
                     return a.query->ToString() < b.query->ToString();
                   });
  return candidates;
}

}  // namespace kola
