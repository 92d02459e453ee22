#ifndef KOLA_REWRITE_ENGINE_H_
#define KOLA_REWRITE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/governor.h"
#include "common/statusor.h"
#include "rewrite/properties.h"
#include "rewrite/rule.h"
#include "term/term.h"

namespace kola {

class RuleIndex;

/// One fired rewrite, recorded for derivation traces (Figures 4 and 6 of
/// the paper are reproduced by asserting on these).
struct RewriteStep {
  std::string rule_id;
  std::vector<size_t> path;  // child indices from the root to the redex
  TermPtr before;            // the redex before rewriting
  TermPtr after;             // the redex after rewriting
  TermPtr result;            // the whole term after this step
};

/// A derivation: the starting term plus every fired step.
struct Trace {
  TermPtr initial;
  std::vector<RewriteStep> steps;

  /// Rule ids in firing order, e.g. {"11", "13", "7", "12~"}.
  std::vector<std::string> RuleIds() const;

  /// Multi-line rendering in the style of the paper's Figure 4.
  std::string ToString() const;
};

/// A stable fingerprint of a rule set (ids, both sides, conditions). Two
/// rule vectors with the same fingerprint rewrite identically; keys the
/// compiled RuleIndex cache and the plan cache, and is safe to persist: it
/// is computed from explicit FNV-1a/mix steps over the rules' syntax, never
/// from std::hash or Term::hash (both implementation-defined), so the value
/// is identical across platforms and standard libraries.
uint64_t RuleSetFingerprint(const std::vector<Rule>& rules);

/// An immutable rule list paired with its RuleSetFingerprint, computed once
/// at construction. The rule catalog hands out its fixed rule sets in this
/// form, so per-call consumers never rehash them.
class RuleSet {
 public:
  explicit RuleSet(std::vector<Rule> rules)
      : rules_(std::move(rules)), fingerprint_(RuleSetFingerprint(rules_)) {}

  const std::vector<Rule>& rules() const { return rules_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<Rule> rules_;
  uint64_t fingerprint_;
};

/// Tunables for the rewrite engine.
struct RewriterOptions {
  /// Shared resource budget for every Fixpoint driven through this
  /// Rewriter: each rule firing charges one step, and the deadline is
  /// probed once per firing, so a non-terminating or merely slow rule set
  /// stops when the request's budget runs out rather than at each call's
  /// local max_steps. nullptr (the default) means ungoverned; the per-call
  /// max_steps caps always still apply. Not owned; must outlive the
  /// Rewriter.
  const Governor* governor = nullptr;

  /// Consult a compiled discrimination-tree index (rewrite/rule_index.h)
  /// when scanning a rule set, instead of probing every rule at every node.
  /// Trace-preserving by construction -- the index only filters rules whose
  /// lhs provably cannot match, in the linear scan's order -- so it is on
  /// by default. The KOLA_NO_RULE_INDEX environment variable (truthy --
  /// see common/env.h) force-disables it process-wide regardless of this
  /// flag, so differential sweeps can compare the two scans byte-for-byte.
  /// Index bytes are charged to the governor's kRuleIndex budget; a failed
  /// charge falls back to the linear scan.
  bool use_rule_index = true;

  /// Run the equality-saturation backend (src/egraph/) as a final optimizer
  /// phase: saturate the catalog rule pool into an e-graph seeded with the
  /// query and the greedy pipeline's plan, then extract the cheapest plan
  /// by the cost model (never costlier than the greedy plan -- it is always
  /// a candidate). Off by default; Defaults() honours the KOLA_EGRAPH
  /// environment variable (truthy -- see common/env.h -- to enable).
  bool use_egraph = false;

  /// E-node cap for that phase: saturation stops growing past it and
  /// extraction runs over the partial graph. 0 means unbounded.
  size_t egraph_max_nodes = 1024;

  static RewriterOptions Defaults();
};

/// Applies declarative rules to terms. Pure matching plus substitution --
/// no code hooks; conditions resolve through the PropertyStore.
class Rewriter {
 public:
  /// `properties` may be nullptr, in which case conditional rules never
  /// fire.
  explicit Rewriter(const PropertyStore* properties = nullptr)
      : Rewriter(properties, RewriterOptions::Defaults()) {}

  Rewriter(const PropertyStore* properties, RewriterOptions options)
      : properties_(properties),
        options_(options),
        index_charge_(options.governor, MemoryCategory::kRuleIndex) {}

  /// Applies `rule` at the root only. nullopt when the lhs does not match
  /// or a condition fails.
  std::optional<TermPtr> ApplyAtRoot(const Rule& rule,
                                     const TermPtr& term) const;

  /// Applies `rule` once at the leftmost-outermost matching position.
  /// `step` (optional) receives the details.
  std::optional<TermPtr> ApplyOnce(const Rule& rule, const TermPtr& term,
                                   RewriteStep* step) const;

  /// Tries each rule in order at leftmost-outermost; first success wins.
  std::optional<TermPtr> ApplyAnyOnce(const std::vector<Rule>& rules,
                                      const TermPtr& term,
                                      RewriteStep* step) const;

  /// As above over a fixed rule set, reusing its precomputed fingerprint.
  std::optional<TermPtr> ApplyAnyOnce(const RuleSet& rules,
                                      const TermPtr& term,
                                      RewriteStep* step) const;

  /// Tries each rule in order at the ROOT position only; first success
  /// wins. `index` (optional) is a compiled index for exactly `rules`
  /// (from IndexFor) consulted to skip rules whose lhs cannot match here;
  /// results are identical with or without it. `fired_rule` (optional)
  /// receives the index of the rule that fired. The per-node primitive of
  /// bottom-up strategies (Everywhere), which prefetch the index once per
  /// sweep rather than per node.
  std::optional<TermPtr> ApplyAnyAtRoot(const std::vector<Rule>& rules,
                                        const TermPtr& term,
                                        const RuleIndex* index,
                                        size_t* fired_rule) const;

  /// ApplyOnce for every rule independently against the SAME input term:
  /// result i is exactly ApplyOnce(rules[i], term, nullptr). With the rule
  /// index enabled this is one shared descent that tests only each node's
  /// candidates, instead of rules.size() full traversals.
  std::vector<std::optional<TermPtr>> ApplyEachOnce(
      const std::vector<Rule>& rules, const TermPtr& term) const;

  /// The compiled rule index this Rewriter consults for `rules`, acquiring
  /// (and governor-charging) it on first use. `fingerprint` must be
  /// RuleSetFingerprint(rules) -- passed in so per-sweep callers hoist the
  /// hash. nullptr when indexing is off (options, KOLA_NO_RULE_INDEX), the
  /// rule set is empty, or the memory budget cannot afford the compiled
  /// tree -- callers fall back to the linear scan, with identical results.
  std::shared_ptr<const RuleIndex> IndexFor(const std::vector<Rule>& rules,
                                            uint64_t fingerprint) const;

  /// Repeats ApplyAnyOnce until no rule fires. RESOURCE_EXHAUSTED after
  /// `max_steps` firings (non-terminating rule sets are a bug in the
  /// caller's rule selection, but must not hang the optimizer). With the
  /// rule index, sweeps after the first re-probe only the subtrees the
  /// previous firing changed; steps and results are those of the linear
  /// scan.
  StatusOr<TermPtr> Fixpoint(const std::vector<Rule>& rules, TermPtr term,
                             Trace* trace, int max_steps = 10'000) const;

  /// As above over a fixed rule set, reusing its precomputed fingerprint.
  StatusOr<TermPtr> Fixpoint(const RuleSet& rules, TermPtr term,
                             Trace* trace, int max_steps = 10'000) const;

  const PropertyStore* properties() const { return properties_; }
  const RewriterOptions& options() const { return options_; }

 private:
  bool ConditionsHold(const Rule& rule, const Bindings& bindings) const;

  /// ApplyAnyOnce's body; `fingerprint` is RuleSetFingerprint(rules).
  std::optional<TermPtr> ApplyAnyOnceImpl(const std::vector<Rule>& rules,
                                          uint64_t fingerprint,
                                          const TermPtr& term,
                                          RewriteStep* step) const;

  /// Fixpoint's body; `fingerprint` is RuleSetFingerprint(rules).
  StatusOr<TermPtr> FixpointImpl(const std::vector<Rule>& rules,
                                 uint64_t fingerprint, TermPtr term,
                                 Trace* trace, int max_steps) const;

  std::optional<TermPtr> ApplyOnceImpl(const Rule& rule, const TermPtr& term,
                                       std::vector<size_t>* path,
                                       RewriteStep* step) const;

  /// The rule-major linear scan: each rule in order at leftmost-outermost.
  std::optional<TermPtr> LinearApplyAnyOnce(const std::vector<Rule>& rules,
                                            const TermPtr& term,
                                            RewriteStep* step) const;

  /// The indexed equivalent of LinearApplyAnyOnce: one pre-order descent
  /// testing only each node's index candidates, returning the same rule
  /// fired at the same position as the rule-major linear scan (see the
  /// determinism argument in engine.cc).
  std::optional<TermPtr> IndexedApplyAnyOnce(const std::vector<Rule>& rules,
                                             const TermPtr& term,
                                             RewriteStep* step,
                                             const RuleIndex& index) const;

  /// One Fixpoint call's per-subtree redex summaries, keyed by node
  /// identity: every indexed sweep after the call's first re-probes only
  /// the nodes the previous firing built (defined in engine.cc).
  class SubtreeSummaries;

  const PropertyStore* properties_;
  RewriterOptions options_;
  /// Compiled-index references held by this Rewriter (the indexes
  /// themselves are shared process-wide by fingerprint); the mutex makes
  /// acquisition safe even for a const Rewriter probed from several
  /// threads.
  mutable std::mutex index_mu_;
  mutable std::unordered_map<uint64_t, std::shared_ptr<const RuleIndex>>
      index_pool_;
  /// Accounts the held indexes' bytes against options_.governor.
  mutable MemoryCharge index_charge_;
};

}  // namespace kola

#endif  // KOLA_REWRITE_ENGINE_H_
