#include "rewrite/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>

#include "common/env.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "rewrite/match.h"
#include "rewrite/rule_index.h"

namespace kola {

namespace {

/// Term::stable_hash with the nullptr convention fingerprints use.
uint64_t StableTermHash(const TermPtr& term) {
  return term == nullptr ? 0 : term->stable_hash();
}

}  // namespace

uint64_t RuleSetFingerprint(const std::vector<Rule>& rules) {
  // Per-term hashes are cached on the nodes (Term::stable_hash), so
  // fingerprinting a rule set per call -- the std::vector overloads of
  // ApplyAnyOnce, ApplyEachOnce and Fixpoint do; fixed sets come as a
  // RuleSet with the value precomputed -- costs one string hash and a few
  // mixes per rule, not a pattern walk.
  uint64_t fp = rules.size();
  for (const Rule& rule : rules) {
    fp = StableHashCombine(fp, StableStringHash(rule.id));
    fp = StableHashCombine(fp, StableTermHash(rule.lhs));
    fp = StableHashCombine(fp, StableTermHash(rule.rhs));
    for (const PropertyAtom& atom : rule.conditions) {
      fp = StableHashCombine(fp, StableStringHash(atom.property));
      fp = StableHashCombine(fp, StableTermHash(atom.pattern));
    }
  }
  // Reserve 0 for "not attuned yet".
  return fp == 0 ? 1 : fp;
}

RewriterOptions RewriterOptions::Defaults() {
  RewriterOptions options;
  options.use_egraph = EnvFlagEnabled("KOLA_EGRAPH");
  return options;
}

std::vector<std::string> Trace::RuleIds() const {
  std::vector<std::string> ids;
  ids.reserve(steps.size());
  for (const RewriteStep& step : steps) ids.push_back(step.rule_id);
  return ids;
}

std::string Trace::ToString() const {
  std::ostringstream os;
  if (initial != nullptr) os << initial->ToString() << "\n";
  for (const RewriteStep& step : steps) {
    os << "  --[" << step.rule_id << "]--> " << step.result->ToString()
       << "\n";
  }
  return os.str();
}

bool Rewriter::ConditionsHold(const Rule& rule,
                              const Bindings& bindings) const {
  if (rule.conditions.empty()) return true;
  if (properties_ == nullptr) return false;
  for (const PropertyAtom& condition : rule.conditions) {
    auto goal = Substitute(condition.pattern, bindings);
    if (!goal.ok()) return false;
    if (!properties_->Holds(condition.property, goal.value())) return false;
  }
  return true;
}

std::optional<TermPtr> Rewriter::ApplyAtRoot(const Rule& rule,
                                             const TermPtr& term) const {
  Bindings bindings;
  if (!MatchTerm(rule.lhs, term, &bindings)) return std::nullopt;
  if (!ConditionsHold(rule, bindings)) return std::nullopt;
  auto result = Substitute(rule.rhs, bindings);
  // Rules are validated at construction (rhs variables bound by lhs), so
  // substitution cannot fail; a failure here is a library bug.
  KOLA_CHECK_OK(result.status());
  return std::move(result).value();
}

std::optional<TermPtr> Rewriter::ApplyOnceImpl(const Rule& rule,
                                               const TermPtr& term,
                                               std::vector<size_t>* path,
                                               RewriteStep* step) const {
  if (auto rewritten = ApplyAtRoot(rule, term)) {
    if (step != nullptr) {
      step->rule_id = rule.id;
      step->path = *path;
      step->before = term;
      step->after = *rewritten;
    }
    return rewritten;
  }
  for (size_t i = 0; i < term->arity(); ++i) {
    path->push_back(i);
    if (auto rewritten = ApplyOnceImpl(rule, term->child(i), path, step)) {
      std::vector<TermPtr> children = term->children();
      children[i] = std::move(*rewritten);
      path->pop_back();
      return term->WithChildren(std::move(children));
    }
    path->pop_back();
  }
  return std::nullopt;
}

std::optional<TermPtr> Rewriter::ApplyOnce(const Rule& rule,
                                           const TermPtr& term,
                                           RewriteStep* step) const {
  std::vector<size_t> path;
  auto result = ApplyOnceImpl(rule, term, &path, step);
  if (result && step != nullptr) step->result = *result;
  return result;
}

std::optional<TermPtr> Rewriter::ApplyAnyOnce(const std::vector<Rule>& rules,
                                              const TermPtr& term,
                                              RewriteStep* step) const {
  return ApplyAnyOnceImpl(rules, RuleSetFingerprint(rules), term, step);
}

std::optional<TermPtr> Rewriter::ApplyAnyOnce(const RuleSet& rules,
                                              const TermPtr& term,
                                              RewriteStep* step) const {
  return ApplyAnyOnceImpl(rules.rules(), rules.fingerprint(), term, step);
}

std::optional<TermPtr> Rewriter::ApplyAnyOnceImpl(
    const std::vector<Rule>& rules, uint64_t fingerprint, const TermPtr& term,
    RewriteStep* step) const {
  if (auto index = IndexFor(rules, fingerprint)) {
    return IndexedApplyAnyOnce(rules, term, step, *index);
  }
  return LinearApplyAnyOnce(rules, term, step);
}

std::shared_ptr<const RuleIndex> Rewriter::IndexFor(
    const std::vector<Rule>& rules, uint64_t fingerprint) const {
  if (!options_.use_rule_index || RuleIndexDisabledByEnv() || rules.empty()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = index_pool_.find(fingerprint);
  if (it != index_pool_.end()) {
    // A fingerprint collision between different rule sets must not replay
    // the wrong index; the rare colliding set just runs linear.
    return it->second->rule_count() == rules.size() ? it->second : nullptr;
  }
  std::shared_ptr<const RuleIndex> index =
      AcquireRuleIndex(rules, fingerprint);
  // Charge-before-keep: a budget that cannot afford this Rewriter's
  // reference to the compiled tree degrades to the linear scan -- results
  // are identical, only speed changes.
  if (!index_charge_.Add(index->footprint_bytes()).ok()) return nullptr;
  index_pool_.emplace(fingerprint, index);
  return index;
}

std::optional<TermPtr> Rewriter::ApplyAnyAtRoot(const std::vector<Rule>& rules,
                                                const TermPtr& term,
                                                const RuleIndex* index,
                                                size_t* fired_rule) const {
  if (index != nullptr) {
    std::vector<uint32_t> candidates;
    index->CandidatesAt(*term, &candidates);
    for (uint32_t r : candidates) {
      if (auto rewritten = ApplyAtRoot(rules[r], term)) {
        if (fired_rule != nullptr) *fired_rule = r;
        return rewritten;
      }
    }
    return std::nullopt;
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    if (auto rewritten = ApplyAtRoot(rules[r], term)) {
      if (fired_rule != nullptr) *fired_rule = r;
      return rewritten;
    }
  }
  return std::nullopt;
}

namespace {

/// Rebuilds the spine from `node` down `path` (starting at `depth`) with
/// `replacement` grafted at the end -- the same child-vector copy per level
/// that ApplyOnceImpl performs as its recursion unwinds, so indexed and
/// linear scans produce pointer-identical sharing structure.
TermPtr GraftAlongPath(const TermPtr& node, const std::vector<size_t>& path,
                       size_t depth, const TermPtr& replacement) {
  if (depth == path.size()) return replacement;
  std::vector<TermPtr> children = node->children();
  children[path[depth]] =
      GraftAlongPath(node->child(path[depth]), path, depth + 1, replacement);
  return node->WithChildren(std::move(children));
}

}  // namespace

std::vector<std::optional<TermPtr>> Rewriter::ApplyEachOnce(
    const std::vector<Rule>& rules, const TermPtr& term) const {
  std::vector<std::optional<TermPtr>> results(rules.size());
  std::shared_ptr<const RuleIndex> index =
      IndexFor(rules, RuleSetFingerprint(rules));
  if (index == nullptr) {
    for (size_t r = 0; r < rules.size(); ++r) {
      results[r] = ApplyOnce(rules[r], term, nullptr);
    }
    return results;
  }
  // One shared pre-order descent. Pre-order is exactly ApplyOnce's
  // leftmost-outermost probe order, so the first node where rule r matches
  // is the position ApplyOnce(rules[r], ...) would have fired at; every
  // later match of r is ignored via the done bitmap.
  size_t remaining = rules.size();
  std::vector<char> done(rules.size(), 0);
  std::vector<uint32_t> candidates;
  std::vector<size_t> path;
  auto visit = [&](auto&& self, const TermPtr& node) -> void {
    index->CandidatesAt(*node, &candidates);
    // `candidates` is fully consumed before recursing: CandidatesAt clears
    // and refills the shared scratch buffer at every node.
    for (uint32_t r : candidates) {
      if (done[r]) continue;
      if (auto rewritten = ApplyAtRoot(rules[r], node)) {
        results[r] = GraftAlongPath(term, path, 0, *rewritten);
        done[r] = 1;
        --remaining;
      }
    }
    for (size_t i = 0; i < node->arity() && remaining > 0; ++i) {
      path.push_back(i);
      self(self, node->child(i));
      path.pop_back();
    }
  };
  visit(visit, term);
  return results;
}

std::optional<TermPtr> Rewriter::IndexedApplyAnyOnce(
    const std::vector<Rule>& rules, const TermPtr& term, RewriteStep* step,
    const RuleIndex& index) const {
  // The linear scan's winner is "the smallest rule index that matches
  // ANYWHERE, fired at that rule's first pre-order position". One pre-order
  // descent recovers exactly that: at each node only candidates below the
  // current best are tested (a larger index can never win, and the best
  // rule itself already fired at an earlier position), so the best can only
  // decrease along the walk, and when it reaches rule 0 nothing can beat it
  // and the walk stops. Every node visited before rule r became best was
  // probed with r in range (r is below every earlier best), which makes the
  // node where r first matched its leftmost-outermost position -- the same
  // node the linear scan fires at.
  size_t best = rules.size();
  std::vector<size_t> best_path;
  TermPtr best_before;
  TermPtr best_after;
  std::vector<uint32_t> candidates;
  std::vector<size_t> path;
  auto visit = [&](auto&& self, const TermPtr& node) -> void {
    index.CandidatesAt(*node, &candidates);
    for (uint32_t r : candidates) {
      if (r >= best) break;  // candidates ascend: nothing below best left
      if (auto rewritten = ApplyAtRoot(rules[r], node)) {
        best = r;
        best_path = path;
        best_before = node;
        best_after = std::move(*rewritten);
        if (best == 0) return;
      }
    }
    for (size_t i = 0; i < node->arity(); ++i) {
      path.push_back(i);
      self(self, node->child(i));
      path.pop_back();
      if (best == 0) return;
    }
  };
  visit(visit, term);
  if (best == rules.size()) return std::nullopt;
  TermPtr result = GraftAlongPath(term, best_path, 0, best_after);
  if (step != nullptr) {
    step->rule_id = rules[best].id;
    step->path = std::move(best_path);
    step->before = std::move(best_before);
    step->after = std::move(best_after);
    step->result = result;
  }
  return result;
}

/// The smallest term Fixpoint keeps subtree summaries for. Below it a
/// full indexed sweep is cheaper than the table: summarizing every term
/// cost the compile corpus's 20-50-node queries 6-16% of their Optimize
/// time, while the hidden joins the table speeds up grow past 100 nodes.
constexpr size_t kSummarizedNodes = 64;

/// The incremental sweep. Whether a subtree holds a redex, and which rule
/// is the lowest that fires in it, depends on that subtree and the rule set
/// alone -- KOLA rules are variable-free first-order rewrites decided by
/// matching, and terms are immutable -- so a verdict stays valid for as
/// long as the node lives, wherever the node sits. A node's summary is the
/// lowest rule index matching anywhere in its subtree plus where that match
/// is: here, or in which child. It folds its children's summaries and then
/// probes the node's own candidates up to the children's minimum; a tie
/// goes to the node, and between children to the leftmost one, which is
/// pre-order. The root's summary is therefore IndexedApplyAnyOnce's winner:
/// the smallest rule that matches anywhere, at its leftmost-outermost
/// position. Summaries are keyed by node identity, so after a firing only
/// the spine GraftAlongPath rebuilt and the fresh rhs nodes are new; every
/// subtree the firing did not touch answers from the table.
///
/// Lives for one Fixpoint call and holds no node: before the caller drops
/// the old term, a firing evicts every key the new term does not reach
/// (the old spine, and the redex's nodes that the contractum did not take
/// over), so no key can be the recycled address of a freed node even when
/// no trace holds the old spines. Old terms are therefore freed sweep by
/// sweep, as with the other scans. The table is scratch, like the descent's
/// path vector, and is not charged to the governor.
class Rewriter::SubtreeSummaries {
 public:
  SubtreeSummaries(const Rewriter& rewriter, const std::vector<Rule>& rules,
                   const RuleIndex& index, size_t expected_nodes)
      : rewriter_(rewriter), rules_(rules), index_(index) {
    // node_count() counts a shared subterm once per position, so it only
    // seeds the size; the table grows with the distinct nodes it meets.
    const size_t expected = std::min<size_t>(expected_nodes, 4096);
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    Reset(capacity);
  }

  // slots_ may point into inline_.
  SubtreeSummaries(const SubtreeSummaries&) = delete;
  SubtreeSummaries& operator=(const SubtreeSummaries&) = delete;

  /// IndexedApplyAnyOnce's contract, answered from the summaries.
  std::optional<TermPtr> ApplyAnyOnce(const TermPtr& term, RewriteStep& step) {
    Summary summary = Summarize(term);
    if (summary.rule == kNoRedex) return std::nullopt;
    const Rule& rule = rules_[summary.rule];
    std::vector<size_t> path;
    const TermPtr* node = &term;
    while (summary.where != kHere) {
      path.push_back(summary.where);
      Evict(node->get());  // the spine GraftAlongPath replaces
      node = &(*node)->child(summary.where);
      summary = Summarize(*node);
    }
    // Summaries only matched; the contractum is built here, once, so its
    // nodes are as fresh as the other scans'.
    std::optional<TermPtr> after = rewriter_.ApplyAtRoot(rule, *node);
    KOLA_CHECK(after.has_value());
    EvictReplaced(*node, *after);
    TermPtr result = GraftAlongPath(term, path, 0, *after);
    step.rule_id = rule.id;
    step.path = std::move(path);
    step.before = *node;
    step.after = std::move(*after);
    step.result = result;
    return result;
  }

 private:
  static constexpr uint32_t kNoRedex = UINT32_MAX;  // Summary::rule
  static constexpr uint32_t kHere = UINT32_MAX;     // Summary::where

  struct Summary {
    uint32_t rule;   // lowest matching rule index in the subtree
    uint32_t where;  // kHere, or the child whose subtree holds it
  };
  struct Slot {
    const Term* node;
    Summary summary;
  };

  Summary Summarize(const TermPtr& node) {
    if (const Summary* known = Find(node.get())) return *known;
    Summary summary{kNoRedex, kHere};
    for (size_t i = 0; i < node->arity(); ++i) {
      const Summary child = Summarize(node->child(i));
      if (child.rule < summary.rule) {
        summary = {child.rule, static_cast<uint32_t>(i)};
      }
    }
    // Filled after the children are done: CandidatesAt refills the shared
    // scratch buffer at every node.
    index_.CandidatesAt(*node, &candidates_);
    for (uint32_t r : candidates_) {
      if (r > summary.rule) break;  // candidates ascend
      if (Fires(rules_[r], node)) {
        summary = {r, kHere};
        break;
      }
    }
    Insert(node.get(), summary);
    return summary;
  }

  /// ApplyAtRoot's verdict without building the contractum.
  bool Fires(const Rule& rule, const TermPtr& node) const {
    if (rule.conditions.empty()) return Matches(rule.lhs, node);
    Bindings bindings;
    return MatchTerm(rule.lhs, node, &bindings) &&
           rewriter_.ConditionsHold(rule, bindings);
  }

  /// Evicts the redex's nodes that `after` does not reach. The contractum
  /// is fresh rhs structure over subterms bound in the redex; those bound
  /// subterms are the nodes of `after` the table already knows, and they
  /// keep their summaries.
  void EvictReplaced(const TermPtr& before, const TermPtr& after) {
    kept_.clear();
    CollectKnown(after);
    EvictUnkept(before);
  }

  void CollectKnown(const TermPtr& node) {
    if (Find(node.get()) != nullptr) {
      kept_.push_back(node.get());
      return;
    }
    for (const TermPtr& child : node->children()) CollectKnown(child);
  }

  void EvictUnkept(const TermPtr& node) {
    for (const Term* kept : kept_) {
      if (kept == node.get()) return;
    }
    Evict(node.get());
    for (const TermPtr& child : node->children()) EvictUnkept(child);
  }

  // Open addressing with linear probing over Fibonacci-hashed addresses;
  // the load factor stays at or below one half.
  size_t SlotOf(const Term* node) const {
    return static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(node) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  const Summary* Find(const Term* node) const {
    for (size_t i = SlotOf(node);; i = (i + 1) & mask_) {
      if (slots_[i].node == node) return &slots_[i].summary;
      if (slots_[i].node == nullptr) return nullptr;
    }
  }

  void Insert(const Term* node, Summary summary) {
    if (2 * (used_ + 1) > capacity_) {
      std::vector<Slot> old(slots_, slots_ + capacity_);
      Reset(2 * capacity_);
      for (const Slot& slot : old) {
        if (slot.node != nullptr) Place(slot);
      }
    }
    Place({node, summary});
  }

  void Place(const Slot& slot) {
    size_t i = SlotOf(slot.node);
    while (slots_[i].node != nullptr) i = (i + 1) & mask_;
    slots_[i] = slot;
    ++used_;
  }

  /// Removes `node`'s slot, if any, shifting later slots of its probe run
  /// back so every remaining key stays reachable from its home slot.
  void Evict(const Term* node) {
    size_t hole = SlotOf(node);
    while (slots_[hole].node != node) {
      if (slots_[hole].node == nullptr) return;
      hole = (hole + 1) & mask_;
    }
    for (size_t i = (hole + 1) & mask_; slots_[i].node != nullptr;
         i = (i + 1) & mask_) {
      // Slot i may fill the hole unless its home lies after the hole.
      const size_t home = SlotOf(slots_[i].node);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].node = nullptr;
    --used_;
  }

  /// Tables for terms of up to 128 nodes live inline: a heap block of
  /// 1 KiB or more makes glibc consolidate its fast bins first, which
  /// costs a mid-size query's call more than its whole second sweep.
  void Reset(size_t capacity) {
    if (capacity <= inline_.size()) {
      slots_ = inline_.data();
    } else {
      heap_.resize(capacity);
      slots_ = heap_.data();
    }
    std::fill_n(slots_, capacity, Slot{nullptr, {kNoRedex, kHere}});
    capacity_ = capacity;
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    used_ = 0;
  }

  const Rewriter& rewriter_;
  const std::vector<Rule>& rules_;
  const RuleIndex& index_;
  std::array<Slot, 256> inline_;
  std::vector<Slot> heap_;
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t used_ = 0;
  std::vector<uint32_t> candidates_;
  std::vector<const Term*> kept_;
};

std::optional<TermPtr> Rewriter::LinearApplyAnyOnce(
    const std::vector<Rule>& rules, const TermPtr& term,
    RewriteStep* step) const {
  for (const Rule& rule : rules) {
    std::vector<size_t> path;
    auto result = ApplyOnceImpl(rule, term, &path, step);
    if (result) {
      if (step != nullptr) step->result = *result;
      return result;
    }
  }
  return std::nullopt;
}

StatusOr<TermPtr> Rewriter::Fixpoint(const std::vector<Rule>& rules,
                                     TermPtr term, Trace* trace,
                                     int max_steps) const {
  return FixpointImpl(rules, RuleSetFingerprint(rules), std::move(term),
                      trace, max_steps);
}

StatusOr<TermPtr> Rewriter::Fixpoint(const RuleSet& rules, TermPtr term,
                                     Trace* trace, int max_steps) const {
  return FixpointImpl(rules.rules(), rules.fingerprint(), std::move(term),
                      trace, max_steps);
}

StatusOr<TermPtr> Rewriter::FixpointImpl(const std::vector<Rule>& rules,
                                         uint64_t fingerprint, TermPtr term,
                                         Trace* trace, int max_steps) const {
  // Entry boundary: an unconditional clock probe, so a fixpoint entered
  // after a slow rule application (the periodic in-Charge sampling can
  // trail the deadline by hundreds of ms) stops before sweeping at all.
  if (options_.governor != nullptr) {
    KOLA_RETURN_IF_ERROR(options_.governor->CheckNow());
  }
  // Hoisted out of the sweep loop: one pool probe per Fixpoint call, not
  // per firing.
  const std::shared_ptr<const RuleIndex> index = IndexFor(rules, fingerprint);
  if (trace != nullptr && trace->initial == nullptr) trace->initial = term;
  const bool faults_armed = ActiveFaultInjector() != nullptr;
  // Indexed sweeps answer from subtree summaries once a firing has left a
  // term of kSummarizedNodes or more: a call whose first sweep finds
  // nothing (most calls) builds no table, and neither does one over a
  // small term, which a full sweep covers for less than the table costs.
  std::optional<SubtreeSummaries> summaries;
  for (int i = 0; i < max_steps; ++i) {
    // One governor charge per match sweep (whether or not a rule fires):
    // the full-term sweep is the unit of work here, and charging before it
    // keeps the deadline responsive even on the final, fruitless sweep.
    if (options_.governor != nullptr) {
      KOLA_RETURN_IF_ERROR(options_.governor->Charge());
    }
    if (faults_armed) {
      KOLA_RETURN_IF_ERROR(MaybeInjectFault(FaultSite::kRuleApplication));
    }
    RewriteStep step;
    std::optional<TermPtr> result;
    if (index == nullptr) {
      result = LinearApplyAnyOnce(rules, term, &step);
    } else if (summaries.has_value()) {
      result = summaries->ApplyAnyOnce(term, step);
    } else {
      result = IndexedApplyAnyOnce(rules, term, &step, *index);
    }
    if (!result) {
      // Exit boundary: latch a just-passed deadline now (ignoring the
      // verdict -- this fixpoint's work is complete and keeps) so the next
      // phase stops at its first probe instead of up to 512 charges later.
      if (options_.governor != nullptr) (void)options_.governor->CheckNow();
      return term;
    }
    term = std::move(*result);
    if (trace != nullptr) trace->steps.push_back(std::move(step));
    if (index != nullptr && !summaries.has_value() &&
        term->node_count() >= kSummarizedNodes) {
      summaries.emplace(*this, rules, *index, term->node_count());
    }
  }
  return ResourceExhaustedError("rewrite fixpoint exceeded " +
                                std::to_string(max_steps) + " steps");
}

}  // namespace kola
