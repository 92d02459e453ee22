#ifndef KOLA_EGRAPH_EGRAPH_H_
#define KOLA_EGRAPH_EGRAPH_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "common/statusor.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "term/intern.h"
#include "term/term.h"

namespace kola {

/// Identifier of an equivalence class of terms inside one EGraph.
using EClassId = uint32_t;

/// Counters exposed through OptimizeResult and kolad's STATS endpoint.
struct EGraphStats {
  uint64_t nodes = 0;              // e-nodes created (duplicates excluded)
  uint64_t classes = 0;            // distinct equivalence classes (post-union)
  uint64_t unions = 0;             // Merge calls that actually joined classes
  uint64_t rule_applications = 0;  // rule firings during saturation
  uint64_t processed = 0;          // e-nodes the saturation worklist consumed
  bool saturated = false;          // worklist drained with no cap / stop
};

struct EGraphOptions {
  /// Stop growing once this many e-nodes exist; the worklist halts and
  /// extraction runs over what was built (stats().saturated stays false).
  /// 0 means unbounded.
  size_t max_nodes = 1024;

  /// Budget for saturation: one step per rule firing, e-node bookkeeping
  /// bytes under MemoryCategory::kEGraph, deadline probed per worklist
  /// entry. nullptr means ungoverned. Not owned; must outlive the EGraph.
  const Governor* governor = nullptr;
};

/// E-classes plus congruence closure over interned terms: the equality-
/// saturation backend of ROADMAP item 3.
///
/// Every added term is canonicalized through a private hash-consing arena,
/// then decomposed bottom-up into e-nodes. An e-node keeps the interned
/// subterm that created it (`rep`) and the e-classes of its children; two
/// e-nodes are identical when their reps are structurally equal leaves, or
/// when they share a kind and (canonical) child classes -- every payload-
/// carrying TermKind is a leaf, so non-leaf identity needs no payload
/// compare. Identity is resolved through a hashcons keyed by a
/// platform-stable hash, with a union-find over class ids on top; Rebuild()
/// restores congruence closure after merges (congruent nodes land in one
/// class, to a fixpoint).
///
/// Determinism: class ids are assigned in insertion order, unions keep the
/// smaller root id, hashcons buckets are scanned in insertion order, and
/// every hash is built from the platform-stable Term::stable_hash /
/// StableHashCombine -- so the same AddTerm/Merge/Saturate sequence builds
/// the same e-graph on every platform, and extraction (cost, then smallest
/// rendering) is a pure function of it.
///
/// Single-threaded, like a Rewriter: one EGraph per optimization pass.
class EGraph {
 public:
  explicit EGraph(EGraphOptions options = EGraphOptions());

  EGraph(const EGraph&) = delete;
  EGraph& operator=(const EGraph&) = delete;

  /// Interns `term`, decomposes it into e-nodes (sharing existing ones) and
  /// returns its class. Always completes, even once the governor's memory
  /// budget is exhausted -- seed terms must land so degraded extraction has
  /// something to return -- but a failed bookkeeping charge latches
  /// exhausted() and the governor, which stops the next Saturate step.
  EClassId AddTerm(const TermPtr& term);

  /// Declares the two classes equal (the caller asserts semantic equality,
  /// e.g. both sides derive from one query by equation rules). Returns the
  /// surviving root; congruence is restored by the next Rebuild().
  EClassId Merge(EClassId a, EClassId b);

  /// Canonical representative of `id`'s class.
  EClassId Find(EClassId id) const;

  /// Restores the invariants Merge suspends: canonicalizes every node's
  /// children, re-hashes, and unions congruent nodes, to a fixpoint.
  void Rebuild();

  /// Equality saturation: one pass of a worklist over every e-node (nodes
  /// added by firings join the tail). Each rule of `rules` is tried at each
  /// node's rep via Rewriter::ApplyAtRoot -- the same match + condition +
  /// substitute primitive as the greedy engine -- with the compiled
  /// RuleIndex (when available) filtering candidates exactly, so results
  /// are identical with indexing on or off. A firing adds the rewritten
  /// term and merges it with the node's class.
  ///
  /// A (rule, node) pair never needs a second visit: reps are immutable and
  /// conditions resolve against a fixed PropertyStore, so one drained
  /// worklist IS saturation. Stops early (returning RESOURCE_EXHAUSTED)
  /// when the governor trips; stops silently at max_nodes.
  Status Saturate(const Rewriter& rewriter, const RuleSet& rules);

  /// The smallest term of `id`'s class, by bottom-up e-class minimization:
  /// per class, the least (node_count, then rendering) of each member
  /// node's rep and of the node rebuilt over its children's best terms,
  /// iterated to a fixpoint. Every class holds the concrete subterm that
  /// created it, so extraction cannot fail on a valid id.
  StatusOr<TermPtr> ExtractSmallest(EClassId id);

  /// Candidate plans of `id`'s class for cost ranking: every member node's
  /// rep and its best-children rebuild, deduplicated by rendering, in
  /// deterministic (insertion, then rep-before-rebuild) order.
  std::vector<TermPtr> ExtractCandidates(EClassId id);

  size_t node_count() const { return nodes_.size(); }
  size_t class_count() const;

  /// True once an e-node bookkeeping charge was refused (sticky).
  bool exhausted() const { return exhausted_; }

  /// Snapshot with classes recomputed.
  EGraphStats stats() const;

 private:
  struct ENode {
    TermPtr rep;                    // interned subterm that created the node
    std::vector<EClassId> children; // canonical as of the last Rebuild
    EClassId cls = 0;
  };

  struct PtrHash {
    size_t operator()(const TermPtr& t) const {
      return std::hash<const Term*>{}(t.get());
    }
  };
  struct PtrEq {
    bool operator()(const TermPtr& a, const TermPtr& b) const {
      return a.get() == b.get();
    }
  };

  uint64_t NodeHash(const Term& rep,
                    const std::vector<EClassId>& children) const;
  bool CongruentWithKey(const ENode& node, const Term& rep,
                        const std::vector<EClassId>& children) const;
  /// Finds or creates the e-node for (rep, child classes); returns its
  /// class. The only place nodes and classes are born.
  EClassId NodeFor(const TermPtr& rep, std::vector<EClassId> children);
  /// Recomputes the per-class best-term table (see ExtractSmallest).
  std::vector<TermPtr> BestByClass();

  EGraphOptions options_;
  /// Private arena: canonical pointers make the memo a pointer map and
  /// leaf identity a pointer compare in the common case. The hashcons
  /// stays the authority -- under fault injection or a refused arena
  /// charge Intern legitimately hands terms back un-canonicalized, and
  /// structural leaf equality still unifies them.
  TermInterner arena_;
  /// Canonical subterm -> class at insertion (callers Find through it).
  /// Keyed by owning pointer: TermIds are unusable here because "first tag
  /// wins" lets canonical terms of this arena carry another arena's id.
  std::unordered_map<TermPtr, EClassId, PtrHash, PtrEq> memo_;
  std::vector<ENode> nodes_;
  std::vector<EClassId> parent_;  // union-find over class ids
  /// Stable node hash -> node indices in insertion order. Valid while
  /// !dirty_.
  std::unordered_map<uint64_t, std::vector<uint32_t>> hashcons_;
  bool dirty_ = false;
  bool exhausted_ = false;
  MemoryCharge charge_;
  EGraphStats stats_;
};

/// Ranks extracted plans; adapts CostModel::EstimateQueryCost without an
/// optimizer-layer dependency. A non-OK status skips the candidate.
using PlanCostFn = std::function<StatusOr<double>(const TermPtr&)>;

struct EGraphOutcome {
  /// OK, or RESOURCE_EXHAUSTED when saturation was cut short -- `plan` is
  /// then the best extracted from the partial graph (never null).
  Status status;
  TermPtr plan;
  EGraphStats stats;
};

/// The whole backend in one call: seeds an e-graph with `query` and the
/// greedy pipeline's `greedy` plan (merged into one class -- both derive
/// from the query by equation rules), saturates the catalog's saturation
/// pool (RuleCatalog::Get().saturation) under `options`, and extracts the
/// cheapest plan by `cost` with deterministic tie-breaks (cost, then
/// smallest rendering). `greedy` is always a ranked candidate, so the
/// result never costs more than the greedy plan;
/// if `cost(greedy)` itself fails, `greedy` is returned unchanged.
EGraphOutcome SaturateAndExtract(const TermPtr& query, const TermPtr& greedy,
                                 const Rewriter& rewriter,
                                 const PlanCostFn& cost,
                                 const EGraphOptions& options);

}  // namespace kola

#endif  // KOLA_EGRAPH_EGRAPH_H_
