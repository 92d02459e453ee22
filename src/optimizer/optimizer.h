#ifndef KOLA_OPTIMIZER_OPTIMIZER_H_
#define KOLA_OPTIMIZER_OPTIMIZER_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/statusor.h"
#include "egraph/egraph.h"
#include "optimizer/cost.h"
#include "rewrite/engine.h"
#include "rewrite/properties.h"
#include "term/term.h"

namespace kola {

/// Why and where an optimization pass stopped early. Every rewrite is
/// semantics-preserving, so any prefix of the pipeline yields a sound plan
/// -- when a budget runs out or a rule block fails, the optimizer keeps
/// the best term it had and reports the stop here instead of erroring.
struct Degradation {
  bool degraded = false;
  std::string phase;        // pipeline phase that stopped ("" when clean)
  StatusCode code = StatusCode::kOk;  // the failure's status code
  std::string reason;       // the failure's message
  int64_t steps_spent = 0;  // governor steps charged at the stop (0 if
                            // ungoverned)

  /// "" when not degraded, else e.g.
  /// "degraded at loop-fusion (RESOURCE_EXHAUSTED: ...) after 512 steps".
  std::string ToString() const;
};

/// Result of a full optimization pass.
struct OptimizeResult {
  TermPtr query;                       // chosen plan
  TermPtr rewritten;                   // fully transformed candidate
  double cost_before = 0;              // estimated cost of the input
  double cost_after = 0;               // estimated cost of the candidate
  bool kept_rewrite = false;           // candidate won on estimated cost
  std::vector<std::string> applied_blocks;
  Degradation degradation;             // set when the pipeline stopped early
  Trace trace;                         // every rule firing
  EGraphStats egraph;                  // all zero unless use_egraph ran
};

/// One entry of OptimizeAll: `status` is OK iff `result` is populated.
/// A query that exhausts its budget degrades (OK + Degradation inside the
/// result); only failures outside the degradation contract -- a worker
/// dying, a thrown exception -- land in `status`, and they poison only
/// their own entry, never the batch.
struct BatchOptimizeResult {
  Status status;
  std::optional<OptimizeResult> result;

  bool ok() const { return status.ok(); }
};

/// The end-to-end rule-driven optimizer: simplification, code motion,
/// hidden-join untangling, final cleanup -- all of it rules + strategies,
/// no head or body routines. Cost-based acceptance uses the CostModel.
class Optimizer {
 public:
  /// `properties` enables precondition-guarded rules (may be nullptr).
  /// `db` grounds extent cardinalities for the cost model (may be nullptr).
  /// Both must outlive the optimizer and stay unmodified while it runs.
  Optimizer(const PropertyStore* properties, const Database* db)
      : Optimizer(properties, db, RewriterOptions::Defaults()) {}

  /// As above, with explicit engine tunables -- the soundness harness uses
  /// this to run the same pipeline with and without the rule index.
  Optimizer(const PropertyStore* properties, const Database* db,
            RewriterOptions options)
      : rewriter_(properties, options),
        cost_model_(db),
        db_(db) {}

  /// Runs the full pipeline. Exhaustion is NOT an error: when a phase
  /// fails (budget, deadline, injected fault, bad rule block), the pass
  /// stops, keeps the term produced by the completed phases -- the input
  /// query is the floor -- and returns OK with `degradation` populated.
  /// The returned plan is always sound; a non-OK Status can only come
  /// from the contract being violated before any rewriting starts.
  /// Ungoverned: budgets come only from the Governor overload below.
  StatusOr<OptimizeResult> Optimize(const TermPtr& query) const;

  /// As above under a shared resource budget: the governor's deadline and
  /// step budget are charged by every fixpoint sweep and (if the caller
  /// also wires it into EvalOptions) evaluator tick driven by this pass.
  /// `governor` may be nullptr (ungoverned); it is not owned.
  StatusOr<OptimizeResult> Optimize(const TermPtr& query,
                                    const Governor* governor) const;

  /// Optimizes every query of the batch, fanning out across up to `jobs`
  /// worker threads; entries come back in input order and each OK entry is
  /// byte-identical to what Optimize(queries[i], governor) returns,
  /// whatever `jobs` is (a worker owns its whole Optimizer clone --
  /// rewriter and cost model -- so there is no cross-thread engine state,
  /// and Optimize itself is deterministic).
  /// Queries are isolated: one entry failing (worker death, exception)
  /// carries its own non-OK status and leaves every other entry intact.
  /// `governor`, when set, is shared by all workers: one budget for the
  /// whole batch.
  std::vector<BatchOptimizeResult> OptimizeAll(
      std::span<const TermPtr> queries, int jobs = 1,
      const Governor* governor = nullptr) const;

  const Rewriter& rewriter() const { return rewriter_; }

  /// The database the cost model was grounded on (may be nullptr). Exposed
  /// so wrappers (RetrySupervisor) can clone this optimizer with adjusted
  /// engine options.
  const Database* database() const { return db_; }

 private:
  StatusOr<OptimizeResult> RunPipeline(const TermPtr& query,
                                       const Rewriter& rewriter,
                                       const Governor* governor) const;

  Rewriter rewriter_;
  CostModel cost_model_;
  const Database* db_;
};

}  // namespace kola

#endif  // KOLA_OPTIMIZER_OPTIMIZER_H_
