#ifndef KOLA_OPTIMIZER_CODE_MOTION_H_
#define KOLA_OPTIMIZER_CODE_MOTION_H_

#include <vector>

#include "common/statusor.h"
#include "coko/strategy.h"
#include "rewrite/engine.h"
#include "term/term.h"

namespace kola {

/// Outcome of the code-motion conceptual transformation (Section 3.2 /
/// Figure 6): hoisting an environment-only predicate out of an inner loop,
/// replacing the loop by a conditional.
struct CodeMotionResult {
  TermPtr query;
  bool moved = false;  // rule 15 fired: a loop became a conditional
  Trace trace;
};

/// The blocks, in order (RuleCatalog::Get().code_motion):
///   decompose-predicate   rules 13, 7 and the inverse facts, 14
///   hoist-conditional     rule 15 (fires only when the predicate examines
///                         the environment component pi1 -- the structural
///                         stand-in for AQUA's free-variable analysis)
///   distribute            rule 16
///   cleanup               rules 9, 10, 3, 8, 1, 2, 14 right-to-left
const std::vector<RuleBlock>& CodeMotionBlocks();

/// Runs the blocks on `query` (object- or function-sorted term).
StatusOr<CodeMotionResult> ApplyCodeMotion(const TermPtr& query,
                                           const Rewriter& rewriter);

/// The paper's Figure 2 queries in KOLA form (Section 3.2): K3 pairs each
/// person with their children older than 25 (predicate on the CHILD, not
/// hoistable); K4 pairs each person with all children if the PERSON is
/// older than 25 (hoistable).
TermPtr QueryK3();
TermPtr QueryK4();

}  // namespace kola

#endif  // KOLA_OPTIMIZER_CODE_MOTION_H_
