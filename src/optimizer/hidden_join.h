#ifndef KOLA_OPTIMIZER_HIDDEN_JOIN_H_
#define KOLA_OPTIMIZER_HIDDEN_JOIN_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "coko/strategy.h"
#include "rewrite/engine.h"
#include "term/term.h"

namespace kola {

/// Outcome of the five-step hidden-join strategy (Section 4.1).
struct HiddenJoinResult {
  TermPtr query;      // the transformed (or merely simplified) query
  bool converted = false;  // rule 19 fired: an explicit nest-of-join emerged
  Trace trace;        // every rule firing, in order
  /// Names of the blocks that changed the query, e.g. {"break-up",
  /// "bottom-out", "pull-up-nest", "absorb-join", "polish"}.
  std::vector<std::string> blocks_fired;
};

/// The five steps as named COKO rule blocks, in order
/// (RuleCatalog::Get().hidden_join):
///   1. break-up        rules 17/17b (+ identity cleanup 2, 4, 18)
///   2. bottom-out      rule 19
///   3. pull-up-nest    rules 20, 21
///   4. pull-up-unnest  rules 22, 23
///   5. absorb-join     rule 24 (+ predicate cleanup 3, 5, 6)
/// preceded by a "prep" block (right-association and unfolding into
/// apply-nested form) and followed by a "polish" block (pair-to-product
/// laws, refolding of the composition chain).
const std::vector<RuleBlock>& HiddenJoinBlocks();

/// Runs the full strategy on `query` (an object-sorted term, typically
/// `iterate(...) ! A`). Applicability is discovered by the rules
/// themselves: when step 2 never fires the query is NOT a hidden join over
/// a named set, converted stays false, and the partially simplified query
/// is returned -- the gradual-rules advantage the paper argues for in
/// Section 4.2.
StatusOr<HiddenJoinResult> UntangleHiddenJoin(const TermPtr& query,
                                              const Rewriter& rewriter);

/// Generates a depth-n hidden-join query in the paper's Figure 7 shape over
/// the car-world schema:
///
///   iterate(Kp(T), (id, h1 o g1 o (id, h2 o g2 o ... (id, Kf(B)) ...))) ! A
///
/// with each gi an iter and each hi flat or id. n = 2 with the garage
/// pieces reproduces KG1 exactly. Used by tests and bench_hidden_join.
/// `levels` alternates flat-wrapped iters (like the garage query's grgs
/// level) and plain filtering levels.
StatusOr<TermPtr> MakeHiddenJoinQuery(int depth);

/// The exact Garage Query KG1 of Figure 3.
TermPtr GarageQueryKG1();

/// The exact target KG2 of Figure 3.
TermPtr GarageQueryKG2();

}  // namespace kola

#endif  // KOLA_OPTIMIZER_HIDDEN_JOIN_H_
