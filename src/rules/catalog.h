#ifndef KOLA_RULES_CATALOG_H_
#define KOLA_RULES_CATALOG_H_

#include <vector>

#include "coko/strategy.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"

namespace kola {

struct CokoModule;

/// The paper's rules 1-24 (Figures 4, 5 and 8), under their original
/// numbering, plus "17b" (the g = id reading of rule 17 that the paper
/// obtains by first applying rule 2 right-to-left; see Section 4.1,
/// footnote 4).
///
/// One deliberate correction: the paper states rule 7 as `inv(gt) => leq`.
/// Rule 13 forces `inv` to denote the *converse* (argument swap) -- that is
/// the only reading under which rule 13 holds for every predicate -- and the
/// converse of `gt` is `lt`, not `leq` (they differ exactly on equal
/// arguments). We ship the sound `inv(gt) => lt`; the as-published variant
/// is available from PaperRule7AsPublished() and is flagged UNSOUND by the
/// verifier (bench_rule_pool reproduces this).
std::vector<Rule> PaperRules();

/// The as-published (unsound) reading of rule 7, for the verifier demo.
Rule PaperRule7AsPublished();

/// Structural normalization rules used by strategies:
///   norm.assoc        (f o g) o h => f o (g o h)
///   norm.unfold       (f o g) ! x => f ! (g ! x)
///   norm.fold         f ! (g ! x) => (f o g) ! x
///   norm.id-apply     id ! x => x
std::vector<Rule> NormalizationRules();

/// Extended pool of generally applicable algebraic rules (ext.*): pair /
/// product laws, predicate logic (including the CNF distribution rules),
/// inverse and complement facts, conditional laws, iterate and set-operator
/// laws, join commutation and selection pushdown, and the
/// injectivity-guarded intersection rule from Section 4.2.
std::vector<Rule> ExtendedRules();

/// The Section 6 bag-extension rules (bag.*): duplicate-elimination
/// deferral via `distinct` / `tobag` over the run-time collection-
/// polymorphic formers. Verified by dedicated property tests (bag_test)
/// rather than the typed verifier; NOT included in AllCatalogRules.
std::vector<Rule> BagRules();

// The section builders above parse their rules from text on every call.
// Everything on the request path reads the process-wide parsed copy
// instead: RuleCatalog::Get() and the accessors below.

/// The compiled rule catalog: the parsed rules and every named rule set
/// and block the optimizer pipeline runs, each fingerprinted once. Every
/// block and exploration rule list is written once, in one COKO module
/// (coko/parser.h) kept in catalog.cc, and read out of it when the catalog
/// is built. Built on first use (thread-safe), never destroyed, and
/// immutable, so every thread shares it without locking. Compiled rule
/// indexes are not held here: they are acquired per Rewriter through
/// Rewriter::IndexFor, which owns the governor byte charge and the index
/// on/off switches.
class RuleCatalog {
 public:
  /// The process-wide catalog.
  static const RuleCatalog& Get();

  /// How many catalogs this process has built: 0 before first use, then 1.
  static int BuildCount();

  RuleCatalog(const RuleCatalog&) = delete;
  RuleCatalog& operator=(const RuleCatalog&) = delete;

  /// PaperRules + NormalizationRules + ExtendedRules (the typed-verifiable
  /// pool); its fingerprint keys the plan cache.
  const RuleSet all;
  /// BagRules (Section 6), kept apart from `all`.
  const RuleSet bag;

  /// General cleanup: identity/constant/projection/conditional laws.
  const RuleBlock simplify;
  /// Rewrites predicates to conjunctive normal form.
  const RuleBlock cnf;
  /// Pushes component-local selections below joins.
  const RuleBlock push_selects_past_joins;
  /// The code-motion blocks (see CodeMotionBlocks in
  /// optimizer/code_motion.h).
  const std::vector<RuleBlock> code_motion;
  /// The hidden-join steps (see HiddenJoinBlocks in
  /// optimizer/hidden_join.h).
  const std::vector<RuleBlock> hidden_join;
  /// Rule 11 plus predicate/identity cleanup: adjacent iterates fuse.
  const RuleBlock loop_fusion;
  /// ExploreJoinPlans' exploration steps (join commutation, selection
  /// pushdown) and the cleanup set run after each of them (the rule lists
  /// of the module's explore-steps and explore-cleanup blocks).
  const RuleSet explore_steps;
  const RuleSet explore_cleanup;
  /// The e-graph's saturation pool: `all` plus every reversed reading that
  /// is itself well-formed (rules are equations), minus reversals whose lhs
  /// is a bare metavariable (they fire at every node and only inflate the
  /// graph), deduplicated by syntax.
  const RuleSet saturation;

 private:
  /// `blocks` is the catalog's COKO module, parsed against `all`.
  RuleCatalog(std::vector<Rule> all, const CokoModule& blocks);
};

/// RuleCatalog::Get().all.rules().
const std::vector<Rule>& AllCatalogRules();

/// Thin accessors for the catalog's prebuilt blocks.
const RuleBlock& CnfBlock();
const RuleBlock& PushSelectsPastJoinsBlock();
const RuleBlock& SimplifyBlock();

}  // namespace kola

#endif  // KOLA_RULES_CATALOG_H_
