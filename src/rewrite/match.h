#ifndef KOLA_REWRITE_MATCH_H_
#define KOLA_REWRITE_MATCH_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "term/term.h"

namespace kola {

/// A set of metavariable bindings produced by matching a pattern against a
/// ground (or partially ground) term. Non-linear patterns (a metavariable
/// occurring twice) bind once and require structural equality on reuse.
class Bindings {
 public:
  /// Binds `name` to `term`. Returns false when `name` is already bound to
  /// a structurally different term (match failure), true otherwise.
  /// `newly_bound` (optional) receives whether this call created the
  /// binding (as opposed to re-confirming an existing one) -- the hook
  /// MatchTerm's undo trail is built on.
  bool Bind(const std::string& name, TermPtr term,
            bool* newly_bound = nullptr);

  /// Removes the binding for `name` if present (undo support; a no-op for
  /// unbound names).
  void Erase(const std::string& name);

  /// Returns nullptr when unbound.
  const TermPtr* Lookup(const std::string& name) const;

  size_t size() const { return bindings_.size(); }
  const std::unordered_map<std::string, TermPtr>& map() const {
    return bindings_;
  }

  /// The bindings sorted by metavariable name -- the deterministic view;
  /// use this (never map()) whenever iteration order is observable.
  std::vector<std::pair<std::string, TermPtr>> Sorted() const;

  /// Renders name-sorted, so diagnostics are byte-stable across runs and
  /// platforms regardless of the underlying container's iteration order.
  std::string ToString() const;

 private:
  std::unordered_map<std::string, TermPtr> bindings_;
};

/// One-way first-order matching: succeeds iff substituting the resulting
/// bindings into `pattern` yields `term`. Metavariables match any subterm of
/// a compatible sort. `bindings` may carry pre-existing bindings (used for
/// conditional rewriting): a pre-bound metavariable only matches a
/// structurally equal subterm. On failure `bindings` is restored to exactly
/// its entry state (bindings added before the failing subpattern are
/// undone), so a caller can probe several patterns against one seeded
/// binding set without a failed probe poisoning the next.
bool MatchTerm(const TermPtr& pattern, const TermPtr& term,
               Bindings* bindings);

/// MatchTerm(pattern, term, &fresh_bindings) without keeping the bindings:
/// the same verdict, and no allocation for the patterns rules are made of
/// (few metavariables, no pair-literal decomposition).
bool Matches(const TermPtr& pattern, const TermPtr& term);

/// Replaces every metavariable in `pattern` by its binding. Fails with
/// FAILED_PRECONDITION if any metavariable is unbound (a rule whose rhs
/// mentions variables absent from the lhs is malformed).
StatusOr<TermPtr> Substitute(const TermPtr& pattern, const Bindings& bindings);

}  // namespace kola

#endif  // KOLA_REWRITE_MATCH_H_
