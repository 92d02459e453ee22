#ifndef KOLA_REWRITE_RULE_H_
#define KOLA_REWRITE_RULE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "rewrite/properties.h"
#include "term/term.h"

namespace kola {

/// A declarative rewrite rule: lhs => rhs, optionally guarded by property
/// conditions on the matched metavariables. Rules contain no code -- the
/// paper's central requirement -- so both sides are plain KOLA patterns and
/// conditions are property atoms resolved through a PropertyStore.
struct Rule {
  /// Stable identifier. Paper rules keep their figure numbering ("1".."24");
  /// reversed rules append "~" (the paper writes i^-1); extension rules are
  /// namespaced ("norm.compose-assoc", "ext....").
  std::string id;
  std::string description;
  TermPtr lhs;
  TermPtr rhs;
  /// All conditions must hold (against a PropertyStore) for the rule to
  /// fire, e.g. injective(?f).
  std::vector<PropertyAtom> conditions;

  std::string ToString() const;
};

/// Builds a rule from concrete syntax, validating that
///  * both sides parse at the given sort,
///  * every metavariable of the rhs and of every condition is bound by the
///    lhs (no invented variables).
StatusOr<Rule> MakeRule(const std::string& id, const std::string& description,
                        const std::string& lhs_text,
                        const std::string& rhs_text, Sort sort);

/// As MakeRule, plus conditions given as (property, pattern-text) pairs.
StatusOr<Rule> MakeConditionalRule(
    const std::string& id, const std::string& description,
    const std::string& lhs_text, const std::string& rhs_text, Sort sort,
    const std::vector<std::pair<std::string, std::string>>& conditions);

/// The right-to-left reading of `rule` (valid because rules are equations).
/// The reversed rule must itself be well-formed (its rhs variables bound by
/// its lhs); returns an error otherwise.
StatusOr<Rule> ReverseRule(const Rule& rule);

/// The pointwise (apply-level) reading of a function-sorted rule: each
/// side's top-level composition chain f1 o f2 o ... o fn becomes
/// f1 ! (f2 ! (... (fn ! ?xx))) for a fresh object variable ?xx. Sound
/// because composition is defined pointwise. The rewrite engine uses these
/// variants to fire a rule in the middle of an apply-nested query (the form
/// produced by unfolding `(f o g) ! x => f ! (g ! x)`), which sidesteps
/// matching modulo associativity of `o`. Errors if `rule` is not
/// function-sorted.
StatusOr<Rule> ApplyLevelVariant(const Rule& rule);

/// Looks up a rule by id. NOT_FOUND when absent -- the right entry point
/// whenever the id comes from user input (shell commands, COKO text,
/// replay files).
StatusOr<const Rule*> TryFindRule(const std::vector<Rule>& rules,
                                  const std::string& id);

/// Finds a rule by id; KOLA_CHECKs that it exists. Only for compile-time
/// constant ids (a miss is a library bug); use TryFindRule for ids that
/// originate outside the library.
const Rule& FindRule(const std::vector<Rule>& rules, const std::string& id);

}  // namespace kola

#endif  // KOLA_REWRITE_RULE_H_
