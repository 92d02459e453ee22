#include "rewrite/rule.h"

#include <set>

#include "common/macros.h"
#include "term/parser.h"

namespace kola {

namespace {

void CollectMetaVars(const TermPtr& term, std::set<std::string>* out) {
  if (term->is_metavar()) {
    out->insert(term->name());
    return;
  }
  if (!term->has_metavars()) return;
  for (const TermPtr& child : term->children()) CollectMetaVars(child, out);
}

Status ValidateVariableContainment(const Rule& rule) {
  std::set<std::string> lhs_vars;
  CollectMetaVars(rule.lhs, &lhs_vars);
  std::set<std::string> used;
  CollectMetaVars(rule.rhs, &used);
  for (const PropertyAtom& condition : rule.conditions) {
    CollectMetaVars(condition.pattern, &used);
  }
  for (const std::string& name : used) {
    if (lhs_vars.count(name) == 0) {
      return InvalidArgumentError("rule " + rule.id + ": metavariable ?" +
                                  name + " is not bound by the lhs");
    }
  }
  return Status::OK();
}

/// Tries the three sorts a rule side can have when the caller passes
/// Sort::kObject for a full-query rule like rule 19.
StatusOr<TermPtr> ParseSide(const std::string& text, Sort sort) {
  return ParseTerm(text, sort);
}

}  // namespace

std::string Rule::ToString() const {
  std::string s = "[" + id + "] " + lhs->ToString() + " => " +
                  rhs->ToString();
  if (!conditions.empty()) {
    s += "  if ";
    for (size_t i = 0; i < conditions.size(); ++i) {
      if (i > 0) s += " and ";
      s += conditions[i].property + "(" + conditions[i].pattern->ToString() +
           ")";
    }
  }
  return s;
}

StatusOr<Rule> MakeRule(const std::string& id, const std::string& description,
                        const std::string& lhs_text,
                        const std::string& rhs_text, Sort sort) {
  return MakeConditionalRule(id, description, lhs_text, rhs_text, sort, {});
}

StatusOr<Rule> MakeConditionalRule(
    const std::string& id, const std::string& description,
    const std::string& lhs_text, const std::string& rhs_text, Sort sort,
    const std::vector<std::pair<std::string, std::string>>& conditions) {
  Rule rule;
  rule.id = id;
  rule.description = description;
  {
    auto lhs = ParseSide(lhs_text, sort);
    if (!lhs.ok()) {
      return lhs.status().WithContext("rule " + id + " lhs");
    }
    rule.lhs = std::move(lhs).value();
  }
  {
    auto rhs = ParseSide(rhs_text, sort);
    if (!rhs.ok()) {
      return rhs.status().WithContext("rule " + id + " rhs");
    }
    rule.rhs = std::move(rhs).value();
  }
  for (const auto& [property, pattern_text] : conditions) {
    // Condition patterns are usually single function metavariables; parse at
    // function sort first, falling back to predicate then object.
    StatusOr<TermPtr> pattern = ParseTerm(pattern_text, Sort::kFunction);
    if (!pattern.ok()) pattern = ParseTerm(pattern_text, Sort::kPredicate);
    if (!pattern.ok()) pattern = ParseTerm(pattern_text, Sort::kObject);
    if (!pattern.ok()) {
      return pattern.status().WithContext("rule " + id + " condition");
    }
    rule.conditions.push_back(
        PropertyAtom{property, std::move(pattern).value()});
  }
  KOLA_RETURN_IF_ERROR(ValidateVariableContainment(rule));
  if (Term::Equal(rule.lhs, rule.rhs)) {
    return InvalidArgumentError("rule " + id + " is trivial (lhs == rhs)");
  }
  return rule;
}

namespace {

/// Splits a right-nested composition f1 o (f2 o (... o fn)) into factors.
void SplitComposeChain(const TermPtr& term, std::vector<TermPtr>* factors) {
  if (term->kind() == TermKind::kCompose) {
    factors->push_back(term->child(0));
    SplitComposeChain(term->child(1), factors);
    return;
  }
  factors->push_back(term);
}

TermPtr NestApplies(const std::vector<TermPtr>& factors, TermPtr argument) {
  TermPtr result = std::move(argument);
  for (size_t i = factors.size(); i-- > 0;) {
    result = Apply(factors[i], std::move(result));
  }
  return result;
}

}  // namespace

StatusOr<Rule> ApplyLevelVariant(const Rule& rule) {
  if (rule.lhs->sort() != Sort::kFunction ||
      rule.rhs->sort() != Sort::kFunction) {
    return InvalidArgumentError("apply-level variant requires a "
                                "function-sorted rule: " +
                                rule.id);
  }
  // "xx" starts with 'x', so the naming convention gives it object sort; a
  // double letter avoids clashing with the paper's single-letter variables.
  TermPtr fresh = ObjVar("xx");
  std::vector<TermPtr> lhs_factors;
  SplitComposeChain(rule.lhs, &lhs_factors);
  std::vector<TermPtr> rhs_factors;
  SplitComposeChain(rule.rhs, &rhs_factors);
  Rule variant = rule;
  variant.id = rule.id + "!";
  variant.description = rule.description + " (apply-level)";
  variant.lhs = NestApplies(lhs_factors, fresh);
  variant.rhs = NestApplies(rhs_factors, fresh);
  KOLA_RETURN_IF_ERROR(ValidateVariableContainment(variant));
  return variant;
}

StatusOr<Rule> ReverseRule(const Rule& rule) {
  Rule reversed = rule;
  reversed.id = rule.id + "~";
  reversed.description = rule.description + " (right-to-left)";
  reversed.lhs = rule.rhs;
  reversed.rhs = rule.lhs;
  KOLA_RETURN_IF_ERROR(ValidateVariableContainment(reversed));
  return reversed;
}

StatusOr<const Rule*> TryFindRule(const std::vector<Rule>& rules,
                                  const std::string& id) {
  for (const Rule& rule : rules) {
    if (rule.id == id) return &rule;
  }
  return NotFoundError("no rule with id '" + id + "' in a catalog of " +
                       std::to_string(rules.size()) + " rules");
}

const Rule& FindRule(const std::vector<Rule>& rules, const std::string& id) {
  auto found = TryFindRule(rules, id);
  KOLA_CHECK_OK(found.status());
  return *found.value();
}

}  // namespace kola
