#include "rewrite/match.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/macros.h"

namespace kola {

bool Bindings::Bind(const std::string& name, TermPtr term,
                    bool* newly_bound) {
  auto it = bindings_.find(name);
  if (it != bindings_.end()) {
    if (newly_bound != nullptr) *newly_bound = false;
    return Term::Equal(it->second, term);
  }
  bindings_.emplace(name, std::move(term));
  if (newly_bound != nullptr) *newly_bound = true;
  return true;
}

void Bindings::Erase(const std::string& name) { bindings_.erase(name); }

const TermPtr* Bindings::Lookup(const std::string& name) const {
  auto it = bindings_.find(name);
  return it == bindings_.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, TermPtr>> Bindings::Sorted() const {
  std::vector<std::pair<std::string, TermPtr>> sorted(bindings_.begin(),
                                                      bindings_.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

std::string Bindings::ToString() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [name, term] : Sorted()) {
    if (!first) os << ", ";
    first = false;
    os << '?' << name << " -> " << term->ToString();
  }
  os << '}';
  return os.str();
}

namespace {

/// Records MatchTerm's bindings in its Bindings, with the names this call
/// bound in binding order, so a failure anywhere in the pattern can unwind
/// exactly the bindings this call introduced (pre-seeded ones are left
/// alone).
struct TrailBinder {
  Bindings* bindings;
  std::vector<const std::string*> trail;

  bool Bind(const TermPtr& pattern, TermPtr term) {
    bool newly_bound = false;
    if (!bindings->Bind(pattern->name(), std::move(term), &newly_bound)) {
      return false;
    }
    // The name string outlives the trail: it lives in the pattern term,
    // which the caller holds for the whole match.
    if (newly_bound) trail.push_back(&pattern->name());
    return true;
  }

  bool BindLiteral(const TermPtr& pattern, const Value& value) {
    return Bind(pattern, Lit(value));
  }
};

/// Matches' bindings: each metavariable's name and the subterm slot it
/// matched, held inline. Where MatchTerm would allocate -- more
/// metavariables than fit, or a pair literal component to wrap in a fresh
/// node -- it fails the probe and marks it undecided.
struct ProbeBinder {
  std::array<std::pair<const std::string*, const TermPtr*>, 8> bound;
  size_t size = 0;
  bool undecided = false;

  bool Bind(const TermPtr& pattern, const TermPtr& term) {
    for (size_t i = 0; i < size; ++i) {
      if (*bound[i].first == pattern->name()) {
        return Term::Equal(*bound[i].second, term);
      }
    }
    if (size == bound.size()) {
      undecided = true;
      return false;
    }
    // `term` is a child slot of the matched term (or the caller's root),
    // which outlives the probe.
    bound[size++] = {&pattern->name(), &term};
    return true;
  }

  bool BindLiteral(const TermPtr&, const Value&) {
    undecided = true;
    return false;
  }
};

/// Matches `pattern` against the components of a pair-valued literal (the
/// parser folds literal pairs into single literal nodes) without
/// materializing a Lit node per component: only a metavariable binding
/// allocates, and that allocation is the binding itself.
template <typename Binder>
bool MatchLiteralValue(const TermPtr& pattern, const Value& value,
                       Binder* binder) {
  if (pattern->is_metavar()) {
    Sort actual = value.is_bool() ? Sort::kBool : Sort::kObject;
    if (!SortMatches(pattern->sort(), actual)) return false;
    return binder->BindLiteral(pattern, value);
  }
  if (pattern->kind() == TermKind::kPairObj && value.is_pair()) {
    return MatchLiteralValue(pattern->child(0), value.first(), binder) &&
           MatchLiteralValue(pattern->child(1), value.second(), binder);
  }
  if (pattern->kind() == TermKind::kLiteral) {
    return Value::Compare(pattern->literal(), value) == 0;
  }
  // No other pattern shape can denote a literal value.
  return false;
}

template <typename Binder>
bool MatchImpl(const TermPtr& pattern, const TermPtr& term, Binder* binder) {
  if (pattern->is_metavar()) {
    if (!SortMatches(pattern->sort(), term->sort())) return false;
    return binder->Bind(pattern, term);
  }
  // A [x, y] pattern decomposes a pair-valued literal.
  if (pattern->kind() == TermKind::kPairObj &&
      term->kind() == TermKind::kLiteral && term->literal().is_pair()) {
    return MatchLiteralValue(pattern, term->literal(), binder);
  }
  if (pattern->kind() != term->kind()) return false;
  switch (pattern->kind()) {
    case TermKind::kPrimFn:
    case TermKind::kPrimPred:
    case TermKind::kCollection:
      return pattern->name() == term->name();
    case TermKind::kLiteral:
      return Value::Compare(pattern->literal(), term->literal()) == 0;
    case TermKind::kBoolConst:
      return pattern->bool_const() == term->bool_const();
    default:
      break;
  }
  // Same-kind nodes normally agree on arity (Term::Make enforces the
  // signature table), but a malformed term -- e.g. deserialized or built by
  // a future unchecked path -- must yield a clean mismatch, not an abort.
  if (pattern->arity() != term->arity()) return false;
  for (size_t i = 0; i < pattern->arity(); ++i) {
    if (!MatchImpl(pattern->child(i), term->child(i), binder)) return false;
  }
  return true;
}

}  // namespace

bool MatchTerm(const TermPtr& pattern, const TermPtr& term,
               Bindings* bindings) {
  KOLA_CHECK(pattern != nullptr && term != nullptr && bindings != nullptr);
  TrailBinder binder{bindings, {}};
  if (MatchImpl(pattern, term, &binder)) return true;
  // A failed probe leaves no trace: a non-linear pattern that binds ?f
  // early and fails late must not poison the caller's next probe against
  // the same seeded bindings.
  for (const std::string* name : binder.trail) bindings->Erase(*name);
  return false;
}

bool Matches(const TermPtr& pattern, const TermPtr& term) {
  KOLA_CHECK(pattern != nullptr && term != nullptr);
  ProbeBinder probe;
  if (MatchImpl(pattern, term, &probe)) return true;
  if (!probe.undecided) return false;
  Bindings bindings;
  return MatchTerm(pattern, term, &bindings);
}

StatusOr<TermPtr> Substitute(const TermPtr& pattern,
                             const Bindings& bindings) {
  KOLA_CHECK(pattern != nullptr);
  if (pattern->is_metavar()) {
    const TermPtr* bound = bindings.Lookup(pattern->name());
    if (bound == nullptr) {
      return FailedPreconditionError("unbound metavariable ?" +
                                     pattern->name());
    }
    return *bound;
  }
  if (!pattern->has_metavars()) return pattern;
  std::vector<TermPtr> children;
  children.reserve(pattern->arity());
  for (const TermPtr& child : pattern->children()) {
    KOLA_ASSIGN_OR_RETURN(TermPtr replaced, Substitute(child, bindings));
    children.push_back(std::move(replaced));
  }
  return Term::Make(pattern->kind(), std::move(children), pattern->name(),
                    pattern->literal(), pattern->bool_const(),
                    pattern->sort());
}

}  // namespace kola
