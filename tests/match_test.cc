#include <gtest/gtest.h>

#include "rewrite/match.h"
#include "term/parser.h"
#include "term/term.h"

namespace kola {
namespace {

TermPtr P(const char* text, Sort sort = Sort::kFunction) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

TEST(BindingsTest, BindAndLookup) {
  Bindings b;
  EXPECT_TRUE(b.Bind("f", Id()));
  ASSERT_NE(b.Lookup("f"), nullptr);
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), Id()));
  EXPECT_EQ(b.Lookup("g"), nullptr);
}

TEST(BindingsTest, RebindSameTermSucceeds) {
  Bindings b;
  EXPECT_TRUE(b.Bind("f", Compose(Pi1(), Pi2())));
  EXPECT_TRUE(b.Bind("f", Compose(Pi1(), Pi2())));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BindingsTest, RebindDifferentTermFails) {
  Bindings b;
  EXPECT_TRUE(b.Bind("f", Pi1()));
  EXPECT_FALSE(b.Bind("f", Pi2()));
}

TEST(MatchTest, MetaVarMatchesAnySubterm) {
  Bindings b;
  EXPECT_TRUE(MatchTerm(P("?f"), P("city o addr"), &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), P("city o addr")));
}

TEST(MatchTest, SortGuardsMetaVarMatching) {
  Bindings b;
  // A function metavariable must not match a predicate.
  EXPECT_FALSE(MatchTerm(P("?f"), P("gt", Sort::kPredicate), &b));
  // An object metavariable accepts a bool (subsort).
  Bindings b2;
  EXPECT_TRUE(MatchTerm(P("?k", Sort::kObject),
                        P("gt ? [1, 2]", Sort::kObject), &b2));
}

TEST(MatchTest, StructuralMatch) {
  Bindings b;
  EXPECT_TRUE(MatchTerm(P("?f o id"), P("age o id"), &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), P("age")));
  Bindings b2;
  EXPECT_FALSE(MatchTerm(P("?f o id"), P("id o age"), &b2));
}

TEST(MatchTest, NonLinearPatternRequiresEqualSubterms) {
  TermPtr pattern = P("?f o ?f");
  Bindings b;
  EXPECT_TRUE(MatchTerm(pattern, P("age o age"), &b));
  Bindings b2;
  EXPECT_FALSE(MatchTerm(pattern, P("age o name"), &b2));
}

TEST(MatchTest, LiteralsMatchByValue) {
  Bindings b;
  EXPECT_TRUE(MatchTerm(P("Kf(25)"), P("Kf(25)"), &b));
  Bindings b2;
  EXPECT_FALSE(MatchTerm(P("Kf(25)"), P("Kf(26)"), &b2));
}

TEST(MatchTest, PrimitivesMatchByName) {
  Bindings b;
  EXPECT_FALSE(MatchTerm(P("pi1"), P("pi2"), &b));
  EXPECT_TRUE(MatchTerm(P("pi1"), P("pi1"), &b));
}

TEST(MatchTest, BoolConstMatching) {
  Bindings b;
  EXPECT_TRUE(MatchTerm(P("Kp(T)", Sort::kPredicate),
                        P("Kp(T)", Sort::kPredicate), &b));
  Bindings b2;
  EXPECT_FALSE(MatchTerm(P("Kp(T)", Sort::kPredicate),
                         P("Kp(F)", Sort::kPredicate), &b2));
  Bindings b3;
  EXPECT_TRUE(MatchTerm(P("Kp(?b)", Sort::kPredicate),
                        P("Kp(F)", Sort::kPredicate), &b3));
}

TEST(BindingsTest, ToStringIsSortedByNameRegardlessOfInsertionOrder) {
  // Regression: diagnostics must be byte-stable across runs and container
  // implementations, so ToString renders name-sorted.
  Bindings forward;
  EXPECT_TRUE(forward.Bind("zz", Pi1()));
  EXPECT_TRUE(forward.Bind("mid", Id()));
  EXPECT_TRUE(forward.Bind("aa", Pi2()));
  Bindings reverse;
  EXPECT_TRUE(reverse.Bind("aa", Pi2()));
  EXPECT_TRUE(reverse.Bind("mid", Id()));
  EXPECT_TRUE(reverse.Bind("zz", Pi1()));
  EXPECT_EQ(forward.ToString(), reverse.ToString());
  EXPECT_EQ(forward.ToString(), "{?aa -> pi2, ?mid -> id, ?zz -> pi1}");

  auto sorted = forward.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, "aa");
  EXPECT_EQ(sorted[1].first, "mid");
  EXPECT_EQ(sorted[2].first, "zz");
}

TEST(MatchTest, FailedMatchRestoresPreSeededBindings) {
  // Regression: MatchTerm used to leave `bindings` in an unspecified state
  // on failure -- partial bindings from the prefix that DID match leaked
  // out and poisoned the caller's next probe. The contract now guarantees
  // failure restores the entry state exactly.
  Bindings b;
  ASSERT_TRUE(b.Bind("g", P("addr")));
  // ?f binds to age, then ?g is already bound to addr and conflicts: the
  // match fails LATE, after ?f was added -- ?f must be gone afterwards,
  // and the pre-seeded ?g untouched.
  EXPECT_FALSE(MatchTerm(P("?f o ?g"), P("age o name"), &b));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Lookup("f"), nullptr);
  ASSERT_NE(b.Lookup("g"), nullptr);
  EXPECT_TRUE(Term::Equal(*b.Lookup("g"), P("addr")));
  // The restored set is genuinely reusable: a compatible term now matches.
  EXPECT_TRUE(MatchTerm(P("?f o ?g"), P("age o addr"), &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), P("age")));
}

TEST(MatchTest, NonLinearPatternFailingLateUndoesItsOwnBindings) {
  // ?f o ?f on age o name: the first ?f binds, the second conflicts. After
  // the failure the SAME Bindings must behave as if never touched -- the
  // non-linear pattern must then succeed against a consistent term, which
  // it could not if the stale ?f -> age binding survived.
  Bindings b;
  TermPtr pattern = P("?f o ?f");
  EXPECT_FALSE(MatchTerm(pattern, P("age o name"), &b));
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(MatchTerm(pattern, P("name o name"), &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), P("name")));
}

TEST(MatchTest, FailureInsidePairLiteralRestoresBindings) {
  // The pair-literal decomposition path has its own binding writes; a deep
  // shape failure there must unwind them too.
  Bindings b;
  ASSERT_TRUE(b.Bind("keep", P("pi1")));
  EXPECT_FALSE(MatchTerm(P("[?x, [?y, 9]]", Sort::kObject),
                         P("[7, [8, 3]]", Sort::kObject), &b));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Lookup("x"), nullptr);
  EXPECT_EQ(b.Lookup("y"), nullptr);
}

TEST(MatchTest, PairPatternDecomposesPairLiterals) {
  // The parser folds [1, 2] into a single pair-valued literal node.
  TermPtr term = P("[1, 2]", Sort::kObject);
  ASSERT_EQ(term->kind(), TermKind::kLiteral);
  Bindings b;
  ASSERT_TRUE(MatchTerm(P("[?x, ?y]", Sort::kObject), term, &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("x"), LitInt(1)));
  EXPECT_TRUE(Term::Equal(*b.Lookup("y"), LitInt(2)));
  // Literal components compare by value...
  Bindings b2;
  EXPECT_TRUE(MatchTerm(P("[1, ?y]", Sort::kObject), term, &b2));
  Bindings b3;
  EXPECT_FALSE(MatchTerm(P("[3, ?y]", Sort::kObject), term, &b3));
  // ...nested pairs recurse, and shape mismatches fail cleanly.
  Bindings b4;
  EXPECT_TRUE(MatchTerm(P("[?x, [?y, ?z]]", Sort::kObject),
                        P("[7, [8, 9]]", Sort::kObject), &b4));
  Bindings b5;
  EXPECT_FALSE(MatchTerm(P("[?x, [?y, ?z]]", Sort::kObject), term, &b5));
  // A non-pair literal never matches a pair pattern.
  Bindings b6;
  EXPECT_FALSE(MatchTerm(P("[?x, ?y]", Sort::kObject),
                         P("25", Sort::kObject), &b6));
}

TEST(MatchTest, PaperRule11Pattern) {
  TermPtr pattern = P("iterate(?p, ?f) o iterate(?q, ?g)");
  TermPtr query = P("iterate(Kp(T), city) o iterate(Kp(T), addr)");
  Bindings b;
  ASSERT_TRUE(MatchTerm(pattern, query, &b));
  EXPECT_TRUE(Term::Equal(*b.Lookup("p"), P("Kp(T)", Sort::kPredicate)));
  EXPECT_TRUE(Term::Equal(*b.Lookup("f"), P("city")));
  EXPECT_TRUE(Term::Equal(*b.Lookup("g"), P("addr")));
}

TEST(MatchesTest, AgreesWithMatchTermWithoutBindings) {
  // Matches is MatchTerm's verdict against fresh bindings, on every path:
  // linear and non-linear patterns, sort guards, literals, and the pair
  // literal decomposition and many-variable patterns it hands to MatchTerm.
  const std::pair<TermPtr, TermPtr> cases[] = {
      {P("?f o id"), P("age o id")},
      {P("?f o id"), P("id o age")},
      {P("?f o ?f"), P("age o age")},
      {P("?f o ?f"), P("age o name")},
      {P("?f o ?f"), P("(age o id) o (age o id)")},
      {P("?f"), P("gt", Sort::kPredicate)},
      {P("?k", Sort::kObject), P("gt ? [1, 2]", Sort::kObject)},
      {P("iterate(?p, ?f) o iterate(?q, ?g)"),
       P("iterate(Kp(T), city) o iterate(Kp(T), addr)")},
      {P("[?x, ?y]", Sort::kObject), P("[1, 2]", Sort::kObject)},
      {P("[?x, ?x]", Sort::kObject), P("[1, 1]", Sort::kObject)},
      {P("[?x, ?x]", Sort::kObject), P("[1, 2]", Sort::kObject)},
      {P("[3, ?y]", Sort::kObject), P("[1, 2]", Sort::kObject)},
      // Nine metavariables: more than the probe tracks inline.
      {P("(?f1, ?f2) o (?f3, ?f4) o (?f5, ?f6) o (?f7, ?f8) o (?f9, ?f1)"),
       P("(age, id) o (id, id) o (name, id) o (id, age) o (id, age)")},
      {P("(?f1, ?f2) o (?f3, ?f4) o (?f5, ?f6) o (?f7, ?f8) o (?f9, ?f1)"),
       P("(age, id) o (id, id) o (name, id) o (id, age) o (id, id)")},
  };
  for (const auto& [pattern, term] : cases) {
    Bindings bindings;
    EXPECT_EQ(Matches(pattern, term), MatchTerm(pattern, term, &bindings))
        << pattern->ToString() << " against " << term->ToString();
  }
}

TEST(SubstituteTest, ReplacesAllOccurrences) {
  Bindings b;
  b.Bind("f", P("city"));
  b.Bind("g", P("addr"));
  auto result = Substitute(P("?f o ?g o ?f"), b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result.value(), P("city o addr o city")));
}

TEST(SubstituteTest, GroundPatternIsReturnedAsIs) {
  Bindings b;
  TermPtr ground = P("city o addr");
  auto result = Substitute(ground, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().get(), ground.get());  // shared, not copied
}

TEST(SubstituteTest, UnboundVariableIsError) {
  Bindings b;
  auto result = Substitute(P("?f o id"), b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SubstituteTest, RoundTripWithMatch) {
  // match(lhs, t) then substitute(lhs) == t, for a nontrivial pattern.
  TermPtr pattern = P("iterate(?q & ?p @ ?g, ?f o ?g)");
  TermPtr term = P("iterate(Kp(T) & in @ pi1, age o pi1)");
  Bindings b;
  ASSERT_TRUE(MatchTerm(pattern, term, &b));
  auto rebuilt = Substitute(pattern, b);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(Term::Equal(rebuilt.value(), term));
}

}  // namespace
}  // namespace kola
