// Pins the paper's worked derivations: Figure 4 (T1K and T2K) and
// Figure 6 (the code-motion reduction of query K4). Each step is justified
// by a catalog rule; we assert both the fired rule sequence and the exact
// resulting terms.

#include <gtest/gtest.h>

#include "coko/strategy.h"
#include "rewrite/engine.h"
#include "rules/catalog.h"
#include "term/parser.h"

namespace kola {
namespace {

TermPtr Q(const std::string& text, Sort sort = Sort::kObject) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

class DerivationsTest : public ::testing::Test {
 protected:
  DerivationsTest() : rules_(AllCatalogRules()) {}

  const Rule& R(const std::string& id) { return FindRule(rules_, id); }

  Rule Rev(const std::string& id) {
    auto reversed = ReverseRule(FindRule(rules_, id));
    EXPECT_TRUE(reversed.ok());
    return reversed.value();
  }

  /// Applies `rule` once and asserts the exact result.
  TermPtr Step(const Rule& rule, const TermPtr& term,
               const std::string& expected, Sort sort = Sort::kObject) {
    RewriteStep step;
    auto result = rewriter_.ApplyOnce(rule, term, &step);
    EXPECT_TRUE(result.has_value())
        << "rule " << rule.id << " did not fire on " << term->ToString();
    if (!result) return term;
    TermPtr want = Q(expected, sort);
    EXPECT_TRUE(Term::Equal(*result, want))
        << "after rule " << rule.id << ":\n  got  "
        << (*result)->ToString() << "\n  want " << want->ToString();
    return *result;
  }

  std::vector<Rule> rules_;
  Rewriter rewriter_;
};

// ---- Figure 4, transformation T1K: fuse two maps over P -------------------
TEST_F(DerivationsTest, Figure4T1K) {
  TermPtr q = Q("iterate(Kp(T), city) o iterate(Kp(T), addr) ! P");

  // Rule 11: iterate fusion.
  q = Step(R("11"), q,
           "iterate(Kp(T) & Kp(T) @ addr, city o addr) ! P");
  // Rule 6: Kp(T) @ addr => Kp(T).
  q = Step(R("6"), q, "iterate(Kp(T) & Kp(T), city o addr) ! P");
  // Rule 5: Kp(T) & Kp(T) => Kp(T).
  q = Step(R("5"), q, "iterate(Kp(T), city o addr) ! P");
}

// ---- Figure 4, transformation T2K: swap selection and projection ----------
TEST_F(DerivationsTest, Figure4T2K) {
  TermPtr q = Q(
      "iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P");

  // Rule 11 fuses, then identity cleanup with rule 1.
  q = Step(R("11"), q,
           "iterate(gt @ (age, Kf(25)) & Kp(T) @ id, age o id) ! P");
  q = Step(R("6"), q,
           "iterate(gt @ (age, Kf(25)) & Kp(T), age o id) ! P");
  q = Step(R("ext.and-true-right"), q,
           "iterate(gt @ (age, Kf(25)), age o id) ! P");
  q = Step(R("1"), q, "iterate(gt @ (age, Kf(25)), age) ! P");

  // Rule 13 curries the constant comparand; rule 7 names the converse.
  // (The paper prints leq here; the sound converse of gt is lt -- see
  // catalog.h.)
  q = Step(R("13"), q, "iterate(Cp(inv(gt), 25) @ age, age) ! P");
  q = Step(R("7"), q, "iterate(Cp(lt, 25) @ age, age) ! P");

  // Rule 12 right-to-left splits selection from projection, landing on the
  // paper's final form.
  q = Step(Rev("12"), q,
           "iterate(Cp(lt, 25), id) o iterate(Kp(T), age) ! P");
}

// ---- Figure 6: code motion applies to K4 ----------------------------------
TEST_F(DerivationsTest, Figure6K4) {
  // The inner function of KOLA query K4 (predicate tests the PERSON's age,
  // i.e. the environment component pi1).
  TermPtr f = Q("iter(gt @ (age o pi1, Kf(25)), pi2) o (id, child)",
                Sort::kFunction);

  f = Step(R("13"), f,
           "iter(Cp(inv(gt), 25) @ (age o pi1), pi2) o (id, child)",
           Sort::kFunction);
  f = Step(R("7"), f,
           "iter(Cp(lt, 25) @ (age o pi1), pi2) o (id, child)",
           Sort::kFunction);
  f = Step(R("14"), f,
           "iter(Cp(lt, 25) @ age @ pi1, pi2) o (id, child)",
           Sort::kFunction);
  // Rule 15: the iter is insensitive to its second component -> conditional.
  f = Step(R("15"), f,
           "con(Cp(lt, 25) @ age @ pi1, pi2, Kf({})) o (id, child)",
           Sort::kFunction);
  // Rule 16 distributes the composition into the conditional.
  f = Step(R("16"), f,
           "con(Cp(lt, 25) @ age @ pi1 @ (id, child), pi2 o (id, child), "
           "Kf({}) o (id, child))",
           Sort::kFunction);
  // Cleanup: 14 right-to-left, projections, constants.
  f = Step(Rev("14"), f,
           "con(Cp(lt, 25) @ age @ (pi1 o (id, child)), pi2 o (id, child), "
           "Kf({}) o (id, child))",
           Sort::kFunction);
  f = Step(R("9"), f,
           "con(Cp(lt, 25) @ age @ id, pi2 o (id, child), "
           "Kf({}) o (id, child))",
           Sort::kFunction);
  f = Step(R("3"), f,
           "con(Cp(lt, 25) @ age, pi2 o (id, child), Kf({}) o (id, child))",
           Sort::kFunction);
  f = Step(R("10"), f,
           "con(Cp(lt, 25) @ age, child, Kf({}) o (id, child))",
           Sort::kFunction);
  f = Step(R("8"), f, "con(Cp(lt, 25) @ age, child, Kf({}))",
           Sort::kFunction);
  // Final form matches Figure 6 (modulo the lt/leq correction).
}

// ---- Figure 6 contrast: K3 is NOT subject to code motion ------------------
TEST_F(DerivationsTest, Figure6K3Blocked) {
  // K3's predicate tests the CHILD's age (pi2). After rules 13/7/14 the
  // iter's predicate has the form p @ pi2, so rule 15 must not fire.
  TermPtr f = Q("iter(gt @ (age o pi2, Kf(25)), pi2) o (id, child)",
                Sort::kFunction);
  f = Step(R("13"), f,
           "iter(Cp(inv(gt), 25) @ (age o pi2), pi2) o (id, child)",
           Sort::kFunction);
  f = Step(R("7"), f,
           "iter(Cp(lt, 25) @ (age o pi2), pi2) o (id, child)",
           Sort::kFunction);
  f = Step(R("14"), f,
           "iter(Cp(lt, 25) @ age @ pi2, pi2) o (id, child)",
           Sort::kFunction);
  // The structural difference (pi2 vs pi1) is all that distinguishes K3
  // from K4 -- and it is exactly what blocks rule 15. No head routine, no
  // environment analysis.
  EXPECT_FALSE(rewriter_.ApplyOnce(R("15"), f, nullptr).has_value());
}

// ---- CNF block (COKO example) ----------------------------------------------
TEST_F(DerivationsTest, CnfBlockNormalizes) {
  RuleBlock block = CnfBlock();
  // not(p & (q | r)) over ints.
  TermPtr p = Q("not(Cp(lt, 0) & (Cp(lt, 5) | Cp(lt, 9)))",
                Sort::kPredicate);
  auto result = block.Apply(p, rewriter_, nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->changed);
  // De Morgan then distribution: (~p | ~q) & (~p | ~r).
  EXPECT_TRUE(Term::Equal(
      result->term,
      Q("(not(Cp(lt, 0)) | not(Cp(lt, 5))) & (not(Cp(lt, 0)) | "
        "not(Cp(lt, 9)))",
        Sort::kPredicate)));
}

TEST_F(DerivationsTest, PushSelectsPastJoinsBlock) {
  RuleBlock block = PushSelectsPastJoinsBlock();
  TermPtr join = Q("join(eq & Cp(lt, 0) @ pi1, pi1)", Sort::kFunction);
  auto result = block.Apply(join, rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->changed);
  EXPECT_TRUE(Term::Equal(
      result->term,
      Q("join(eq, pi1) o (iterate(Cp(lt, 0), id) x id)", Sort::kFunction)));
}

TEST_F(DerivationsTest, SimplifyBlockCleansIdentities) {
  RuleBlock block = SimplifyBlock();
  TermPtr messy = Q("(id o age) o id", Sort::kFunction);
  auto result = block.Apply(messy, rewriter_, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Term::Equal(result->term, Q("age", Sort::kFunction)));
}

TEST_F(DerivationsTest, StrategyCombinators) {
  // A one-rule FirstOf fires once; Repeat drives it to fixpoint.
  Rule r1 = FindRule(rules_, "1");
  TermPtr term = Q("(age o id) o id", Sort::kFunction);
  auto once = FirstOf({r1});
  Trace trace;
  auto after_one = once->Run(term, rewriter_, &trace);
  ASSERT_TRUE(after_one.ok());
  EXPECT_TRUE(after_one->changed);
  auto repeat = Repeat(once);
  auto after_all = repeat->Run(term, rewriter_, nullptr);
  ASSERT_TRUE(after_all.ok());
  EXPECT_TRUE(Term::Equal(after_all->term, Q("age", Sort::kFunction)));
  // A strategy that cannot fire reports changed = false, not an error.
  auto noop = once->Run(Q("age", Sort::kFunction), rewriter_, nullptr);
  ASSERT_TRUE(noop.ok());
  EXPECT_FALSE(noop->changed);
}

}  // namespace
}  // namespace kola
