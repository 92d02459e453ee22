#include <gtest/gtest.h>

#include "aqua/eval.h"
#include "aqua/parser.h"
#include "aqua/transform.h"
#include "eval/evaluator.h"
#include "oql/oql.h"
#include "translate/translate.h"
#include "values/car_world.h"

namespace kola {
namespace {

class OqlTest : public ::testing::Test {
 protected:
  OqlTest() {
    CarWorldOptions options;
    options.num_persons = 12;
    options.num_vehicles = 8;
    options.num_addresses = 6;
    options.seed = 77;
    db_ = BuildCarWorld(options);
  }

  aqua::ExprPtr Lower(const char* text) {
    auto expr = oql::ParseOql(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    return expr.ok() ? std::move(expr).value() : nullptr;
  }

  Value EvalOql(const char* text) {
    aqua::ExprPtr expr = Lower(text);
    aqua::AquaEvaluator evaluator(db_.get());
    auto value = evaluator.EvalQuery(expr);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(OqlTest, SimpleSelectLowersToAppSel) {
  aqua::ExprPtr lowered =
      Lower("select p.name from p in P where p.age > 25");
  aqua::ExprPtr expected = aqua::ParseAqua(
      "app(\\p. p.name)(sel(\\p. p.age > 25)(P))").value();
  EXPECT_TRUE(AlphaEqual(lowered, expected)) << lowered->ToString();
}

TEST_F(OqlTest, SelectWithoutWhere) {
  aqua::ExprPtr lowered = Lower("select p.age from p in P");
  aqua::ExprPtr expected =
      aqua::ParseAqua("app(\\p. p.age)(P)").value();
  EXPECT_TRUE(AlphaEqual(lowered, expected)) << lowered->ToString();
}

TEST_F(OqlTest, MultipleBindingsNestAndFlatten) {
  aqua::ExprPtr lowered = Lower(
      "select [v, p] from v in V, p in P where v in p.cars");
  aqua::ExprPtr expected = aqua::ParseAqua(
      "flatten(app(\\v. app(\\p. [v, p])(sel(\\p. v in p.cars)(P)))(V))")
      .value();
  EXPECT_TRUE(AlphaEqual(lowered, expected)) << lowered->ToString();
}

TEST_F(OqlTest, DependentBinding) {
  aqua::ExprPtr lowered = Lower(
      "select c.name from p in P, c in p.child where c.age > 10");
  aqua::ExprPtr expected = aqua::ParseAqua(
      "flatten(app(\\p. app(\\c. c.name)(sel(\\c. c.age > 10)(p.child)))"
      "(P))").value();
  EXPECT_TRUE(AlphaEqual(lowered, expected)) << lowered->ToString();
}

TEST_F(OqlTest, NestedSubqueryInSelectList) {
  // The paper's A4, as a user would actually write it.
  aqua::ExprPtr lowered = Lower(
      "select [p, (select c from c in p.child where p.age > 25)] "
      "from p in P");
  EXPECT_TRUE(AlphaEqual(lowered, aqua::QueryA4()))
      << lowered->ToString();
}

TEST_F(OqlTest, NestedSubqueryA3Variant) {
  aqua::ExprPtr lowered = Lower(
      "select [p, (select c from c in p.child where c.age > 25)] "
      "from p in P");
  EXPECT_TRUE(AlphaEqual(lowered, aqua::QueryA3()))
      << lowered->ToString();
}

TEST_F(OqlTest, GarageQueryFromOql) {
  // The full OQL -> AQUA -> KOLA pipeline lands on Figure 3's KG1 modulo
  // the sel/app nesting order; it evaluates identically to KG1.
  aqua::ExprPtr lowered = Lower(
      "select [v, flatten((select p.grgs from p in P where v in p.cars))] "
      "from v in V");
  Translator translator;
  auto term = translator.TranslateQuery(lowered);
  ASSERT_TRUE(term.ok()) << term.status();

  aqua::AquaEvaluator aqua_eval(db_.get());
  auto via_aqua = aqua_eval.EvalQuery(aqua::AquaGarageQuery());
  ASSERT_TRUE(via_aqua.ok());
  auto via_kola = EvalQuery(*db_, term.value());
  ASSERT_TRUE(via_kola.ok()) << via_kola.status();
  EXPECT_EQ(via_aqua.value(), via_kola.value());
}

TEST_F(OqlTest, EvaluationSemantics) {
  Value names = EvalOql("select p.name from p in P where p.age > 25");
  for (const Value& n : names.elements()) EXPECT_TRUE(n.is_string());
  Value all = EvalOql("select p from p in P");
  EXPECT_EQ(all, db_->Extent("P").value());
  Value pairs = EvalOql(
      "select [v.make, p.name] from v in V, p in P where v in p.cars");
  for (const Value& pair : pairs.elements()) {
    EXPECT_TRUE(pair.is_pair());
  }
}

TEST_F(OqlTest, WholeOqlPipelineMatchesAquaEvaluation) {
  const char* queries[] = {
      "select p.age from p in P",
      "select p.name from p in P where p.age > 25 and p.age < 70",
      "select c.age from p in P, c in p.child where p.age > c.age",
      "select [p, (select c from c in p.child where c.age > 25)] "
      "from p in P",
      "select a.city from p in P, a in p.grgs",
  };
  Translator translator;
  for (const char* text : queries) {
    aqua::ExprPtr lowered = Lower(text);
    ASSERT_NE(lowered, nullptr);
    auto term = translator.TranslateQuery(lowered);
    ASSERT_TRUE(term.ok()) << term.status() << "\n" << text;
    aqua::AquaEvaluator aqua_eval(db_.get());
    auto expected = aqua_eval.EvalQuery(lowered);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto actual = EvalQuery(*db_, term.value());
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(expected.value(), actual.value()) << text;
  }
}

TEST_F(OqlTest, ParseErrors) {
  EXPECT_FALSE(oql::ParseOql("select from P").ok());
  EXPECT_FALSE(oql::ParseOql("select p from p").ok());
  EXPECT_FALSE(oql::ParseOql("select p frm p in P").ok());
  EXPECT_FALSE(oql::ParseOql("select p from p in P where").ok());
  EXPECT_FALSE(oql::ParseOql("select [p from p in P").ok());
  EXPECT_FALSE(oql::ParseOql("select p from p in P extra").ok());
}

// The accepted language, pinned input by input: the status code, and for
// accepted inputs the AQUA Expr they lower to. Unlike AQUA, OQL has no
// lambdas (`\` and primed identifiers are lexical errors), `.attr` follows
// only a name, and `flatten` not followed by '(' is a collection name.
struct LanguageCase {
  const char* text;
  StatusCode code;
  const char* printed;  // Expr::ToString() when accepted
};

TEST(OqlLanguageTest, LanguageTable) {
  const LanguageCase cases[] = {
      {"select \\x from x in P", StatusCode::kInvalidArgument, nullptr},
      {"select x' from x' in P", StatusCode::kInvalidArgument, nullptr},
      {"select (x).age from x in P", StatusCode::kInvalidArgument, nullptr},
      {"select ((x.age)) from x in P", StatusCode::kOk, "app(\\x. x.age)(P)"},
      {"select x from x in flatten", StatusCode::kOk, "flatten"},
      {"select x from x in flatten(P)", StatusCode::kOk, "flatten(P)"},
      {"select flatten((select y from y in x.child)) from x in P",
       StatusCode::kOk, "app(\\x. flatten(x.child))(P)"},
      {"select x from x in P where flatten", StatusCode::kOk,
       "sel(\\x. flatten)(P)"},
      {"select x from x in P where x.age = 3", StatusCode::kInvalidArgument,
       nullptr},
      {"select x from x in P where ! x", StatusCode::kInvalidArgument, nullptr},
      {"select x from x in P where x.age ! 3", StatusCode::kInvalidArgument,
       nullptr},
      {"select x from x in P where x.age > -5", StatusCode::kOk,
       "sel(\\x. (x.age > -5))(P)"},
      {"select -5 from x in P", StatusCode::kOk, "app(\\x. -5)(P)"},
      {"select x from x in P where x.age > 99999999999999999999",
       StatusCode::kInvalidArgument, nullptr},
      {"select x from x in P where x.age in {1, x.age}",
       StatusCode::kInvalidArgument, nullptr},
      {"select x from x in P where x.age in {1, 2}", StatusCode::kOk,
       "sel(\\x. (x.age in {1, 2}))(P)"},
      {"select {1, \"a\", true} from x in P", StatusCode::kOk,
       "app(\\x. {true, 1, \"a\"})(P)"},
      {"select {1 == 1} from x in P", StatusCode::kInvalidArgument, nullptr},
      {"select {(1)} from x in P", StatusCode::kOk, "app(\\x. {1})(P)"},
      {"select x from x in P where x.age > 3 and not x.age < 5 or "
       "x.name == \"b\"",
       StatusCode::kOk,
       "sel(\\x. (((x.age > 3) and not (x.age < 5)) or "
       "(x.name == \"b\")))(P)"},
      {"select x from x in P where x \"in\" P", StatusCode::kInvalidArgument,
       nullptr},
      {"select (select y from y in x.child) from x in P", StatusCode::kOk,
       "app(\\x. x.child)(P)"},
      {"select x from x in (select y from y in P where y.age > 3)",
       StatusCode::kOk, "sel(\\y. (y.age > 3))(P)"},
      {"select [x, y] from x in P, y in x.child where x.age > y.age",
       StatusCode::kOk,
       "flatten(app(\\x. app(\\y. [x, y])(sel(\\y. (x.age > y.age))"
       "(x.child)))(P))"},
      {"select x from y in P", StatusCode::kOk, "app(\\y. x)(P)"},
      {"select x from x in P,", StatusCode::kInvalidArgument, nullptr},
      {"select ) from x in P", StatusCode::kInvalidArgument, nullptr},
      {"select x. from x in P", StatusCode::kInvalidArgument, nullptr},
  };
  for (const LanguageCase& c : cases) {
    auto parsed = oql::ParseOql(c.text);
    EXPECT_EQ(parsed.status().code(), c.code) << c.text << ": "
                                              << parsed.status();
    if (parsed.ok() && c.printed != nullptr) {
      EXPECT_EQ(parsed.value()->ToString(), c.printed) << c.text;
    }
  }
}

TEST_F(OqlTest, OverlongIntegerLiteralIsErrorNotAbort) {
  // Overflows int64: the unguarded std::stoll this used to reach would
  // throw std::out_of_range and abort.
  auto overlong = oql::ParseOql(
      "select p from p in P where p.age > 99999999999999999999");
  ASSERT_FALSE(overlong.ok());
  EXPECT_EQ(overlong.status().code(), StatusCode::kInvalidArgument);
  auto in_set = oql::ParseOql(
      "select p from p in P where p.age in {1, 99999999999999999999}");
  EXPECT_FALSE(in_set.ok());
  // The int64 boundary itself still parses.
  EXPECT_TRUE(oql::ParseOql(
      "select p from p in P where p.age > 9223372036854775807").ok());
}

TEST_F(OqlTest, SetLiteralsAndConstants) {
  Value result = EvalOql(
      "select p.name from p in P where p.age in {30, 40, 50}");
  EXPECT_TRUE(result.is_set());
  Value none = EvalOql("select p from p in P where false");
  EXPECT_EQ(none, Value::EmptySet());
}

}  // namespace
}  // namespace kola
