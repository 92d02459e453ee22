#include <gtest/gtest.h>

#include "aqua/eval.h"
#include "aqua/parser.h"
#include "aqua/transform.h"
#include "values/car_world.h"

namespace kola {
namespace aqua {
namespace {

ExprPtr P(const char* text) {
  auto e = ParseAqua(text);
  EXPECT_TRUE(e.ok()) << e.status();
  return e.ok() ? std::move(e).value() : nullptr;
}

TEST(AquaParserTest, PathsBecomeFunCalls) {
  ExprPtr e = P("app(\\p. p.addr.city)(P)");
  ASSERT_EQ(e->kind(), ExprKind::kApp);
  const ExprPtr& body = e->child(0)->child(0);
  EXPECT_EQ(body->kind(), ExprKind::kFunCall);
  EXPECT_EQ(body->name(), "city");
  EXPECT_EQ(body->child(0)->name(), "addr");
}

TEST(AquaParserTest, BoundVsCollectionResolution) {
  ExprPtr e = P("app(\\p. [p, Q])(P)");
  const ExprPtr& tuple = e->child(0)->child(0);
  EXPECT_EQ(tuple->child(0)->kind(), ExprKind::kVar);
  EXPECT_EQ(tuple->child(1)->kind(), ExprKind::kCollection);
  EXPECT_EQ(e->child(1)->kind(), ExprKind::kCollection);
}

TEST(AquaParserTest, OperatorsAndPrecedence) {
  ExprPtr e = P("app(\\p. p.age > 25 and p.age < 60 or false)(P)");
  const ExprPtr& body = e->child(0)->child(0);
  // or is loosest.
  EXPECT_EQ(body->kind(), ExprKind::kOr);
  EXPECT_EQ(body->child(0)->kind(), ExprKind::kAnd);
}

TEST(AquaParserTest, JoinAndIf) {
  ExprPtr join = P("join(\\a b. a.age > b.age, \\a b. [a, b])(P, P)");
  EXPECT_EQ(join->kind(), ExprKind::kJoin);
  EXPECT_EQ(join->child(0)->params().size(), 2u);
  ExprPtr cond = P("app(\\p. if p.age > 25 then p.child else {})(P)");
  EXPECT_EQ(cond->child(0)->child(0)->kind(), ExprKind::kIfThenElse);
}

TEST(AquaParserTest, Errors) {
  EXPECT_FALSE(ParseAqua("app(\\p. p)(").ok());
  EXPECT_FALSE(ParseAqua("app(\\. p)(P)").ok());
  EXPECT_FALSE(ParseAqua("sel(\\a b c. a)(P)").ok());
  EXPECT_FALSE(ParseAqua("a = b").ok());
  EXPECT_FALSE(ParseAqua("\"unterminated").ok());
}

TEST(AquaParserTest, OverlongIntegerLiteralIsErrorNotAbort) {
  // Overflows int64: the unguarded std::stoll this used to reach would
  // throw std::out_of_range and abort.
  auto overlong = ParseAqua("sel(\\p. p.age > 99999999999999999999)(P)");
  ASSERT_FALSE(overlong.ok());
  EXPECT_EQ(overlong.status().code(), StatusCode::kInvalidArgument);
  // The int64 boundary itself still parses.
  EXPECT_TRUE(ParseAqua("sel(\\p. p.age > 9223372036854775807)(P)").ok());
}

TEST(AquaParserTest, RoundTripsThroughToString) {
  for (const char* text :
       {"app(\\p. [p, sel(\\c. p.age > 25)(p.child)])(P)",
        "flatten(app(\\p. p.grgs)(P))",
        "sel(\\p. p.age in {} or not p.age > 3)(P)",
        "join(\\a b. a in b.cars, \\a b. [a, b.grgs])(V, P)"}) {
    ExprPtr once = P(text);
    ASSERT_NE(once, nullptr);
    ExprPtr twice = P(once->ToString().c_str());
    ASSERT_NE(twice, nullptr);
    EXPECT_TRUE(AlphaEqual(once, twice)) << once->ToString();
  }
}

// The accepted language, pinned input by input: the status code, and for
// accepted inputs the Expr they print as. AQUA has lambdas, so `\` and
// primed identifiers lex here (OQL rejects both), and `.attr` follows any
// primary, not just a name.
struct LanguageCase {
  const char* text;
  StatusCode code;
  const char* printed;  // Expr::ToString() when accepted
};

TEST(AquaParserTest, LanguageTable) {
  const LanguageCase cases[] = {
      {"app(\\x'. x')(P)", StatusCode::kOk, "app(\\x'. x')(P)"},
      {"x'y", StatusCode::kOk, "x'y"},
      {"(x).age", StatusCode::kOk, "x.age"},
      {"app(\\x. (x).age)(P)", StatusCode::kOk, "app(\\x. x.age)(P)"},
      {"app(\\p. p)(P).age", StatusCode::kOk, "app(\\p. p)(P).age"},
      {"[1, 2].a", StatusCode::kOk, "[1, 2].a"},
      {"=", StatusCode::kInvalidArgument, nullptr},
      {"!", StatusCode::kInvalidArgument, nullptr},
      {"a ! b", StatusCode::kInvalidArgument, nullptr},
      {"a = b", StatusCode::kInvalidArgument, nullptr},
      {"!=", StatusCode::kInvalidArgument, nullptr},
      {"-5", StatusCode::kOk, "-5"},
      {"sel(\\p. p.age > -3)(P)", StatusCode::kOk, "sel(\\p. (p.age > -3))(P)"},
      {"x - 1", StatusCode::kInvalidArgument, nullptr},
      {"99999999999999999999", StatusCode::kInvalidArgument, nullptr},
      {"sel(\\p. p.age > 9223372036854775807)(P)", StatusCode::kOk,
       "sel(\\p. (p.age > 9223372036854775807))(P)"},
      {"{1, x}", StatusCode::kInvalidArgument, nullptr},
      {"{1 == 1}", StatusCode::kInvalidArgument, nullptr},
      {"{1, \"a\", true, false, -2}", StatusCode::kOk,
       "{false, true, -2, 1, \"a\"}"},
      {"{(1)}", StatusCode::kOk, "{1}"},
      {"{{1}, {2, 3}}", StatusCode::kOk, "{{1}, {2, 3}}"},
      {"{}", StatusCode::kOk, "{}"},
      {"not not x", StatusCode::kOk, "not not x"},
      {"x \"in\" y", StatusCode::kInvalidArgument, nullptr},
      {"x in y", StatusCode::kOk, "(x in y)"},
      {"flatten", StatusCode::kInvalidArgument, nullptr},
      {"flatten(P).x", StatusCode::kOk, "flatten(P).x"},
      {"if true then 1 else 2", StatusCode::kOk, "if true then 1 else 2"},
      {"if x then y", StatusCode::kInvalidArgument, nullptr},
      {"\\x. x", StatusCode::kInvalidArgument, nullptr},
      {"x@y", StatusCode::kInvalidArgument, nullptr},
      {"[x, y, z]", StatusCode::kInvalidArgument, nullptr},
      {"app(\\a. app(\\a. a)(a))(P)", StatusCode::kOk,
       "app(\\a. app(\\a. a)(a))(P)"},
  };
  for (const LanguageCase& c : cases) {
    auto parsed = ParseAqua(c.text);
    EXPECT_EQ(parsed.status().code(), c.code) << c.text << ": "
                                              << parsed.status();
    if (parsed.ok() && c.printed != nullptr) {
      EXPECT_EQ(parsed.value()->ToString(), c.printed) << c.text;
    }
  }
}

TEST(AquaExprTest, FreeVars) {
  ExprPtr a4_body = P("app(\\p. sel(\\c. p.age > 25)(p.child))(P)");
  const ExprPtr& sel = a4_body->child(0)->child(0);
  const ExprPtr& pred = sel->child(0)->child(0);
  auto free = FreeVars(pred);
  EXPECT_EQ(free.count("p"), 1u);
  EXPECT_EQ(free.count("c"), 0u);
  // Whole query is closed.
  EXPECT_TRUE(FreeVars(a4_body).empty());
}

TEST(AquaExprTest, SubstituteSimple) {
  // (p.age)[p := q.addr]  ==  q.addr.age
  ExprPtr path = Expr::FunCall("age", Expr::Var("p"));
  ExprPtr replacement = Expr::FunCall("addr", Expr::Var("q"));
  ExprPtr result = SubstituteVar(path, "p", replacement);
  EXPECT_EQ(result->ToString(), "q.addr.age");
}

TEST(AquaExprTest, SubstituteStopsAtShadowingBinder) {
  // (sel(\p. p.age > 25)(p.child))[p := X]: only the outer p is replaced.
  ExprPtr expr = Expr::Sel(
      Expr::Lambda({"p"}, Expr::MakeBinOp(BinOp::kGt,
                                          Expr::FunCall("age",
                                                        Expr::Var("p")),
                                          Expr::Const(Value::Int(25)))),
      Expr::FunCall("child", Expr::Var("p")));
  ExprPtr result = SubstituteVar(expr, "p", Expr::Var("x"));
  EXPECT_EQ(result->ToString(),
            "sel(\\p. (p.age > 25))(x.child)");
}

TEST(AquaExprTest, SubstituteAvoidsCapture) {
  // (\y. x)[x := y] must NOT become \y. y.
  ExprPtr lambda = Expr::Lambda({"y"}, Expr::Var("x"));
  ExprPtr result = SubstituteVar(lambda, "x", Expr::Var("y"));
  ASSERT_EQ(result->kind(), ExprKind::kLambda);
  EXPECT_NE(result->params()[0], "y");
  EXPECT_EQ(result->child(0)->kind(), ExprKind::kVar);
  EXPECT_EQ(result->child(0)->name(), "y");
}

TEST(AquaExprTest, AlphaEquality) {
  EXPECT_TRUE(AlphaEqual(P("app(\\p. p.age)(P)"), P("app(\\q. q.age)(P)")));
  EXPECT_FALSE(AlphaEqual(P("app(\\p. p.age)(P)"),
                          P("app(\\p. p.name)(P)")));
  EXPECT_FALSE(AlphaEqual(P("app(\\p. p.age)(P)"),
                          P("app(\\p. p.age)(V)")));
  // The paper's A3 vs A4: structurally identical up to one variable.
  EXPECT_FALSE(AlphaEqual(QueryA3(), QueryA4()));
}

class AquaEvalTest : public ::testing::Test {
 protected:
  AquaEvalTest() {
    CarWorldOptions options;
    options.num_persons = 12;
    options.num_vehicles = 8;
    options.num_addresses = 6;
    options.seed = 21;
    db_ = BuildCarWorld(options);
  }

  Value Eval(const char* text) {
    auto expr = ParseAqua(text);
    EXPECT_TRUE(expr.ok()) << expr.status();
    AquaEvaluator evaluator(db_.get());
    auto value = evaluator.EvalQuery(expr.value());
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AquaEvalTest, SelFiltersByPredicate) {
  Value adults = Eval("sel(\\p. p.age > 25)(P)");
  Value all = db_->Extent("P").value();
  EXPECT_LE(adults.SetSize(), all.SetSize());
  for (const Value& p : adults.elements()) {
    EXPECT_GT(db_->GetAttribute(p, "age").value().int_value(), 25);
  }
}

TEST_F(AquaEvalTest, AppMapsBody) {
  Value ages = Eval("app(\\p. p.age)(P)");
  for (const Value& a : ages.elements()) EXPECT_TRUE(a.is_int());
}

TEST_F(AquaEvalTest, NestedEnvironmentVisibility) {
  // Inner lambda sees the outer variable.
  Value result = Eval("app(\\p. sel(\\c. p.age > c.age)(P))(P)");
  EXPECT_TRUE(result.is_set());
}

TEST_F(AquaEvalTest, JoinSemantics) {
  Value pairs = Eval("join(\\a b. a in b.cars, \\a b. a)(V, P)");
  // Every result vehicle is someone's car.
  for (const Value& v : pairs.elements()) {
    bool owned = false;
    for (const Value& p : db_->Extent("P").value().elements()) {
      if (db_->GetAttribute(p, "cars").value().SetContains(v)) owned = true;
    }
    EXPECT_TRUE(owned);
  }
}

TEST_F(AquaEvalTest, IfThenElse) {
  Value result = Eval(
      "app(\\p. if p.age > 25 then [p, p.child] else [p, {}])(P)");
  for (const Value& pair : result.elements()) {
    int64_t age =
        db_->GetAttribute(pair.first(), "age").value().int_value();
    if (age <= 25) {
      EXPECT_EQ(pair.second(), Value::EmptySet());
    } else {
      EXPECT_EQ(pair.second(),
                db_->GetAttribute(pair.first(), "child").value());
    }
  }
}

TEST_F(AquaEvalTest, ErrorsSurface) {
  auto expr = ParseAqua("sel(\\p. p.age)(P)");  // non-bool predicate
  ASSERT_TRUE(expr.ok());
  AquaEvaluator evaluator(db_.get());
  EXPECT_FALSE(evaluator.EvalQuery(expr.value()).ok());
  auto unknown = ParseAqua("app(\\p. p.salary)(P)");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(evaluator.EvalQuery(unknown.value()).ok());
}

class AquaTransformTest : public AquaEvalTest {
 protected:
  Value EvalExpr(const ExprPtr& expr) {
    AquaEvaluator evaluator(db_.get());
    auto value = evaluator.EvalQuery(expr);
    EXPECT_TRUE(value.ok()) << value.status();
    return value.ok() ? std::move(value).value() : Value::Null();
  }
};

TEST_F(AquaTransformTest, FuseAppAppRequiresBodyRoutine) {
  // Figure 1 T1: the cities query.
  ExprPtr query = P("app(\\a. a.city)(app(\\p. p.addr)(P))");
  AquaTransformStats stats;
  auto fused = FuseAppApp(query, &stats);
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_TRUE(stats.applied);
  EXPECT_GT(stats.body_ops, 0);  // substitution = code
  EXPECT_TRUE(AlphaEqual(fused.value(), P("app(\\p. p.addr.city)(P)")));
  EXPECT_EQ(EvalExpr(query), EvalExpr(fused.value()));
}

TEST_F(AquaTransformTest, FuseAppAppRejectsOtherShapes) {
  AquaTransformStats stats;
  EXPECT_FALSE(FuseAppApp(P("sel(\\p. p.age > 3)(P)"), &stats).ok());
  EXPECT_FALSE(stats.applied);
}

TEST_F(AquaTransformTest, SwapProjectSelectNeedsRenaming) {
  // Figure 1 T2, including the paper's point that '\x. x.age' must be
  // recognized as a subfunction of '\p. p.age > 25' via renaming.
  ExprPtr query = P("app(\\x. x.age)(sel(\\p. p.age > 25)(P))");
  AquaTransformStats stats;
  auto swapped = SwapProjectSelect(query, &stats);
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_GT(stats.head_ops, 0);  // renaming + comparison = code
  EXPECT_GT(stats.body_ops, 0);  // predicate decomposition = code
  EXPECT_TRUE(AlphaEqual(swapped.value(),
                         P("sel(\\a. a > 25)(app(\\p. p.age)(P))")));
  EXPECT_EQ(EvalExpr(query), EvalExpr(swapped.value()));
}

TEST_F(AquaTransformTest, SwapRejectsMismatchedPaths) {
  // Projection and predicate use different paths: must not fire.
  ExprPtr query = P("app(\\x. x.name)(sel(\\p. p.age > 25)(P))");
  AquaTransformStats stats;
  EXPECT_FALSE(SwapProjectSelect(query, &stats).ok());
}

TEST_F(AquaTransformTest, CodeMotionAppliesToA4Only) {
  // A4: predicate on the person -> hoistable.
  AquaTransformStats stats4;
  auto moved = AquaCodeMotion(QueryA4(), &stats4);
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_GT(stats4.head_ops, 0);  // freeness analysis = code
  EXPECT_TRUE(AlphaEqual(
      moved.value(),
      P("app(\\p. if p.age > 25 then [p, p.child] else [p, {}])(P)")));
  EXPECT_EQ(EvalExpr(QueryA4()), EvalExpr(moved.value()));

  // A3: predicate on the child -> the SAME structural match succeeds, and
  // only the freeness head routine rejects it.
  AquaTransformStats stats3;
  auto blocked = AquaCodeMotion(QueryA3(), &stats3);
  EXPECT_FALSE(blocked.ok());
  EXPECT_FALSE(stats3.applied);
  EXPECT_GT(stats3.head_ops, 0);  // it had to analyze the environment
}

TEST_F(AquaTransformTest, A3A4AreStructurallyIdenticalModuloOneVar) {
  // The paper's Section 2.2 observation.
  EXPECT_EQ(QueryA3()->node_count(), QueryA4()->node_count());
  EXPECT_FALSE(AlphaEqual(QueryA3(), QueryA4()));
}

}  // namespace
}  // namespace aqua
}  // namespace kola
