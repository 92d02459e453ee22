#include "aqua/parser.h"

#include <vector>

#include "aqua/syntax.h"
#include "common/macros.h"

namespace kola {
namespace aqua {

namespace {

class Parser : public SyntaxParser {
 public:
  Parser() : SyntaxParser(Dialect::kAqua) {}

 private:
  StatusOr<ExprPtr> ParseTop() override { return ParseOr(); }

  /// path := primary ('.' IDENT)*
  StatusOr<ExprPtr> ParseOperand() override {
    DepthGuard guard(this);
    // A parenthesized level recurses through six frames (ParseOr down to
    // ParsePrimary), so it is charged here as well as in ParseOr -- the
    // same two units per level the OQL parser charges -- keeping the
    // deepest accepted tower well inside the native stack.
    KOLA_RETURN_IF_ERROR(EnterNesting());
    KOLA_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
    return ParseAttributes(std::move(expr));
  }

  StatusOr<ExprPtr> ParseElement() override { return ParseOr(); }

  StatusOr<ExprPtr> ParseLambda() {
    KOLA_RETURN_IF_ERROR(Expect(Tok::kBackslash, "'\\'"));
    std::vector<std::string> params;
    while (Peek().kind == Tok::kIdent) params.push_back(Advance().text);
    if (params.empty() || params.size() > 2) {
      return InvalidArgumentError("lambda takes one or two parameters");
    }
    KOLA_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    for (const std::string& p : params) bound_.insert(p);
    auto body = ParseOr();
    // Erase one occurrence each (a multiset handles shadowed binders).
    for (const std::string& p : params) bound_.erase(bound_.find(p));
    if (!body.ok()) return body.status();
    return Expr::Lambda(std::move(params), std::move(body).value());
  }

  StatusOr<ExprPtr> ParsePrimary() {
    if (PeekCommonPrimary()) return ParseCommonPrimary();
    const Token& tok = Peek();
    switch (tok.kind) {
      case Tok::kLParen: {
        Advance();
        KOLA_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        return inner;
      }
      case Tok::kIdent: {
        if (tok.text == "app" || tok.text == "sel") {
          bool is_app = tok.text == "app";
          Advance();
          KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr lambda, ParseLambda());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr set, ParseOr());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return is_app ? Expr::App(std::move(lambda), std::move(set))
                        : Expr::Sel(std::move(lambda), std::move(set));
        }
        if (tok.text == "flatten") {
          Advance();
          KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr set, ParseOr());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return Expr::Flatten(std::move(set));
        }
        if (tok.text == "join") {
          Advance();
          KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr pred, ParseLambda());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr fn, ParseLambda());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          KOLA_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseOr());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOr());
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return Expr::Join(std::move(pred), std::move(fn), std::move(lhs),
                            std::move(rhs));
        }
        if (tok.text == "if") {
          Advance();
          KOLA_ASSIGN_OR_RETURN(ExprPtr cond, ParseOr());
          KOLA_RETURN_IF_ERROR(ExpectKeyword("then"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr then_branch, ParseOr());
          KOLA_RETURN_IF_ERROR(ExpectKeyword("else"));
          KOLA_ASSIGN_OR_RETURN(ExprPtr else_branch, ParseOr());
          return Expr::IfThenElse(std::move(cond), std::move(then_branch),
                                  std::move(else_branch));
        }
        Advance();
        return NameRef(tok.text);
      }
      default:
        return UnexpectedToken();
    }
  }
};

}  // namespace

StatusOr<ExprPtr> ParseAqua(std::string_view text) {
  return Parser().Parse(text);
}

}  // namespace aqua
}  // namespace kola
