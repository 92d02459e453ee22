#include "aqua/syntax.h"

#include <cctype>

#include "common/macros.h"
#include "common/parse_number.h"

namespace kola {
namespace aqua {

namespace {

/// Splits `text` into tokens ending in one kEnd. INT tokens may carry a
/// leading '-' and are range-checked only when parsed.
StatusOr<std::vector<Token>> Tokenize(std::string_view text, Dialect dialect) {
  const bool lambdas = dialect == Dialect::kAqua;
  std::vector<Token> tokens;
  size_t pos = 0;
  while (true) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    size_t at = pos;
    if (pos >= text.size()) {
      tokens.push_back({Tok::kEnd, "", at});
      return tokens;
    }
    char c = text[pos];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos + 1])))) {
      size_t start = pos++;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      tokens.push_back(
          {Tok::kInt, std::string(text.substr(start, pos - start)), at});
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos;
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_' || (lambdas && text[pos] == '\''))) {
        ++pos;
      }
      tokens.push_back(
          {Tok::kIdent, std::string(text.substr(start, pos - start)), at});
      continue;
    }
    switch (c) {
      case '"': {
        ++pos;
        size_t start = pos;
        while (pos < text.size() && text[pos] != '"') ++pos;
        if (pos >= text.size()) {
          return InvalidArgumentError("unterminated string at " +
                                      std::to_string(at));
        }
        tokens.push_back(
            {Tok::kString, std::string(text.substr(start, pos - start)),
             at});
        ++pos;
        continue;
      }
      case '(': tokens.push_back({Tok::kLParen, "(", at}); break;
      case ')': tokens.push_back({Tok::kRParen, ")", at}); break;
      case '[': tokens.push_back({Tok::kLBracket, "[", at}); break;
      case ']': tokens.push_back({Tok::kRBracket, "]", at}); break;
      case '{': tokens.push_back({Tok::kLBrace, "{", at}); break;
      case '}': tokens.push_back({Tok::kRBrace, "}", at}); break;
      case ',': tokens.push_back({Tok::kComma, ",", at}); break;
      case '.': tokens.push_back({Tok::kDot, ".", at}); break;
      case '=':
      case '!':
      case '<':
      case '>': {
        std::string op(1, c);
        if (pos + 1 < text.size() && text[pos + 1] == '=') {
          op += '=';
          ++pos;
        }
        if (op == "=" || op == "!") {
          return InvalidArgumentError("unknown operator '" + op + "' at " +
                                      std::to_string(at));
        }
        tokens.push_back({Tok::kOp, op, at});
        break;
      }
      case '\\':
        if (lambdas) {
          tokens.push_back({Tok::kBackslash, "\\", at});
          break;
        }
        [[fallthrough]];
      default:
        return InvalidArgumentError(std::string("unexpected character '") +
                                    c + "' at " + std::to_string(at));
    }
    ++pos;
  }
}

}  // namespace

StatusOr<ExprPtr> SyntaxParser::Parse(std::string_view text) {
  KOLA_ASSIGN_OR_RETURN(tokens_, Tokenize(text, dialect_));
  StatusOr<ExprPtr> expr = ParseTop();
  if (expr.ok() && Peek().kind != Tok::kEnd) {
    expr = InvalidArgumentError("trailing input at " +
                                std::to_string(Peek().position) + ": '" +
                                Peek().text + "'");
  }
  if (!expr.ok()) {
    return expr.status().WithContext(std::string("while parsing ") +
                                     language_ + " '" + std::string(text) +
                                     "'");
  }
  return expr;
}

Status SyntaxParser::EnterNesting() {
  if (depth_ >= kMaxNestingDepth) {
    return ResourceExhaustedError(
        std::string(language_) +
        " nesting exceeds the parser's depth budget of " +
        std::to_string(kMaxNestingDepth) + " at position " +
        std::to_string(Peek().position));
  }
  ++depth_;
  return Status::OK();
}

Status SyntaxParser::Expect(Tok kind, const char* what) {
  if (Peek().kind != kind) {
    return InvalidArgumentError(std::string("expected ") + what + " at " +
                                std::to_string(Peek().position) + ", got '" +
                                Peek().text + "'");
  }
  Advance();
  return Status::OK();
}

Status SyntaxParser::ExpectKeyword(const char* word) {
  if (!PeekIdent(word)) {
    return InvalidArgumentError(std::string("expected '") + word + "' at " +
                                std::to_string(Peek().position) + ", got '" +
                                Peek().text + "'");
  }
  Advance();
  return Status::OK();
}

Status SyntaxParser::UnexpectedToken() const {
  return InvalidArgumentError("unexpected token '" + Peek().text + "' at " +
                              std::to_string(Peek().position));
}

StatusOr<ExprPtr> SyntaxParser::ParseOr() {
  DepthGuard guard(this);
  KOLA_RETURN_IF_ERROR(EnterNesting());
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (PeekIdent("or")) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = Expr::Or(std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> SyntaxParser::ParseAnd() {
  DepthGuard guard(this);
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (PeekIdent("and")) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = Expr::And(std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> SyntaxParser::ParseNot() {
  if (PeekIdent("not")) {
    DepthGuard guard(this);
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return Expr::Not(std::move(operand));
  }
  return ParseCmp();
}

StatusOr<ExprPtr> SyntaxParser::ParseCmp() {
  KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseOperand());
  // `in` lexes as an identifier, the other comparisons as kOp tokens; both
  // are spelled as BinOpToString prints them.
  if (Peek().kind != Tok::kOp && Peek().kind != Tok::kIdent) return left;
  for (BinOp op : {BinOp::kEq, BinOp::kNeq, BinOp::kLt, BinOp::kLeq,
                   BinOp::kGt, BinOp::kGeq, BinOp::kIn}) {
    if (Peek().text != BinOpToString(op)) continue;
    Advance();
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
    return Expr::MakeBinOp(op, std::move(left), std::move(right));
  }
  return left;
}

bool SyntaxParser::PeekCommonPrimary() const {
  const Tok kind = Peek().kind;
  return kind == Tok::kInt || kind == Tok::kString || kind == Tok::kLBrace ||
         kind == Tok::kLBracket || PeekIdent("true") || PeekIdent("false");
}

StatusOr<ExprPtr> SyntaxParser::ParseCommonPrimary() {
  const Token& tok = Advance();
  switch (tok.kind) {
    case Tok::kInt: {
      // A lexed integer can still be overlong; reject instead of letting
      // std::stoll throw out of the parser.
      KOLA_ASSIGN_OR_RETURN(int64_t value, ParseInt64(tok.text));
      return Expr::Const(Value::Int(value));
    }
    case Tok::kString:
      return Expr::Const(Value::Str(tok.text));
    case Tok::kLBrace: {
      std::vector<Value> elements;
      if (Peek().kind != Tok::kRBrace) {
        while (true) {
          KOLA_ASSIGN_OR_RETURN(ExprPtr element, ParseElement());
          if (element->kind() != ExprKind::kConst) {
            return InvalidArgumentError(
                "set literals may only contain constants");
          }
          elements.push_back(element->literal());
          if (Peek().kind != Tok::kComma) break;
          Advance();
        }
      }
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRBrace, "'}'"));
      return Expr::Const(Value::MakeSet(std::move(elements)));
    }
    case Tok::kLBracket: {
      KOLA_ASSIGN_OR_RETURN(ExprPtr a, ParseElement());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr b, ParseElement());
      KOLA_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
      return Expr::Tuple(std::move(a), std::move(b));
    }
    default:
      return Expr::Const(Value::Bool(tok.text == "true"));
  }
}

StatusOr<ExprPtr> SyntaxParser::ParseAttributes(ExprPtr expr) {
  while (Peek().kind == Tok::kDot) {
    KOLA_RETURN_IF_ERROR(EnterNesting());
    Advance();
    if (Peek().kind != Tok::kIdent) {
      return InvalidArgumentError("expected attribute name after '.'");
    }
    expr = Expr::FunCall(Advance().text, std::move(expr));
  }
  return expr;
}

ExprPtr SyntaxParser::NameRef(const std::string& name) const {
  if (bound_.count(name) > 0) return Expr::Var(name);
  return Expr::Collection(name);
}

}  // namespace aqua
}  // namespace kola
