#include "aqua/parser.h"

#include <cctype>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/parse_number.h"

namespace kola {
namespace aqua {

namespace {

enum class Tok {
  kIdent,
  kInt,
  kString,
  kLParen,
  kRParen,
  kLBracket,
  kRBracket,
  kLBrace,
  kRBrace,
  kComma,
  kDot,
  kBackslash,
  kOp,  // == != < <= > >=
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  size_t position;
};

StatusOr<std::vector<Token>> Tokenize(std::string_view text) {
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
              text[pos] == '_' || text[pos] == '\'')) {
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
      case '\\': tokens.push_back({Tok::kBackslash, "\\", at}); break;
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
      default:
        return InvalidArgumentError(std::string("unexpected character '") +
                                    c + "' at " + std::to_string(at));
    }
    ++pos;
  }
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ExprPtr> ParseAll() {
    KOLA_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    if (Peek().kind != Tok::kEnd) {
      return InvalidArgumentError("trailing input at " +
                                  std::to_string(Peek().position) + ": '" +
                                  Peek().text + "'");
    }
    return expr;
  }

 private:
  // Nesting bound for the recursive descent, mirroring the KOLA term
  // parser's guard: every nesting level of the input (parentheses, `not`
  // chains, nested calls) costs a handful of native frames, so
  // adversarially deep inputs -- a 100k-deep paren spine off the wire --
  // must fail with RESOURCE_EXHAUSTED well before the native stack runs
  // out. Real queries nest far below this.
  static constexpr int kMaxNestingDepth = 1'000;

  // Restores the depth a function entered with, so loop iterations can
  // charge EnterNesting once per constructed level (left-deep `or`/`and`
  // chains and `.`-path spines deepen the tree without recursing) and the
  // whole frame's charge is released on exit.
  struct DepthGuard {
    Parser* parser;
    int saved;
    ~DepthGuard() { parser->depth_ = saved; }
  };

  Status EnterNesting() {
    if (depth_ >= kMaxNestingDepth) {
      return ResourceExhaustedError(
          "AQUA nesting exceeds " + std::to_string(kMaxNestingDepth) +
          " levels at " + std::to_string(Peek().position));
    }
    ++depth_;
    return Status::OK();
  }

  const Token& Peek() const { return tokens_[index_]; }
  Token Advance() { return tokens_[index_++]; }
  bool PeekIdent(const char* word) const {
    return Peek().kind == Tok::kIdent && Peek().text == word;
  }
  Status Expect(Tok kind, const char* what) {
    if (Peek().kind != kind) {
      return InvalidArgumentError(std::string("expected ") + what + " at " +
                                  std::to_string(Peek().position) +
                                  ", got '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  StatusOr<ExprPtr> ParseOr() {
    DepthGuard guard{this, depth_};
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

  StatusOr<ExprPtr> ParseAnd() {
    DepthGuard guard{this, depth_};
    KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (PeekIdent("and")) {
      KOLA_RETURN_IF_ERROR(EnterNesting());
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Expr::And(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<ExprPtr> ParseNot() {
    if (PeekIdent("not")) {
      DepthGuard guard{this, depth_};
      KOLA_RETURN_IF_ERROR(EnterNesting());
      Advance();
      KOLA_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Not(std::move(operand));
    }
    return ParseCmp();
  }

  StatusOr<ExprPtr> ParseCmp() {
    KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParsePath());
    BinOp op;
    if (Peek().kind == Tok::kOp) {
      const std::string& text = Peek().text;
      if (text == "==") op = BinOp::kEq;
      else if (text == "!=") op = BinOp::kNeq;
      else if (text == "<") op = BinOp::kLt;
      else if (text == "<=") op = BinOp::kLeq;
      else if (text == ">") op = BinOp::kGt;
      else op = BinOp::kGeq;
      Advance();
    } else if (PeekIdent("in")) {
      Advance();
      op = BinOp::kIn;
    } else {
      return left;
    }
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParsePath());
    return Expr::MakeBinOp(op, std::move(left), std::move(right));
  }

  StatusOr<ExprPtr> ParsePath() {
    DepthGuard guard{this, depth_};
    // A parenthesized level recurses through six frames (ParseOr down to
    // ParsePrimary), so it is charged here as well as in ParseOr -- the
    // same two units per level the OQL parser charges -- keeping the
    // deepest accepted tower well inside the native stack.
    KOLA_RETURN_IF_ERROR(EnterNesting());
    KOLA_ASSIGN_OR_RETURN(ExprPtr expr, ParsePrimary());
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
    const Token& tok = Peek();
    switch (tok.kind) {
      case Tok::kInt: {
        Advance();
        // A lexed integer can still be overlong; reject instead of letting
        // std::stoll throw out of the parser.
        KOLA_ASSIGN_OR_RETURN(int64_t value, ParseInt64(tok.text));
        return Expr::Const(Value::Int(value));
      }
      case Tok::kString: {
        Advance();
        return Expr::Const(Value::Str(tok.text));
      }
      case Tok::kLBrace: {
        Advance();
        std::vector<Value> elements;
        if (Peek().kind != Tok::kRBrace) {
          while (true) {
            KOLA_ASSIGN_OR_RETURN(ExprPtr element, ParseOr());
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
        Advance();
        KOLA_ASSIGN_OR_RETURN(ExprPtr a, ParseOr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
        KOLA_ASSIGN_OR_RETURN(ExprPtr b, ParseOr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
        return Expr::Tuple(std::move(a), std::move(b));
      }
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
          if (!PeekIdent("then")) {
            return InvalidArgumentError("expected 'then'");
          }
          Advance();
          KOLA_ASSIGN_OR_RETURN(ExprPtr then_branch, ParseOr());
          if (!PeekIdent("else")) {
            return InvalidArgumentError("expected 'else'");
          }
          Advance();
          KOLA_ASSIGN_OR_RETURN(ExprPtr else_branch, ParseOr());
          return Expr::IfThenElse(std::move(cond), std::move(then_branch),
                                  std::move(else_branch));
        }
        if (tok.text == "true" || tok.text == "false") {
          Advance();
          return Expr::Const(Value::Bool(tok.text == "true"));
        }
        Advance();
        if (bound_.count(tok.text) > 0) return Expr::Var(tok.text);
        return Expr::Collection(tok.text);
      }
      default:
        return InvalidArgumentError("unexpected token '" + tok.text +
                                    "' at " + std::to_string(tok.position));
    }
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;
  std::multiset<std::string> bound_;
};

}  // namespace

StatusOr<ExprPtr> ParseAqua(std::string_view text) {
  KOLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  auto expr = parser.ParseAll();
  if (!expr.ok()) {
    return expr.status().WithContext("while parsing AQUA '" +
                                     std::string(text) + "'");
  }
  return expr;
}

}  // namespace aqua
}  // namespace kola
