#include "oql/oql.h"

#include <cctype>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/parse_number.h"

namespace kola {
namespace oql {

namespace {

using aqua::BinOp;
using aqua::Expr;
using aqua::ExprKind;
using aqua::ExprPtr;

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
  kOp,
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
              text[pos] == '_')) {
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
          return InvalidArgumentError("unknown operator '" + op + "'");
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

  StatusOr<ExprPtr> ParseTopLevel() {
    KOLA_ASSIGN_OR_RETURN(ExprPtr query, ParseSelect());
    if (Peek().kind != Tok::kEnd) {
      return InvalidArgumentError("trailing input at " +
                                  std::to_string(Peek().position) + ": '" +
                                  Peek().text + "'");
    }
    return query;
  }

 private:
  // Nesting bound for the recursive descent, mirroring the KOLA term
  // parser's guard: every nesting level (parentheses, nested selects,
  // `not` chains) costs a handful of native frames, so adversarially deep
  // inputs off the wire must fail with RESOURCE_EXHAUSTED well before the
  // native stack runs out. Real queries nest far below this.
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
          "OQL nesting exceeds " + std::to_string(kMaxNestingDepth) +
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
  Status ExpectKeyword(const char* word) {
    if (!PeekIdent(word)) {
      return InvalidArgumentError(std::string("expected '") + word +
                                  "' at " + std::to_string(Peek().position) +
                                  ", got '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  /// select E from x1 in C1, ... where Q
  StatusOr<ExprPtr> ParseSelect() {
    // A nested select recurses through ParseExpr and this frame, so it is
    // charged here as well as in ParseExpr: two units per level, like a
    // parenthesized level, keep the deepest accepted nest inside the
    // native stack.
    DepthGuard guard{this, depth_};
    KOLA_RETURN_IF_ERROR(EnterNesting());
    KOLA_RETURN_IF_ERROR(ExpectKeyword("select"));
    // Projection parses after the bindings are known? No: OQL scoping puts
    // all FROM variables in scope of the select list, so we parse the raw
    // token range... Simpler and sufficient: parse the projection lazily by
    // recording its token span and re-parsing after bindings are bound.
    size_t projection_start = index_;
    KOLA_RETURN_IF_ERROR(SkipExprTokens());
    size_t projection_end = index_;

    KOLA_RETURN_IF_ERROR(ExpectKeyword("from"));
    struct Binding {
      std::string var;
      ExprPtr source;
    };
    std::vector<Binding> bindings;
    while (true) {
      if (Peek().kind != Tok::kIdent) {
        return InvalidArgumentError("expected binding variable at " +
                                    std::to_string(Peek().position));
      }
      std::string var = Advance().text;
      KOLA_RETURN_IF_ERROR(ExpectKeyword("in"));
      KOLA_ASSIGN_OR_RETURN(ExprPtr source, ParseExpr());
      bindings.push_back(Binding{var, std::move(source)});
      bound_.insert(bindings.back().var);
      if (Peek().kind != Tok::kComma) break;
      Advance();
    }

    ExprPtr predicate;  // may stay null
    if (PeekIdent("where")) {
      Advance();
      KOLA_ASSIGN_OR_RETURN(predicate, ParsePred());
    }

    // Re-parse the projection with all binding variables in scope.
    size_t saved = index_;
    index_ = projection_start;
    KOLA_ASSIGN_OR_RETURN(ExprPtr projection, ParseExpr());
    if (index_ != projection_end) {
      return InvalidArgumentError("malformed select list");
    }
    index_ = saved;

    for (const Binding& b : bindings) bound_.erase(bound_.find(b.var));

    // Lower: innermost binding gets app/sel; outer bindings wrap
    // flatten(app(...)).
    const Binding& innermost = bindings.back();
    ExprPtr source = innermost.source;
    if (predicate != nullptr) {
      source = Expr::Sel(Expr::Lambda({innermost.var}, predicate),
                         std::move(source));
    }
    // `select x from x in S ...` needs no identity map over S.
    bool trivial_projection = projection->kind() == ExprKind::kVar &&
                              projection->name() == innermost.var;
    ExprPtr lowered =
        trivial_projection
            ? std::move(source)
            : Expr::App(Expr::Lambda({innermost.var}, projection),
                        std::move(source));
    for (size_t i = bindings.size() - 1; i-- > 0;) {
      lowered = Expr::Flatten(Expr::App(
          Expr::Lambda({bindings[i].var}, std::move(lowered)),
          bindings[i].source));
    }
    return lowered;
  }

  /// Skips one expression's tokens (balanced brackets) up to the keyword
  /// `from` at depth 0. Used to defer projection parsing until the FROM
  /// variables are known.
  Status SkipExprTokens() {
    int depth = 0;
    while (true) {
      const Token& tok = Peek();
      if (tok.kind == Tok::kEnd) {
        return InvalidArgumentError("unterminated select list");
      }
      if (depth == 0 && tok.kind == Tok::kIdent && tok.text == "from") {
        return Status::OK();
      }
      if (tok.kind == Tok::kLParen || tok.kind == Tok::kLBracket ||
          tok.kind == Tok::kLBrace) {
        ++depth;
      }
      if (tok.kind == Tok::kRParen || tok.kind == Tok::kRBracket ||
          tok.kind == Tok::kRBrace) {
        --depth;
        if (depth < 0) return InvalidArgumentError("unbalanced brackets");
      }
      Advance();
    }
  }

  StatusOr<ExprPtr> ParsePred() { return ParseOr(); }

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
    KOLA_ASSIGN_OR_RETURN(ExprPtr left, ParseExpr());
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
      return left;  // bare boolean expression (rare)
    }
    KOLA_ASSIGN_OR_RETURN(ExprPtr right, ParseExpr());
    return Expr::MakeBinOp(op, std::move(left), std::move(right));
  }

  StatusOr<ExprPtr> ParseExpr() {
    DepthGuard guard{this, depth_};
    KOLA_RETURN_IF_ERROR(EnterNesting());
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
            KOLA_ASSIGN_OR_RETURN(ExprPtr element, ParseExpr());
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
        KOLA_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
        KOLA_ASSIGN_OR_RETURN(ExprPtr b, ParseExpr());
        KOLA_RETURN_IF_ERROR(Expect(Tok::kRBracket, "']'"));
        return Expr::Tuple(std::move(a), std::move(b));
      }
      case Tok::kLParen: {
        Advance();
        ExprPtr inner;
        if (PeekIdent("select")) {
          KOLA_ASSIGN_OR_RETURN(inner, ParseSelect());
        } else {
          KOLA_ASSIGN_OR_RETURN(inner, ParsePred());
        }
        KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        return inner;
      }
      case Tok::kIdent: {
        if (tok.text == "true" || tok.text == "false") {
          Advance();
          return Expr::Const(Value::Bool(tok.text == "true"));
        }
        if (tok.text == "flatten" &&
            tokens_[index_ + 1].kind == Tok::kLParen) {
          Advance();  // flatten
          Advance();  // (
          ExprPtr inner;
          if (PeekIdent("select")) {
            KOLA_ASSIGN_OR_RETURN(inner, ParseSelect());
          } else {
            KOLA_ASSIGN_OR_RETURN(inner, ParseExpr());
          }
          KOLA_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return Expr::Flatten(std::move(inner));
        }
        Advance();
        ExprPtr expr = bound_.count(tok.text) > 0
                           ? Expr::Var(tok.text)
                           : Expr::Collection(tok.text);
        while (Peek().kind == Tok::kDot) {
          KOLA_RETURN_IF_ERROR(EnterNesting());
          Advance();
          if (Peek().kind != Tok::kIdent) {
            return InvalidArgumentError("expected attribute after '.'");
          }
          expr = Expr::FunCall(Advance().text, std::move(expr));
        }
        return expr;
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

StatusOr<aqua::ExprPtr> ParseOql(std::string_view text) {
  KOLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  auto expr = parser.ParseTopLevel();
  if (!expr.ok()) {
    return expr.status().WithContext("while parsing OQL '" +
                                     std::string(text) + "'");
  }
  return expr;
}

}  // namespace oql
}  // namespace kola
