#ifndef KOLA_AQUA_SYNTAX_H_
#define KOLA_AQUA_SYNTAX_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "aqua/expr.h"
#include "common/statusor.h"

namespace kola {
namespace aqua {

// The front-end core shared by the AQUA parser (aqua/parser.cc) and the
// OQL parser (oql/oql.cc): one tokenizer, one token cursor with the scope
// of bound variables, one nesting guard and one predicate grammar. Each
// parser adds only its own language on top.

/// The two surface languages differ lexically in one point: only AQUA has
/// lambdas, so `\` and primed identifiers (`x'`) lex in AQUA and are
/// unexpected characters in OQL.
enum class Dialect { kAqua, kOql };

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
  kBackslash,  // AQUA only
  kOp,         // == != < <= > >=
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  size_t position;
};

/// Recursive-descent base over one token stream. It parses the boolean
/// chain both languages share,
///
///   or  := and ('or' and)*
///   and := not ('and' not)*
///   not := 'not' not | cmp
///   cmp := operand (('==' '!=' '<' '<=' '>' '>=' 'in') operand)?
///
/// and each language supplies `operand` (AQUA: path; OQL: expr).
class SyntaxParser {
 public:
  /// Tokenizes `text` and parses all of it with ParseTop(). Parse errors
  /// name the language and quote `text`.
  StatusOr<ExprPtr> Parse(std::string_view text);

 protected:
  explicit SyntaxParser(Dialect dialect)
      : dialect_(dialect),
        language_(dialect == Dialect::kAqua ? "AQUA" : "OQL") {}

  // Depth budget for the recursive descent, mirroring the KOLA term
  // parser's guard: every nesting level of the input (parentheses, nested
  // selects and calls, `not` chains) costs a handful of native frames, so
  // adversarially deep inputs -- a 100k-deep paren spine off the wire --
  // must fail with RESOURCE_EXHAUSTED well before the native stack runs
  // out. The budget is counted in charges, not levels: a paren level
  // costs 2 (ParseOr and the operand), a nested OQL select 2-3 and each
  // `not`, `and`, `or` or `.attr` 1. Real queries stay far below it.
  static constexpr int kMaxNestingDepth = 1'000;

  // Restores the depth a function entered with, so loop iterations can
  // charge EnterNesting once per constructed level (left-deep `or`/`and`
  // chains and `.`-path spines deepen the tree without recursing) and the
  // whole frame's charge is released on exit.
  struct DepthGuard {
    explicit DepthGuard(SyntaxParser* parser)
        : parser(parser), saved(parser->depth_) {}
    ~DepthGuard() { parser->depth_ = saved; }
    SyntaxParser* parser;
    int saved;
  };

  /// Charges one unit of the depth budget.
  Status EnterNesting();

  const Token& Peek(size_t ahead = 0) const { return tokens_[index_ + ahead]; }
  const Token& Advance() { return tokens_[index_++]; }
  bool PeekIdent(const char* word) const {
    return Peek().kind == Tok::kIdent && Peek().text == word;
  }
  Status Expect(Tok kind, const char* what);
  Status ExpectKeyword(const char* word);
  Status UnexpectedToken() const;

  /// The language's start symbol (AQUA: expr; OQL: query).
  virtual StatusOr<ExprPtr> ParseTop() = 0;
  /// The predicate grammar's top: or := and ('or' and)*.
  StatusOr<ExprPtr> ParseOr();
  /// A comparison operand.
  virtual StatusOr<ExprPtr> ParseOperand() = 0;
  /// An element of a set constant or a pair.
  virtual StatusOr<ExprPtr> ParseElement() = 0;

  /// True when the next token starts a primary both languages spell the
  /// same way: INT, STRING, `true`, `false`, a set constant
  /// '{' (const (',' const)*)? '}' or a pair '[' element ',' element ']'.
  bool PeekCommonPrimary() const;
  /// Consumes the primary PeekCommonPrimary() saw.
  StatusOr<ExprPtr> ParseCommonPrimary();
  /// ('.' IDENT)* after `expr`, charging one unit per attribute; the
  /// caller's DepthGuard releases them.
  StatusOr<ExprPtr> ParseAttributes(ExprPtr expr);
  /// A variable when bound by an enclosing binder, else a collection name.
  ExprPtr NameRef(const std::string& name) const;

  size_t index_ = 0;
  /// Binders in scope; a multiset so shadowed binders unwind one at a time.
  std::multiset<std::string> bound_;

 private:
  StatusOr<ExprPtr> ParseAnd();
  StatusOr<ExprPtr> ParseNot();
  StatusOr<ExprPtr> ParseCmp();

  std::vector<Token> tokens_;
  Dialect dialect_;
  const char* language_;
  int depth_ = 0;
};

}  // namespace aqua
}  // namespace kola

#endif  // KOLA_AQUA_SYNTAX_H_
