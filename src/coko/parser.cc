#include "coko/parser.h"

#include <cctype>

#include "common/macros.h"

namespace kola {

const RuleBlock* CokoModule::Find(const std::string& name) const {
  for (const RuleBlock& block : blocks) {
    if (block.name() == name) return &block;
  }
  return nullptr;
}

namespace {

struct Token {
  enum Kind { kWord, kComma, kSemicolon, kLBrace, kRBrace, kEnd } kind;
  std::string text;
  size_t position;
};

std::vector<Token> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t pos = 0;
  while (pos < text.size()) {
    char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (pos < text.size() && text[pos] != '\n') ++pos;
      continue;
    }
    size_t at = pos;
    switch (c) {
      case ',': tokens.push_back({Token::kComma, ",", at}); ++pos; continue;
      case ';':
        tokens.push_back({Token::kSemicolon, ";", at});
        ++pos;
        continue;
      case '{': tokens.push_back({Token::kLBrace, "{", at}); ++pos; continue;
      case '}': tokens.push_back({Token::kRBrace, "}", at}); ++pos; continue;
      default: break;
    }
    // Words: block names and rule ids (letters, digits, '.', '-', '_')
    // plus the '~' and '!' modifiers.
    size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == '-' || text[pos] == '_' ||
            text[pos] == '~' || text[pos] == '!')) {
      ++pos;
    }
    if (pos == start) {
      tokens.push_back({Token::kWord, std::string(1, c), at});
      ++pos;
      continue;
    }
    tokens.push_back(
        {Token::kWord, std::string(text.substr(start, pos - start)), at});
  }
  tokens.push_back({Token::kEnd, "", text.size()});
  return tokens;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const std::vector<Rule>* catalog)
      : tokens_(std::move(tokens)), catalog_(catalog) {}

  StatusOr<CokoModule> ParseModule() {
    CokoModule module;
    while (Peek().kind != Token::kEnd) {
      KOLA_RETURN_IF_ERROR(ExpectWord("block"));
      if (Peek().kind != Token::kWord) {
        return InvalidArgumentError("expected block name");
      }
      std::string name = Advance().text;
      KOLA_RETURN_IF_ERROR(Expect(Token::kLBrace, "'{'"));
      KOLA_ASSIGN_OR_RETURN(StrategyPtr body, ParseStmts(module));
      KOLA_RETURN_IF_ERROR(Expect(Token::kRBrace, "'}'"));
      module.blocks.emplace_back(std::move(name), std::move(body));
    }
    if (module.blocks.empty()) {
      return InvalidArgumentError("COKO module defines no blocks");
    }
    return module;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  Token Advance() { return tokens_[index_++]; }

  Status Expect(Token::Kind kind, const char* what) {
    if (Peek().kind != kind) {
      return InvalidArgumentError(std::string("expected ") + what +
                                  " at offset " +
                                  std::to_string(Peek().position) +
                                  ", got '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ExpectWord(const char* word) {
    if (Peek().kind != Token::kWord || Peek().text != word) {
      return InvalidArgumentError(std::string("expected '") + word +
                                  "' at offset " +
                                  std::to_string(Peek().position) +
                                  ", got '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  /// Resolves "id", "id~", "id!", "id~!" against the catalog.
  StatusOr<Rule> ResolveRule(const std::string& reference) {
    std::string id = reference;
    bool reversed = false;
    bool apply_level = false;
    while (!id.empty() && (id.back() == '~' || id.back() == '!')) {
      if (id.back() == '~') reversed = true;
      if (id.back() == '!') apply_level = true;
      id.pop_back();
    }
    KOLA_ASSIGN_OR_RETURN(const Rule* found, TryFindRule(*catalog_, id));
    Rule rule = *found;
    if (reversed) {
      KOLA_ASSIGN_OR_RETURN(rule, ReverseRule(rule));
    }
    if (apply_level) {
      KOLA_ASSIGN_OR_RETURN(rule, ApplyLevelVariant(rule));
    }
    return rule;
  }

  StatusOr<std::vector<Rule>> ParseRuleList() {
    std::vector<Rule> rules;
    while (true) {
      if (Peek().kind != Token::kWord) {
        return InvalidArgumentError("expected rule id at offset " +
                                    std::to_string(Peek().position));
      }
      KOLA_ASSIGN_OR_RETURN(Rule rule, ResolveRule(Advance().text));
      rules.push_back(std::move(rule));
      if (Peek().kind != Token::kComma) break;
      Advance();
    }
    return rules;
  }

  StatusOr<StrategyPtr> ParseStmts(const CokoModule& module) {
    std::vector<StrategyPtr> strategies;
    while (Peek().kind == Token::kWord) {
      const std::string& keyword = Peek().text;
      if (keyword == "exhaust") {
        Advance();
        KOLA_ASSIGN_OR_RETURN(std::vector<Rule> rules, ParseRuleList());
        KOLA_RETURN_IF_ERROR(Expect(Token::kSemicolon, "';'"));
        strategies.push_back(Exhaust(std::move(rules)));
      } else if (keyword == "once") {
        Advance();
        KOLA_ASSIGN_OR_RETURN(std::vector<Rule> rules, ParseRuleList());
        KOLA_RETURN_IF_ERROR(Expect(Token::kSemicolon, "';'"));
        strategies.push_back(FirstOf(std::move(rules)));
      } else if (keyword == "everywhere") {
        Advance();
        KOLA_ASSIGN_OR_RETURN(std::vector<Rule> rules, ParseRuleList());
        KOLA_RETURN_IF_ERROR(Expect(Token::kSemicolon, "';'"));
        strategies.push_back(Everywhere(std::move(rules)));
      } else if (keyword == "repeat") {
        Advance();
        KOLA_RETURN_IF_ERROR(Expect(Token::kLBrace, "'{'"));
        KOLA_ASSIGN_OR_RETURN(StrategyPtr body, ParseStmts(module));
        KOLA_RETURN_IF_ERROR(Expect(Token::kRBrace, "'}'"));
        strategies.push_back(Repeat(std::move(body)));
      } else if (keyword == "use") {
        Advance();
        if (Peek().kind != Token::kWord) {
          return InvalidArgumentError("expected block name after 'use'");
        }
        std::string name = Advance().text;
        KOLA_RETURN_IF_ERROR(Expect(Token::kSemicolon, "';'"));
        const RuleBlock* block = module.Find(name);
        if (block == nullptr) {
          return NotFoundError("'use " + name +
                               "' references an undefined block (blocks "
                               "must be defined before use)");
        }
        strategies.push_back(block->strategy());
      } else {
        break;  // 'block' or '}' handled by the caller
      }
    }
    if (strategies.empty()) {
      return InvalidArgumentError("empty strategy body");
    }
    if (strategies.size() == 1) return strategies[0];
    return Seq(std::move(strategies));
  }

  std::vector<Token> tokens_;
  size_t index_ = 0;
  const std::vector<Rule>* catalog_;
};

}  // namespace

StatusOr<CokoModule> ParseCoko(std::string_view text,
                               const std::vector<Rule>& catalog) {
  Parser parser(Tokenize(text), &catalog);
  return parser.ParseModule();
}

}  // namespace kola
