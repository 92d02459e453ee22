#ifndef KOLA_AQUA_PARSER_H_
#define KOLA_AQUA_PARSER_H_

#include <string_view>

#include "aqua/expr.h"
#include "common/statusor.h"

namespace kola {
namespace aqua {

/// Parses AQUA concrete syntax:
///
///   expr    := orE
///   orE     := andE ('or' andE)*
///   andE    := notE ('and' notE)*
///   notE    := 'not' notE | cmp
///   cmp     := path (('==' '!=' '<' '<=' '>' '>=' 'in') path)?
///   path    := primary ('.' IDENT)*
///   primary := INT | STRING | 'true' | 'false' | IDENT
///           | '{' (const (',' const)*)? '}'   -- every element a constant
///           | '[' expr ',' expr ']' | '(' expr ')'
///           | 'app' '(' lambda ')' '(' expr ')'
///           | 'sel' '(' lambda ')' '(' expr ')'
///           | 'flatten' '(' expr ')'
///           | 'join' '(' lambda ',' lambda ')' '(' expr ',' expr ')'
///           | 'if' expr 'then' expr 'else' expr
///   lambda  := '\' IDENT IDENT? '.' expr
///
/// INT may carry a leading '-'; identifiers may contain primes (`x'`). An
/// identifier is a variable reference when bound by an enclosing lambda,
/// otherwise a collection name. The boolean chain from orE down to cmp is
/// shared with the OQL front end (aqua/syntax.h). Example (the paper's A4):
///
///   app(\p. [p, sel(\c. p.age > 25)(p.child)])(P)
StatusOr<ExprPtr> ParseAqua(std::string_view text);

}  // namespace aqua
}  // namespace kola

#endif  // KOLA_AQUA_PARSER_H_
