#ifndef KOLA_OQL_OQL_H_
#define KOLA_OQL_OQL_H_

#include <string_view>

#include "aqua/expr.h"
#include "common/statusor.h"

namespace kola {
namespace oql {

/// A compact OQL-style surface language, lowered to AQUA (and from there,
/// via the translator, to KOLA). The paper reports translators "from both
/// OQL [9] and AQUA [25]"; like the paper's, this front end covers queries
/// over sets (no bags/lists).
///
///   query    := 'select' expr 'from' binding (',' binding)*
///               ('where' pred)?
///   binding  := IDENT 'in' expr
///   pred     := and ('or' and)*
///   and      := not ('and' not)*
///   not      := 'not' not | expr (('==' '!=' '<' '<=' '>' '>=' 'in') expr)?
///   expr     := path | INT | STRING | 'true' | 'false'
///             | '[' expr ',' expr ']'
///             | '{' (const (',' const)*)? '}'   -- every element a constant
///             | '(' query ')'                   -- nested subquery
///             | '(' pred ')'
///             | 'flatten' '(' (query | expr) ')'
///   path     := IDENT ('.' IDENT)*
///
/// INT may carry a leading '-'. `flatten` not followed by '(' is a
/// collection name. The predicate grammar is the AQUA front end's
/// (aqua/syntax.h); unlike AQUA, OQL has no lambdas, so `\` and primed
/// identifiers are rejected.
///
/// Lowering: `select E from x1 in C1, ..., xk in Ck where Q` becomes the
/// AQUA nest
///
///   flatten(app(\x1. ... flatten(app(\x_{k-1}.
///       app(\xk. E)(sel(\xk. Q)(Ck)) )(C_{k-1})) ... )(C1))
///
/// with Q attached to the innermost binding (every variable in scope).
/// Later bindings may range over paths rooted at earlier variables
/// (`c in p.child`), and subqueries in the select list see the enclosing
/// variables -- which is exactly how the paper's A3/A4 nested queries
/// arise from user syntax.
StatusOr<aqua::ExprPtr> ParseOql(std::string_view text);

}  // namespace oql
}  // namespace kola

#endif  // KOLA_OQL_OQL_H_
