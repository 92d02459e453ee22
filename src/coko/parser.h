#ifndef KOLA_COKO_PARSER_H_
#define KOLA_COKO_PARSER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "coko/strategy.h"
#include "rewrite/rule.h"

namespace kola {

/// A parsed COKO module: named rule blocks in definition order.
struct CokoModule {
  std::vector<RuleBlock> blocks;

  /// Pointer into `blocks`; nullptr when absent.
  const RuleBlock* Find(const std::string& name) const;
};

/// Parses the COKO rule-block language -- the "[C]ontrol [O]f [K]OLA
/// [O]ptimizations" companion the paper leaves to future work
/// (Section 4.2): "rule blocks; sets of rules that are used together,
/// together with strategies for their firing".
///
///   module  := block*
///   block   := 'block' NAME '{' stmt* '}'
///   stmt    := 'exhaust' rules ';'        -- apply to fixpoint
///            | 'once' rules ';'           -- first rule that fires, once
///            | 'everywhere' rules ';'     -- one bottom-up sweep
///            | 'repeat' '{' stmt* '}'     -- loop body while it changes
///            | 'use' NAME ';'             -- run a previously defined block
///   rules   := ruleref (',' ruleref)*
///   ruleref := RULE-ID modifier*   with modifier '~' (right-to-left
///              reading) or '!' (apply-level variant)
///
/// Rule ids are resolved against `catalog` with TryFindRule -- normally
/// the rule catalog's `all` pool, passed by reference (no copy). A block
/// whose body is a single exhaust/once/everywhere statement exposes that
/// rule list, fingerprinted once, through RuleBlock::rules(). Comments run
/// from '#' to end of line. The optimizer's own blocks are one such module,
/// parsed once when the RuleCatalog is built (rules/catalog.cc). Example:
///
///   # the five-step hidden-join strategy
///   block break-up { exhaust 17!, 17b!, 2, 4, 18, norm.id-apply; }
///   block pipeline { use break-up; once 19; }
StatusOr<CokoModule> ParseCoko(std::string_view text,
                               const std::vector<Rule>& catalog);

}  // namespace kola

#endif  // KOLA_COKO_PARSER_H_
