#include "optimizer/code_motion.h"

#include "common/macros.h"
#include "rules/catalog.h"
#include "term/parser.h"

namespace kola {

const std::vector<RuleBlock>& CodeMotionBlocks() {
  return RuleCatalog::Get().code_motion;
}

StatusOr<CodeMotionResult> ApplyCodeMotion(const TermPtr& query,
                                           const Rewriter& rewriter) {
  CodeMotionResult result;
  result.query = query;
  result.trace.initial = query;
  for (const RuleBlock& block : RuleCatalog::Get().code_motion) {
    KOLA_ASSIGN_OR_RETURN(StrategyResult block_result,
                          block.Apply(result.query, rewriter,
                                      &result.trace));
    result.query = block_result.term;
  }
  for (const RewriteStep& step : result.trace.steps) {
    if (step.rule_id == "15") {
      result.moved = true;
      break;
    }
  }
  return result;
}

TermPtr QueryK3() {
  auto term = ParseTerm(
      "iterate(Kp(T), (id, iter(gt @ (age o pi2, Kf(25)), pi2) o "
      "(id, child))) ! P",
      Sort::kObject);
  KOLA_CHECK_OK(term.status());
  return std::move(term).value();
}

TermPtr QueryK4() {
  auto term = ParseTerm(
      "iterate(Kp(T), (id, iter(gt @ (age o pi1, Kf(25)), pi2) o "
      "(id, child))) ! P",
      Sort::kObject);
  KOLA_CHECK_OK(term.status());
  return std::move(term).value();
}

}  // namespace kola
