#ifndef KOLA_COKO_STRATEGY_H_
#define KOLA_COKO_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/statusor.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "term/term.h"

namespace kola {

/// Result of running a strategy: the (possibly unchanged) term and whether
/// anything fired. "Did not fire" is success, not an error -- a strategy
/// that matches nothing leaves the query alone, which is exactly the
/// behaviour the paper wants from gradual rule sets ("the query has still
/// been simplified", Section 4.2).
struct StrategyResult {
  TermPtr term;
  bool changed = false;
};

/// A COKO firing strategy: a deterministic program over rule applications.
/// The paper defers COKO to follow-on work but describes its shape -- "sets
/// of rules that are used together, together with strategies for their
/// firing". This is that subset: exhaust, first-of, one bottom-up sweep,
/// sequence, repeat-until-fixpoint.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual StatusOr<StrategyResult> Run(const TermPtr& term,
                                       const Rewriter& rewriter,
                                       Trace* trace) const = 0;

  /// The rule list of a single rule-list strategy (Exhaust, FirstOf,
  /// Everywhere), fingerprinted once; nullptr for Seq and Repeat.
  virtual const RuleSet* rules() const { return nullptr; }
};

using StrategyPtr = std::shared_ptr<const Strategy>;

/// Tries rules in order; the first that fires anywhere wins (no-op if none).
StrategyPtr FirstOf(std::vector<Rule> rules);

/// Runs sub-strategies in order; changed if any changed.
StrategyPtr Seq(std::vector<StrategyPtr> strategies);

/// Firing cap of an Exhaust strategy unless its caller sets one.
inline constexpr int kExhaustMaxSteps = 10'000;

/// Applies the rule set to fixpoint (leftmost-outermost, first matching
/// rule). Errors with RESOURCE_EXHAUSTED beyond `max_steps` firings.
StrategyPtr Exhaust(std::vector<Rule> rules,
                    int max_steps = kExhaustMaxSteps);

/// Repeats `body` while it reports change, at most `max_rounds` times.
StrategyPtr Repeat(StrategyPtr body, int max_rounds = 1'000);

/// One bottom-up sweep: at every position (children before parents), the
/// first rule that applies AT that position fires, once. The paper's rule
/// blocks need "to apply one or more rules in succession, and throughout a
/// tree" (Section 4.2); this is the single-sweep reading, cheaper and more
/// predictable than Exhaust for size-reducing rule sets like CNF cleanup.
StrategyPtr Everywhere(std::vector<Rule> rules);

/// A named rule block: a "conceptual transformation" such as "push selects
/// past joins" or one step of the hidden-join strategy.
class RuleBlock {
 public:
  RuleBlock(std::string name, StrategyPtr strategy)
      : name_(std::move(name)), strategy_(std::move(strategy)) {}

  const std::string& name() const { return name_; }
  const StrategyPtr& strategy() const { return strategy_; }

  /// The rule set of a block whose body is one rule-list statement
  /// (Strategy::rules()); nullptr for a composite body.
  const RuleSet* rules() const { return strategy_->rules(); }

  StatusOr<StrategyResult> Apply(const TermPtr& term,
                                 const Rewriter& rewriter,
                                 Trace* trace) const {
    // Strategy boundaries are a fault-injection site: a block failing as a
    // unit models a bad rule-set deploy, and the optimizer must degrade to
    // its best-so-far term rather than fail the request.
    Status injected = MaybeInjectFault(FaultSite::kStrategy);
    if (!injected.ok()) {
      return injected.WithContext("rule block '" + name_ + "'");
    }
    if (rewriter.options().governor != nullptr) {
      Status budget = rewriter.options().governor->CheckNow();
      if (!budget.ok()) {
        return budget.WithContext("rule block '" + name_ + "'");
      }
    }
    return strategy_->Run(term, rewriter, trace);
  }

 private:
  std::string name_;
  StrategyPtr strategy_;
};

}  // namespace kola

#endif  // KOLA_COKO_STRATEGY_H_
