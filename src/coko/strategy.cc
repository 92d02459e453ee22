#include "coko/strategy.h"

#include "common/macros.h"

namespace kola {

namespace {

class FirstOfStrategy : public Strategy {
 public:
  explicit FirstOfStrategy(std::vector<Rule> rules)
      : rules_(std::move(rules)) {}

  StatusOr<StrategyResult> Run(const TermPtr& term, const Rewriter& rewriter,
                               Trace* trace) const override {
    RewriteStep step;
    if (auto result = rewriter.ApplyAnyOnce(rules_, term, &step)) {
      if (trace != nullptr) {
        if (trace->initial == nullptr) trace->initial = term;
        trace->steps.push_back(std::move(step));
      }
      return StrategyResult{*result, true};
    }
    return StrategyResult{term, false};
  }

  const RuleSet* rules() const override { return &rules_; }

 private:
  RuleSet rules_;
};

class SeqStrategy : public Strategy {
 public:
  explicit SeqStrategy(std::vector<StrategyPtr> strategies)
      : strategies_(std::move(strategies)) {}

  StatusOr<StrategyResult> Run(const TermPtr& term, const Rewriter& rewriter,
                               Trace* trace) const override {
    StrategyResult accumulated{term, false};
    for (const StrategyPtr& strategy : strategies_) {
      // Strategy-step boundary: like Repeat, probe the clock before every
      // component so a deadline that expired inside the previous one stops
      // the sequence immediately (in-Charge sampling is periodic and can
      // trail a slow step by hundreds of ms).
      if (rewriter.options().governor != nullptr) {
        KOLA_RETURN_IF_ERROR(rewriter.options().governor->CheckNow());
      }
      KOLA_ASSIGN_OR_RETURN(StrategyResult result,
                            strategy->Run(accumulated.term, rewriter, trace));
      accumulated.term = result.term;
      accumulated.changed = accumulated.changed || result.changed;
    }
    return accumulated;
  }

 private:
  std::vector<StrategyPtr> strategies_;
};

class ExhaustStrategy : public Strategy {
 public:
  ExhaustStrategy(std::vector<Rule> rules, int max_steps)
      : rules_(std::move(rules)), max_steps_(max_steps) {}

  StatusOr<StrategyResult> Run(const TermPtr& term, const Rewriter& rewriter,
                               Trace* trace) const override {
    size_t steps_before = trace == nullptr ? 0 : trace->steps.size();
    KOLA_ASSIGN_OR_RETURN(
        TermPtr result, rewriter.Fixpoint(rules_, term, trace, max_steps_));
    bool changed = trace == nullptr ? !Term::Equal(result, term)
                                    : trace->steps.size() > steps_before;
    return StrategyResult{std::move(result), changed};
  }

  const RuleSet* rules() const override { return &rules_; }

 private:
  RuleSet rules_;
  int max_steps_;
};

class RepeatStrategy : public Strategy {
 public:
  RepeatStrategy(StrategyPtr body, int max_rounds)
      : body_(std::move(body)), max_rounds_(max_rounds) {}

  StatusOr<StrategyResult> Run(const TermPtr& term, const Rewriter& rewriter,
                               Trace* trace) const override {
    StrategyResult accumulated{term, false};
    for (int round = 0; round < max_rounds_; ++round) {
      if (rewriter.options().governor != nullptr) {
        KOLA_RETURN_IF_ERROR(rewriter.options().governor->CheckNow());
      }
      KOLA_ASSIGN_OR_RETURN(StrategyResult result,
                            body_->Run(accumulated.term, rewriter, trace));
      if (!result.changed) return accumulated;
      accumulated.term = result.term;
      accumulated.changed = true;
    }
    return ResourceExhaustedError("Repeat strategy exceeded " +
                                  std::to_string(max_rounds_) + " rounds");
  }

 private:
  StrategyPtr body_;
  int max_rounds_;
};

class EverywhereStrategy : public Strategy {
 public:
  explicit EverywhereStrategy(std::vector<Rule> rules)
      : rules_(std::move(rules)) {}

  StatusOr<StrategyResult> Run(const TermPtr& term, const Rewriter& rewriter,
                               Trace* trace) const override {
    bool changed = false;
    // One index acquisition per sweep (the fingerprint is precomputed at
    // construction), consulted at every node below. nullptr degrades every
    // ApplyAnyAtRoot to the plain linear probe.
    auto index = rewriter.IndexFor(rules_.rules(), rules_.fingerprint());
    TermPtr result = Sweep(term, rewriter, index.get(), trace, &changed);
    return StrategyResult{std::move(result), changed};
  }

  const RuleSet* rules() const override { return &rules_; }

 private:
  TermPtr Sweep(const TermPtr& term, const Rewriter& rewriter,
                const RuleIndex* index, Trace* trace, bool* changed) const {
    // Children first.
    TermPtr current = term;
    if (!term->is_leaf()) {
      bool child_changed = false;
      std::vector<TermPtr> children;
      children.reserve(term->arity());
      for (const TermPtr& child : term->children()) {
        TermPtr swept = Sweep(child, rewriter, index, trace, changed);
        child_changed = child_changed || swept.get() != child.get();
        children.push_back(std::move(swept));
      }
      if (child_changed) current = term->WithChildren(std::move(children));
    }
    // Then this position, once.
    size_t fired = 0;
    if (auto rewritten = rewriter.ApplyAnyAtRoot(rules_.rules(), current,
                                                 index, &fired)) {
      if (trace != nullptr) {
        if (trace->initial == nullptr) trace->initial = term;
        trace->steps.push_back(
            RewriteStep{rules_.rules()[fired].id, {}, current, *rewritten,
                        *rewritten});
      }
      *changed = true;
      return *rewritten;
    }
    return current;
  }

  RuleSet rules_;
};

}  // namespace

StrategyPtr FirstOf(std::vector<Rule> rules) {
  return std::make_shared<FirstOfStrategy>(std::move(rules));
}

StrategyPtr Seq(std::vector<StrategyPtr> strategies) {
  return std::make_shared<SeqStrategy>(std::move(strategies));
}

StrategyPtr Exhaust(std::vector<Rule> rules, int max_steps) {
  return std::make_shared<ExhaustStrategy>(std::move(rules), max_steps);
}

StrategyPtr Repeat(StrategyPtr body, int max_rounds) {
  return std::make_shared<RepeatStrategy>(std::move(body), max_rounds);
}

StrategyPtr Everywhere(std::vector<Rule> rules) {
  return std::make_shared<EverywhereStrategy>(std::move(rules));
}

}  // namespace kola
