// Memory-budgeted optimization: byte-level accounting (common/resource.h),
// the governor's sticky kMemory stop, interner byte tracking + epoch
// compaction, and the retry/escalation supervisor. The invariants under
// test:
//  * a byte budget degrades or quarantines, it never aborts or unsounds,
//  * an accounting-only governor (budget 0) never fails and never changes
//    results,
//  * every report -- supervisor batches, the soundness sweep -- is
//    byte-identical at every jobs level.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/governor.h"
#include "common/resource.h"
#include "optimizer/optimizer.h"
#include "optimizer/retry.h"
#include "term/intern.h"
#include "term/parser.h"
#include "values/car_world.h"
#include "verify/soundness.h"

namespace kola {
namespace {

TermPtr Q(const char* text, Sort sort = Sort::kObject) {
  auto t = ParseTerm(text, sort);
  EXPECT_TRUE(t.ok()) << t.status();
  return t.value();
}

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, ZeroBudgetAccountsButNeverExhausts) {
  MemoryBudget budget(0);
  EXPECT_TRUE(
      budget.Charge(MemoryCategory::kInternerArena, int64_t{1} << 30).ok());
  EXPECT_TRUE(budget.Charge(MemoryCategory::kEvalScratch, 512).ok());
  EXPECT_EQ(budget.charged(MemoryCategory::kInternerArena), int64_t{1} << 30);
  EXPECT_EQ(budget.charged(MemoryCategory::kEvalScratch), 512);
  EXPECT_EQ(budget.total_charged(), (int64_t{1} << 30) + 512);
  EXPECT_EQ(budget.peak_bytes(), (int64_t{1} << 30) + 512);
  EXPECT_FALSE(budget.exhausted());

  budget.Release(MemoryCategory::kInternerArena, int64_t{1} << 30);
  budget.Release(MemoryCategory::kEvalScratch, 512);
  EXPECT_EQ(budget.total_charged(), 0);
  // Peak is a high-water mark; releases never lower it.
  EXPECT_EQ(budget.peak_bytes(), (int64_t{1} << 30) + 512);
}

TEST(MemoryBudgetTest, OverchargeRollsBackLatchesAndRaisesPeak) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Charge(MemoryCategory::kExploreFrontier, 60).ok());
  Status over = budget.Charge(MemoryCategory::kExploreFrontier, 60);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.exhausted());
  // The failed charge was rolled back (the caller must not allocate) but
  // the attempt still shows in the peak.
  EXPECT_EQ(budget.charged(MemoryCategory::kExploreFrontier), 60);
  EXPECT_EQ(budget.total_charged(), 60);
  EXPECT_EQ(budget.peak_bytes(), 120);
  // Sticky: even a 1-byte charge that would fit now fails.
  EXPECT_FALSE(budget.Charge(MemoryCategory::kEvalScratch, 1).ok());
}

TEST(MemoryBudgetTest, NonPositiveChargesAreFreeEvenWhenExhausted) {
  MemoryBudget budget(10);
  EXPECT_FALSE(budget.Charge(MemoryCategory::kEvalScratch, 11).ok());
  EXPECT_TRUE(budget.Charge(MemoryCategory::kEvalScratch, 0).ok());
  EXPECT_TRUE(budget.Charge(MemoryCategory::kEvalScratch, -5).ok());
}

// ---------------------------------------------------------------------------
// MemoryCharge RAII + Governor integration
// ---------------------------------------------------------------------------

TEST(MemoryChargeTest, DestructorReleasesAndPartialReleaseClamps) {
  Governor governor{Governor::Limits{}};
  {
    MemoryCharge charge(&governor, MemoryCategory::kExploreFrontier);
    EXPECT_TRUE(charge.Add(500).ok());
    EXPECT_EQ(governor.memory().charged(MemoryCategory::kExploreFrontier),
              500);
    charge.Release(200);
    EXPECT_EQ(charge.bytes(), 300);
    // Clamped: releasing more than held hands back exactly what is held.
    charge.Release(10'000);
    EXPECT_EQ(charge.bytes(), 0);
    EXPECT_TRUE(charge.Add(42).ok());
  }
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kExploreFrontier), 0);
  EXPECT_EQ(governor.memory().peak_bytes(), 500);
}

TEST(MemoryChargeTest, MoveTransfersOwnershipOfHeldBytes) {
  Governor governor{Governor::Limits{}};
  MemoryCharge a(&governor, MemoryCategory::kEvalScratch);
  ASSERT_TRUE(a.Add(100).ok());
  MemoryCharge b = std::move(a);
  EXPECT_EQ(a.bytes(), 0);
  EXPECT_EQ(b.bytes(), 100);
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kEvalScratch), 100);
  b.ReleaseAll();
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kEvalScratch), 0);
}

TEST(GovernorMemoryTest, MemoryExhaustionIsStickyAcrossAllProbes) {
  Governor governor{Governor::Limits{.memory_budget_bytes = 64}};
  EXPECT_TRUE(governor.ChargeMemory(MemoryCategory::kExploreFrontier, 64).ok());
  Status over = governor.ChargeMemory(MemoryCategory::kExploreFrontier, 1);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("memory budget"), std::string::npos);
  EXPECT_EQ(governor.cause(), Governor::StopCause::kMemory);
  // The stop is the governor's: step charges and clock probes fail too.
  EXPECT_FALSE(governor.Charge().ok());
  EXPECT_FALSE(governor.CheckNow().ok());
  // Releasing never un-stops (degradation already happened).
  governor.ReleaseMemory(MemoryCategory::kExploreFrontier, 64);
  EXPECT_TRUE(governor.stopped());
  EXPECT_FALSE(governor.ChargeMemory(MemoryCategory::kEvalScratch, 1).ok());
}

TEST(GovernorMemoryTest, FirstCauseWins) {
  Governor governor{
      Governor::Limits{.step_budget = 1, .memory_budget_bytes = 1}};
  ASSERT_TRUE(governor.Charge().ok());
  EXPECT_FALSE(governor.Charge().ok());  // step budget trips first
  EXPECT_EQ(governor.cause(), Governor::StopCause::kBudget);
  // A later memory overcharge does not rewrite the cause.
  EXPECT_FALSE(governor.ChargeMemory(MemoryCategory::kEvalScratch, 2).ok());
  EXPECT_EQ(governor.cause(), Governor::StopCause::kBudget);
}

// ---------------------------------------------------------------------------
// TermInterner: byte tracking and epoch compaction
// ---------------------------------------------------------------------------

TEST(InternerMemoryTest, BytesTrackInsertionsAndCompactDropsUnreachable) {
  TermInterner interner;
  EXPECT_EQ(interner.bytes(), 0);
  {
    TermPtr a = interner.Intern(Q("iterate(Kp(T), age) ! P"));
    ASSERT_NE(a, nullptr);
    EXPECT_GT(interner.size(), 0u);
    EXPECT_GT(interner.bytes(), 0);
    // Still referenced: compaction must keep every node of `a`.
    size_t dropped = interner.Compact();
    EXPECT_EQ(dropped, 0u);
  }
  // Sole owner is the arena now; compaction sweeps the root and then the
  // children it was keeping alive, down to empty.
  size_t dropped = interner.Compact();
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.bytes(), 0);
}

TEST(InternerMemoryTest, CompactKeepsWhatIsStillReferenced) {
  TermInterner arena;
  TermPtr kept = arena.Intern(Q("iterate(lt @ (age, Kf(30)), age) ! P"));
  arena.Intern(Q("iterate(lt @ (age, Kf(30)), city) ! P"));  // dropped
  const size_t size_before = arena.size();
  ASSERT_GT(size_before, 0u);
  arena.Compact();
  // The dropped query's unshared nodes are gone, everything `kept` still
  // references survives.
  EXPECT_LT(arena.size(), size_before);
  EXPECT_GT(arena.size(), 0u);
  // The survivor is still canonical in the arena.
  EXPECT_EQ(arena.Intern(Q("iterate(lt @ (age, Kf(30)), age) ! P")).get(),
            kept.get());
}

TEST(InternerMemoryTest, ChargesGoToAmbientGovernorAndFailureIsSound) {
  Governor governor{Governor::Limits{}};
  TermInterner interner;
  {
    ScopedMemoryGovernor scope(&governor);
    interner.Intern(Q("iterate(Kp(T), age) ! P"));
  }
  EXPECT_EQ(governor.memory().charged(MemoryCategory::kInternerArena),
            interner.bytes());

  // Exhausted budget: interning still returns a correct (just un-interned)
  // term, and the arena does not grow past the failure.
  Governor tiny{Governor::Limits{.memory_budget_bytes = 1}};
  TermInterner starved;
  ScopedMemoryGovernor scope(&tiny);
  TermPtr raw = Q("iterate(Kp(T), city) ! P");
  TermPtr result = starved.Intern(raw);
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(Term::Equal(result, raw));
  EXPECT_EQ(starved.size(), 0u);
  EXPECT_EQ(tiny.cause(), Governor::StopCause::kMemory);
}

// ---------------------------------------------------------------------------
// Optimizer under a byte budget
// ---------------------------------------------------------------------------

class BudgetedOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CarWorldOptions world;
    world.num_persons = 12;
    world.num_vehicles = 8;
    world.num_addresses = 6;
    world.seed = 1;
    db_ = BuildCarWorld(world);
    properties_ = PropertyStore::Default();
  }

  std::unique_ptr<Database> db_;
  PropertyStore properties_ = PropertyStore::Default();
};

TEST_F(BudgetedOptimizerTest, OneByteBudgetDegradesNeverAborts) {
  Optimizer optimizer(&properties_, db_.get());
  TermPtr q =
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P");
  Governor governor{Governor::Limits{.memory_budget_bytes = 1}};
  auto result = optimizer.Optimize(q, &governor);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degradation.degraded);
  EXPECT_EQ(result->degradation.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.cause(), Governor::StopCause::kMemory);
  ASSERT_NE(result->query, nullptr);  // the input floor survives
}

TEST_F(BudgetedOptimizerTest, AccountingOnlyGovernorMatchesUngoverned) {
  Optimizer optimizer(&properties_, db_.get());
  TermPtr q =
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P");
  Governor meter{Governor::Limits{}};
  auto governed = optimizer.Optimize(q, &meter);
  auto plain = optimizer.Optimize(q);
  ASSERT_TRUE(governed.ok() && plain.ok());
  EXPECT_FALSE(governed->degradation.degraded);
  EXPECT_TRUE(Term::Equal(governed->query, plain->query));
  EXPECT_TRUE(Term::Equal(governed->rewritten, plain->rewritten));
  // The meter saw the pass: something was charged and released.
  EXPECT_GT(meter.memory().peak_bytes(), 0);
}

// ---------------------------------------------------------------------------
// RetrySupervisor
// ---------------------------------------------------------------------------

TEST_F(BudgetedOptimizerTest, SupervisorEscalatesUntilClean) {
  Optimizer optimizer(&properties_, db_.get());
  TermPtr q =
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P");
  RetryOptions retry;
  retry.memory_budget_bytes = 64;  // guaranteed first-attempt degradation
  retry.max_attempts = 24;         // top of the schedule is ~a gigabyte
  RetrySupervisor supervisor(&optimizer, retry);
  RetryOutcome outcome = supervisor.Optimize(q);
  ASSERT_TRUE(outcome.ok()) << outcome.status;
  EXPECT_GE(outcome.report.attempts, 2);
  EXPECT_GT(outcome.report.final_budget, 64);
  EXPECT_FALSE(outcome.report.quarantined);
  EXPECT_FALSE(outcome.report.degraded);
  ASSERT_TRUE(outcome.result.has_value());
  // The clean escalated plan equals the never-budgeted plan.
  auto unbudgeted = optimizer.Optimize(q);
  ASSERT_TRUE(unbudgeted.ok());
  EXPECT_TRUE(Term::Equal(outcome.result->query, unbudgeted->query));
}

TEST_F(BudgetedOptimizerTest, SupervisorQuarantinesAtMaxEscalation) {
  Optimizer optimizer(&properties_, db_.get());
  TermPtr q =
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P");
  RetryOptions retry;
  retry.memory_budget_bytes = 1;  // 1 -> ~2 -> ~4 bytes: hopeless
  retry.max_attempts = 3;
  RetrySupervisor supervisor(&optimizer, retry);
  RetryOutcome outcome = supervisor.Optimize(q);
  ASSERT_TRUE(outcome.ok()) << outcome.status;
  EXPECT_EQ(outcome.report.attempts, 3);
  EXPECT_TRUE(outcome.report.quarantined);
  EXPECT_TRUE(outcome.report.degraded);
  // Quarantine keeps the floor plan, it never errors.
  ASSERT_TRUE(outcome.result.has_value());
  ASSERT_NE(outcome.result->query, nullptr);
}

TEST_F(BudgetedOptimizerTest, SupervisorBatchIsJobsInvariant) {
  Optimizer optimizer(&properties_, db_.get());
  std::vector<TermPtr> queries = {
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P"),
      Q("iterate(Kp(T), city) o iterate(Kp(T), addr) ! P"),
      Q("iterate(gt @ (age, Kf(30)), name) ! P"),
      Q("iterate(Kp(T), id) ! V"),
      Q("iterate(Kp(T), age) ! P"),
  };
  RetryOptions retry;
  retry.memory_budget_bytes = 700;  // some degrade-and-escalate, some clean
  retry.max_attempts = 4;
  RetrySupervisor supervisor(&optimizer, retry);

  auto serial = supervisor.OptimizeAll(queries, 1);
  auto parallel = supervisor.OptimizeAll(queries, 3);
  ASSERT_EQ(serial.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  bool any_retried = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << i << ": " << serial[i].status;
    ASSERT_TRUE(parallel[i].ok()) << i << ": " << parallel[i].status;
    EXPECT_EQ(serial[i].report.attempts, parallel[i].report.attempts) << i;
    EXPECT_EQ(serial[i].report.final_budget, parallel[i].report.final_budget)
        << i;
    EXPECT_EQ(serial[i].report.quarantined, parallel[i].report.quarantined)
        << i;
    EXPECT_EQ(serial[i].report.degraded, parallel[i].report.degraded) << i;
    EXPECT_TRUE(Term::Equal(serial[i].result->query,
                            parallel[i].result->query))
        << i;
    EXPECT_EQ(serial[i].result->degradation.ToString(),
              parallel[i].result->degradation.ToString())
        << i;
    any_retried = any_retried || serial[i].report.attempts > 1;
  }
  // The budget above is tuned so the sweep exercises the retry path; if
  // this fires, lower it rather than losing the coverage.
  EXPECT_TRUE(any_retried) << "budget too generous: nothing retried";
}

TEST_F(BudgetedOptimizerTest, SupervisorBatchPeakBytesJobsInvariant) {
  Optimizer optimizer(&properties_, db_.get());
  std::vector<TermPtr> queries = {
      Q("iterate(Kp(T), age) o iterate(gt @ (age, Kf(25)), id) ! P"),
      Q("iterate(Kp(T), city) o iterate(Kp(T), addr) ! P"),
      Q("iterate(gt @ (age, Kf(30)), name) ! P"),
      Q("iterate(Kp(T), id) ! V"),
      Q("iterate(Kp(T), age) ! P"),
  };
  RetryOptions retry;
  retry.memory_budget_bytes = 700;
  retry.max_attempts = 4;
  RetrySupervisor supervisor(&optimizer, retry);

  auto serial = supervisor.OptimizeAll(queries, 1);
  auto parallel = supervisor.OptimizeAll(queries, 3);

  ASSERT_EQ(serial.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << i << ": " << serial[i].status;
    ASSERT_TRUE(parallel[i].ok()) << i << ": " << parallel[i].status;
    EXPECT_EQ(serial[i].report.attempts, parallel[i].report.attempts) << i;
    EXPECT_TRUE(
        Term::Equal(serial[i].result->query, parallel[i].result->query))
        << i;
    // Byte accounting is part of the determinism contract too: the peak
    // high-water marks (total and per category) fold over per-attempt
    // governors, which are a pure function of (query, options, index).
    EXPECT_GT(serial[i].report.peak_bytes, 0) << i;
    EXPECT_EQ(serial[i].report.peak_bytes, parallel[i].report.peak_bytes)
        << i;
    for (int c = 0; c < kNumMemoryCategories; ++c) {
      EXPECT_EQ(serial[i].report.category_peak_bytes[c],
                parallel[i].report.category_peak_bytes[c])
          << i << " category " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Tight-memory soundness sweep
// ---------------------------------------------------------------------------

TEST(MemorySoundnessTest, TightBudgetSweepStaysCleanAndJobsInvariant) {
  SoundnessOptions options;
  options.trials = 25;
  options.seed = 11;
  options.gen_depth = 3;
  options.memory_budget_bytes = 3'000;  // tight: degradations expected
  options.retries = 2;
  options.jobs = 1;
  auto serial = SoundnessHarness(options).Run();
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_TRUE(serial->clean()) << serial->Summary();
  EXPECT_GT(serial->degraded + serial->quarantined, 0) << serial->Summary();

  options.jobs = 4;
  auto parallel = SoundnessHarness(options).Run();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(serial->Summary(), parallel->Summary());
}

}  // namespace
}  // namespace kola
