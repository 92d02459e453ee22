#ifndef KOLA_COMMON_RESOURCE_H_
#define KOLA_COMMON_RESOURCE_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace kola {

/// Where a byte charge came from. Every allocation the optimizer can make
/// unboundedly is attributed to one of these, so a degradation report (and
/// kolash's :stats) can say WHICH structure blew the budget.
enum class MemoryCategory {
  kInternerArena = 0,  // canonical terms held by a TermInterner
  kExploreFrontier,    // candidate plans held by ExploreJoinPlans
  kEvalScratch,        // values materialized by the evaluator
  kRuleIndex,          // compiled discrimination-tree rule indexes
  kEGraph,             // e-nodes and hashcons entries held by an EGraph
};

inline constexpr int kNumMemoryCategories = 5;

const char* MemoryCategoryName(MemoryCategory category);

/// Byte-level resource accounting for one optimization request: per-category
/// charge counters, a high-water mark, and a sticky exhaustion latch.
///
/// A budget of 0 means "account but never exhaust" -- the counters and peak
/// still track so tools can report occupancy, but Charge never fails. With a
/// positive budget, the first Charge that would push the total past it fails
/// with RESOURCE_EXHAUSTED, rolls the attempted bytes back (the caller did
/// not allocate), and latches: every later Charge fails with the same cause.
/// Releases from earlier successful charges still apply after exhaustion.
///
/// Thread-safe: charges are atomic, exhaustion is a one-way latch, and the
/// peak is maintained with a CAS loop -- the same contract as Governor,
/// whose memory limb this is.
class MemoryBudget {
 public:
  explicit MemoryBudget(int64_t budget_bytes = 0);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Accounts `bytes` against `category`. OK while the total stays within
  /// the budget (or the budget is 0); RESOURCE_EXHAUSTED once it would not.
  Status Charge(MemoryCategory category, int64_t bytes) const;

  /// Returns `bytes` previously charged to `category`. Never fails and
  /// never un-latches exhaustion.
  void Release(MemoryCategory category, int64_t bytes) const;

  int64_t budget_bytes() const { return budget_bytes_; }

  /// Live bytes currently charged to `category` / across all categories.
  int64_t charged(MemoryCategory category) const;
  int64_t total_charged() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// High-water mark of charged(category): the most bytes that category
  /// ever held live at once. Unlike peak_bytes() it excludes failed
  /// charges (which never became live anywhere). Stats surfaces (kolash,
  /// kolad) report these so a blown budget names the structure at fault.
  int64_t peak(MemoryCategory category) const;

  /// High-water mark of total_charged(), including the failed charge that
  /// latched exhaustion (it records how much the request wanted).
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  bool exhausted() const {
    return exhausted_.load(std::memory_order_acquire);
  }

  /// The sticky failure (RESOURCE_EXHAUSTED naming the budget), or OK when
  /// not exhausted.
  Status ExhaustedStatus() const;

 private:
  void RaisePeak(int64_t candidate) const;

  int64_t budget_bytes_;
  mutable std::atomic<int64_t> charged_[kNumMemoryCategories];
  mutable std::atomic<int64_t> category_peak_[kNumMemoryCategories];
  mutable std::atomic<int64_t> total_{0};
  mutable std::atomic<int64_t> peak_{0};
  mutable std::atomic<bool> exhausted_{false};
};

}  // namespace kola

#endif  // KOLA_COMMON_RESOURCE_H_
