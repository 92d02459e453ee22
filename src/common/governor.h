#ifndef KOLA_COMMON_GOVERNOR_H_
#define KOLA_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/resource.h"
#include "common/status.h"

namespace kola {

/// A shared resource budget for one optimization request: a wall-clock
/// deadline, a global step budget, a byte-level memory budget, and a
/// cooperative cancellation token. One Governor is threaded through every
/// layer of the pipeline (rewrite fixpoints, coko strategies, join
/// exploration, evaluation) so a request has a single budget instead of one
/// scattered `max_steps` per call.
///
/// Thread-safe: a batch driver may hand the same Governor to several
/// workers; charges are atomic and exhaustion is sticky (once stopped,
/// every subsequent Charge/CheckNow fails with the same cause). The
/// per-call `max_steps` caps still apply underneath a Governor; the
/// Governor only ever tightens the budget.
class Governor {
 public:
  enum class StopCause {
    kNone = 0,
    kDeadline,   // wall-clock deadline passed
    kBudget,     // global step budget spent
    kMemory,     // byte budget spent (see ChargeMemory)
    kCancelled,  // Cancel() was called
  };

  struct Limits {
    /// Wall-clock budget in milliseconds from Governor construction.
    /// 0 means no deadline.
    int64_t deadline_ms = 0;
    /// Total steps (rule firings + evaluator ticks) across the whole
    /// request. 0 means unlimited.
    int64_t step_budget = 0;
    /// Total bytes (interner arenas + exploration frontier + evaluator
    /// scratch + rule indexes + e-graph) across the whole request. 0 means
    /// unlimited -- charges are still accounted so peak usage is
    /// observable, they just never fail.
    int64_t memory_budget_bytes = 0;
  };

  explicit Governor(Limits limits);

  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// Spends `steps` from the budget and (periodically) checks the
  /// deadline. OK while the request may continue; RESOURCE_EXHAUSTED once
  /// any limit is hit. The clock is only sampled every few hundred charges
  /// so evaluator ticks stay cheap; CheckNow() samples it unconditionally.
  Status Charge(int64_t steps = 1) const;

  /// Checks the deadline and cancellation immediately without spending
  /// budget. Use at coarse boundaries (between optimizer blocks).
  Status CheckNow() const;

  /// Accounts `bytes` of live memory under `category`. OK while the
  /// request's total stays within limits().memory_budget_bytes (always OK
  /// when that is 0); once a charge fails the governor stops with cause
  /// kMemory and every later Charge/CheckNow/ChargeMemory fails too --
  /// memory exhaustion rides the same sticky degradation path as a
  /// deadline. The failed bytes are NOT counted as live (the caller must
  /// not allocate), but they do raise memory().peak_bytes().
  Status ChargeMemory(MemoryCategory category, int64_t bytes) const;

  /// Returns bytes previously charged; never fails, never un-stops.
  void ReleaseMemory(MemoryCategory category, int64_t bytes) const;

  /// The request's memory accounting (live per-category counters, peak).
  const MemoryBudget& memory() const { return memory_; }

  /// Cooperatively cancels the request: every later Charge/CheckNow
  /// returns RESOURCE_EXHAUSTED with cause kCancelled.
  void Cancel() const;

  bool stopped() const {
    return cause_.load(std::memory_order_acquire) != StopCause::kNone;
  }
  StopCause cause() const { return cause_.load(std::memory_order_acquire); }

  /// Steps charged so far (still counted after the budget is exhausted,
  /// so degradation reports can say how much work was done).
  int64_t steps_spent() const {
    return spent_.load(std::memory_order_relaxed);
  }

  const Limits& limits() const { return limits_; }

  static const char* StopCauseName(StopCause cause);

 private:
  Status Stop(StopCause cause) const;
  Status StopStatus() const;

  Limits limits_;
  std::chrono::steady_clock::time_point deadline_;
  MemoryBudget memory_;
  mutable std::atomic<StopCause> cause_{StopCause::kNone};
  mutable std::atomic<int64_t> spent_{0};
  mutable std::atomic<uint64_t> charges_{0};
};

/// The governor whose memory budget `TermInterner::Intern` charges arena
/// growth to on THIS thread, or nullptr when interner memory is unaccounted.
/// A thread-local ambient slot (like ActiveFaultInjector) because an arena
/// is shared by callers under different budgets and Intern has no options
/// channel. Installed by Optimizer::Optimize around a governed pass, where
/// plan exploration's dedup arena and the e-graph's arena intern.
const Governor* ActiveMemoryGovernor();

/// Installs `governor` (may be nullptr) as the calling thread's ambient
/// memory governor for the scope; restores the previous one on exit.
class ScopedMemoryGovernor {
 public:
  explicit ScopedMemoryGovernor(const Governor* governor);
  ~ScopedMemoryGovernor();
  ScopedMemoryGovernor(const ScopedMemoryGovernor&) = delete;
  ScopedMemoryGovernor& operator=(const ScopedMemoryGovernor&) = delete;

 private:
  const Governor* previous_;
};

/// RAII bookkeeping for one component's charges against one category of a
/// governor's memory budget: Add() charges, the destructor releases
/// whatever is still held, Release() hands back part early (eviction).
/// Default-constructed (or bound to a null governor) it is a no-op, so
/// ungoverned call sites pay one branch. Move-only.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  MemoryCharge(const Governor* governor, MemoryCategory category)
      : governor_(governor), category_(category) {}
  ~MemoryCharge() { ReleaseAll(); }

  MemoryCharge(MemoryCharge&& other) noexcept
      : governor_(std::exchange(other.governor_, nullptr)),
        category_(other.category_),
        bytes_(std::exchange(other.bytes_, 0)) {}
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      governor_ = std::exchange(other.governor_, nullptr);
      category_ = other.category_;
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;

  /// Charges `bytes` more. On failure nothing was charged and the caller
  /// must not allocate.
  Status Add(int64_t bytes) {
    if (governor_ == nullptr || bytes <= 0) return Status::OK();
    Status status = governor_->ChargeMemory(category_, bytes);
    if (status.ok()) bytes_ += bytes;
    return status;
  }

  /// Returns `bytes` of the held charge (clamped to what is held).
  void Release(int64_t bytes) {
    if (governor_ == nullptr) return;
    if (bytes > bytes_) bytes = bytes_;
    if (bytes <= 0) return;
    governor_->ReleaseMemory(category_, bytes);
    bytes_ -= bytes;
  }

  void ReleaseAll() {
    if (governor_ != nullptr && bytes_ > 0) {
      governor_->ReleaseMemory(category_, bytes_);
    }
    bytes_ = 0;
  }

  int64_t bytes() const { return bytes_; }

 private:
  const Governor* governor_ = nullptr;
  MemoryCategory category_ = MemoryCategory::kEvalScratch;
  int64_t bytes_ = 0;
};

}  // namespace kola

#endif  // KOLA_COMMON_GOVERNOR_H_
