#include "common/resource.h"

#include <string>

namespace kola {

const char* MemoryCategoryName(MemoryCategory category) {
  switch (category) {
    case MemoryCategory::kInternerArena:
      return "interner-arena";
    case MemoryCategory::kExploreFrontier:
      return "explore-frontier";
    case MemoryCategory::kEvalScratch:
      return "eval-scratch";
    case MemoryCategory::kRuleIndex:
      return "rule-index";
    case MemoryCategory::kEGraph:
      return "egraph";
  }
  return "unknown";
}

MemoryBudget::MemoryBudget(int64_t budget_bytes)
    : budget_bytes_(budget_bytes) {
  for (auto& counter : charged_) counter.store(0, std::memory_order_relaxed);
  for (auto& peak : category_peak_) peak.store(0, std::memory_order_relaxed);
}

void MemoryBudget::RaisePeak(int64_t candidate) const {
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (candidate > peak &&
         !peak_.compare_exchange_weak(peak, candidate,
                                      std::memory_order_relaxed)) {
  }
}

Status MemoryBudget::Charge(MemoryCategory category, int64_t bytes) const {
  if (bytes <= 0) return Status::OK();
  if (exhausted_.load(std::memory_order_acquire)) return ExhaustedStatus();
  auto& counter = charged_[static_cast<int>(category)];
  int64_t total = total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  RaisePeak(total);
  if (budget_bytes_ > 0 && total > budget_bytes_) {
    // The caller will NOT allocate on failure, so the attempted bytes come
    // back out of the live counters; the peak above keeps the evidence.
    total_.fetch_sub(bytes, std::memory_order_relaxed);
    exhausted_.store(true, std::memory_order_release);
    return ExhaustedStatus();
  }
  int64_t live = counter.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  auto& peak = category_peak_[static_cast<int>(category)];
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (live > seen && !peak.compare_exchange_weak(
                            seen, live, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void MemoryBudget::Release(MemoryCategory category, int64_t bytes) const {
  if (bytes <= 0) return;
  charged_[static_cast<int>(category)].fetch_sub(bytes,
                                                 std::memory_order_relaxed);
  total_.fetch_sub(bytes, std::memory_order_relaxed);
}

int64_t MemoryBudget::charged(MemoryCategory category) const {
  return charged_[static_cast<int>(category)].load(std::memory_order_relaxed);
}

int64_t MemoryBudget::peak(MemoryCategory category) const {
  return category_peak_[static_cast<int>(category)].load(
      std::memory_order_relaxed);
}

Status MemoryBudget::ExhaustedStatus() const {
  if (!exhausted_.load(std::memory_order_acquire)) return Status::OK();
  return ResourceExhaustedError("governor memory budget of " +
                                std::to_string(budget_bytes_) +
                                " bytes exceeded");
}

}  // namespace kola
