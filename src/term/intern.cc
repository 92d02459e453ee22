#include "term/intern.h"

#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/governor.h"

namespace kola {

namespace {

/// Process-unique epoch ids; 0 is reserved for "never interned".
uint64_t NextEpoch() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Serializes first-tag writes across arenas. Two arenas hold different
/// shard locks for the same term, so the "first tag wins" check-then-write
/// needs its own (leaf) lock; it is only taken on the miss path.
std::mutex& TagMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

}  // namespace

TermInterner::TermInterner() : epoch_(NextEpoch()) {}

TermPtr TermInterner::Intern(TermPtr term) {
  if (term == nullptr) return term;
  // An injected interner fault models an arena allocation failing: the
  // term (and its whole subtree) is handed back un-interned. Structural
  // Equal still works on un-interned terms -- it just loses the pointer
  // fast path -- so this degradation is sound by construction.
  if (ActiveFaultInjector() != nullptr &&
      ActiveFaultInjector()->ShouldFail(FaultSite::kIntern)) {
    return term;
  }
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  // Already canonical in this arena. Tags are write-once, so a matching
  // epoch observed without the shard lock is final.
  if (term->intern_epoch_.load(std::memory_order_acquire) == epoch) {
    return term;
  }

  // Canonicalize children first so the bucket probes below resolve equality
  // through the interned-pointer fast path instead of deep walks. No locks
  // are held across the recursion -- each level locks only its own shard.
  TermPtr node = std::move(term);
  if (!node->is_leaf()) {
    bool changed = false;
    std::vector<TermPtr> children;
    children.reserve(node->arity());
    for (const TermPtr& child : node->children()) {
      TermPtr canonical = Intern(child);
      changed = changed || canonical.get() != child.get();
      children.push_back(std::move(canonical));
    }
    if (changed) {
      node = Term::NewNode(node->kind(), node->sort(), node->name(),
                           node->literal(), node->bool_const(),
                           std::move(children));
    }
  }

  Shard& shard = ShardFor(node->hash());
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.canon.insert(node);
  if (!inserted) {
    ++shard.hits;
    return *it;
  }
  // Arena growth is charged to the thread's ambient memory governor before
  // the entry is kept: a failed charge hands the term back un-interned,
  // exactly like an injected arena fault above -- sound, it only loses the
  // pointer fast path. The charge is not released per-entry (the arena
  // retains the term for the request's lifetime); a request-scoped
  // governor's accounting simply ends with the request, and a long-lived
  // one reads as cumulative arena occupancy.
  const int64_t footprint = TermFootprintBytes(*node);
  if (const Governor* governor = ActiveMemoryGovernor(); governor != nullptr) {
    if (!governor->ChargeMemory(MemoryCategory::kInternerArena, footprint)
             .ok()) {
      shard.canon.erase(it);
      return node;
    }
  }
  ++shard.misses;
  shard.bytes += footprint;
  // First tag wins: a term already canonical in another arena keeps that
  // arena's epoch/id (it still deduplicates here through set membership).
  // Order matters for lock-free readers: id first, then epoch with release,
  // so a reader that sees our epoch also sees our id.
  {
    std::lock_guard<std::mutex> tag_lock(TagMutex());
    if (node->intern_epoch_.load(std::memory_order_relaxed) == 0) {
      node->intern_id_.store(next_id_.fetch_add(1, std::memory_order_relaxed),
                             std::memory_order_relaxed);
      node->intern_epoch_.store(epoch, std::memory_order_release);
    }
  }
  return node;
}

TermId TermInterner::IdOf(const TermPtr& term) const {
  if (term == nullptr) return 0;
  if (term->intern_epoch_.load(std::memory_order_acquire) !=
      epoch_.load(std::memory_order_acquire)) {
    return 0;
  }
  return term->intern_id_.load(std::memory_order_relaxed);
}

size_t TermInterner::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.canon.size();
  }
  return total;
}

uint64_t TermInterner::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

uint64_t TermInterner::misses() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

int64_t TermInterner::bytes() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

int64_t TermInterner::TermFootprintBytes(const Term& term) {
  // The node, its control block, its name and child-vector allocations.
  // Literal payloads are deliberately not walked (a Value can own arbitrary
  // collections; the estimate must stay O(1) per node).
  return static_cast<int64_t>(sizeof(Term) + 2 * sizeof(void*) +
                              term.name().capacity() +
                              term.children().capacity() * sizeof(TermPtr));
}

size_t TermInterner::Compact() {
  size_t dropped_total = 0;
  for (;;) {
    size_t dropped = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.canon.begin(); it != shard.canon.end();) {
        // use_count 1 means the arena is the only owner, and it stays the
        // only owner while we hold the shard lock (acquiring a new
        // reference requires a lookup through this shard). Erasing the
        // entry destroys the term -- stale tag and all -- so the epoch
        // invariant Equal's fast path needs cannot be violated by a later
        // re-intern (which tags a brand-new node with a brand-new id).
        if (it->use_count() == 1) {
          shard.bytes -= TermFootprintBytes(**it);
          it = shard.canon.erase(it);
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    dropped_total += dropped;
    // A dropped parent may have been the last external owner of its
    // children's entries; sweep again until nothing moves.
    if (dropped == 0) break;
  }
  return dropped_total;
}

void TermInterner::Clear() {
  // Hold every shard lock while the epoch advances so no straggler can
  // insert under the old epoch after its shard was emptied.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kShards);
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }
  for (Shard& shard : shards_) {
    shard.canon.clear();
    shard.hits = 0;
    shard.misses = 0;
    shard.bytes = 0;
  }
  epoch_.store(NextEpoch(), std::memory_order_release);
  next_id_.store(1, std::memory_order_relaxed);
}

}  // namespace kola
