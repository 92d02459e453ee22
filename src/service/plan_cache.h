#ifndef KOLA_SERVICE_PLAN_CACHE_H_
#define KOLA_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "term/term.h"

namespace kola {

/// Cache key for one optimized plan. A plan is a pure function of
/// (query, rule set, catalog): the query limb is the canonical TermId the
/// service's key interner assigned (hash-consing makes structurally equal
/// queries share one id, so the key is O(1) to build), the rule limb is the
/// stable FNV-1a RuleSetFingerprint of the catalog the optimizer rewrites
/// with, and the version limb is the service's monotonic catalog version --
/// bumping it (schema/extent change) orphans every older entry without
/// touching them.
struct PlanCacheKey {
  TermId query_id = 0;
  uint64_t rule_fingerprint = 0;
  uint64_t catalog_version = 0;

  bool operator==(const PlanCacheKey& other) const = default;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  int64_t bytes = 0;  // payload + key-term footprint of live entries
};

/// One live entry, copied out for snapshotting: the key, an owning
/// reference to the canonical key term, and the cached payload.
struct PlanCacheEntry {
  PlanCacheKey key;
  TermPtr term;
  std::string payload;
};

/// A capacity-bounded map from PlanCacheKey to a serialized optimization
/// outcome, with deterministic second-chance (clock) eviction: a hit sets
/// the entry's referenced bit, and at capacity the hand sweeps the
/// insertion-ordered ring clearing bits until it finds an unreferenced
/// victim. Eviction is purely a function of the lookup/insert sequence --
/// no wall clock, no pointers -- so a replayed request stream reproduces
/// the exact same hit/miss/evict trace.
///
/// Entries hold an owning reference to their canonical key term, which is
/// what keeps the key interner's ids for cached shapes alive (the interner
/// only compacts entries nothing else holds).
///
/// Thread-safe: one mutex; every operation is a short map probe, so the
/// lock is never held across parsing or optimization.
class PlanCache {
 public:
  /// `capacity` bounds live entries; 0 means unbounded.
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached payload for `key`, or nullopt. Counts a hit or a miss and
  /// refreshes the second-chance bit on hit.
  std::optional<std::string> Lookup(const PlanCacheKey& key);

  /// Caches `payload` under `key`, evicting one old entry if at capacity.
  /// `key_term` is the canonical query term the key's id names; the cache
  /// keeps it alive for the entry's lifetime. Re-inserting an existing key
  /// replaces its payload in place (two workers racing the same cold shape
  /// compute identical payloads, so last-writer-wins is benign).
  void Insert(const PlanCacheKey& key, TermPtr key_term, std::string payload);

  /// Drops every entry (counted as evictions) and resets the hand; the
  /// hit/miss/insert counters survive. For catalog bumps where the caller
  /// wants the memory back immediately instead of waiting for the clock
  /// hand to recycle stale-version entries.
  void Clear();

  /// Copies every live entry in slot (insertion-ring) order, so two
  /// snapshots of the same operation sequence list entries identically.
  /// Taken under the cache lock; payloads and term references are copies,
  /// safe to serialize while other threads keep hitting the cache.
  std::vector<PlanCacheEntry> Entries() const;

  PlanCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const;
  };

  struct Slot {
    PlanCacheKey key;
    TermPtr term;         // nullptr marks a free slot
    std::string payload;
    bool referenced = false;
  };

  int64_t SlotBytes(const Slot& slot) const;
  size_t EvictOneLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;  // insertion-ordered ring once at capacity
  size_t hand_ = 0;
  std::unordered_map<PlanCacheKey, size_t, KeyHash> index_;
  PlanCacheStats stats_;
};

}  // namespace kola

#endif  // KOLA_SERVICE_PLAN_CACHE_H_
