#include "rewrite/rule_index.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/env.h"
#include "rewrite/engine.h"

namespace kola {

namespace {

uint64_t MixKey(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// The discriminator MatchTerm dispatches on before looking at children:
/// kind everywhere, plus name for the named leaf kinds and the value for
/// bool constants. Literals key by kind alone -- their payload comparison
/// (Value::Compare) stays in the full match, so two distinct literals can
/// share a bucket (a false candidate, never a miss). Compound kinds carry
/// no payload MatchTerm checks before recursing.
uint64_t SymKeyOf(const Term& term) {
  const uint64_t kind = static_cast<uint64_t>(term.kind()) + 1;
  switch (term.kind()) {
    case TermKind::kPrimFn:
    case TermKind::kPrimPred:
    case TermKind::kCollection:
    case TermKind::kMetaVar:
      // StableStringHash keeps the whole matching layer free of
      // std::hash<std::string>, like RuleSetFingerprint.
      return MixKey(kind, StableStringHash(term.name()));
    case TermKind::kBoolConst:
      return MixKey(kind, term.bool_const() ? 2 : 1);
    default:
      return MixKey(kind, 0);
  }
}

bool IsPairLiteral(const Term& term) {
  return term.kind() == TermKind::kLiteral && term.literal().is_pair();
}

/// Ascending three-way merge of candidate streams. The streams are each
/// ascending by construction (rules are inserted in catalog order), so the
/// merged list reproduces the linear scan's probe order exactly.
void MergeCandidate(std::vector<uint32_t>* out, uint32_t rule) {
  // Candidates arrive grouped by stream, so a plain sorted-insert is the
  // simplest order-preserving merge; lists are a handful of entries.
  auto it = out->begin();
  while (it != out->end() && *it < rule) ++it;
  if (it == out->end() || *it != rule) out->insert(it, rule);
}

}  // namespace

std::shared_ptr<const RuleIndex> RuleIndex::Build(
    const std::vector<Rule>& rules, uint64_t fingerprint) {
  auto index = std::shared_ptr<RuleIndex>(new RuleIndex());
  index->fingerprint_ = fingerprint;
  index->rule_count_ = rules.size();
  for (size_t r = 0; r < rules.size(); ++r) {
    const TermPtr& lhs = rules[r].lhs;
    const uint32_t rule = static_cast<uint32_t>(r);
    if (lhs == nullptr || lhs->is_metavar()) {
      // A bare-metavariable lhs can match at any node (sort checking is
      // part of the full match); a null lhs never matches, but keeping it
      // a universal candidate lets MatchTerm be the single arbiter.
      index->wildcard_roots_.push_back(rule);
      continue;
    }
    if (lhs->kind() == TermKind::kPairObj) {
      // [x, y] patterns additionally decompose pair-valued literal leaves
      // (see MatchTerm): such a term has no children for the child keys to
      // constrain, so the side list bypasses them.
      index->pair_roots_.push_back(rule);
    }
    Entry entry;
    entry.rule = rule;
    entry.arity = static_cast<uint32_t>(lhs->arity());
    entry.children.reserve(lhs->arity());
    for (const TermPtr& child : lhs->children()) {
      ChildKey key;
      if (child->is_metavar()) {
        key.wildcard = true;
      } else {
        key.sym = SymKeyOf(*child);
        key.pair_pattern = child->kind() == TermKind::kPairObj;
      }
      entry.children.push_back(key);
    }
    index->buckets_[SymKeyOf(*lhs)].entries.push_back(std::move(entry));
  }
  int64_t bytes = static_cast<int64_t>(sizeof(RuleIndex));
  for (const auto& [sym, bucket] : index->buckets_) {
    // Hash node + bucket vector + per-entry child keys; deliberately on the
    // generous side so tight budgets trip before the allocator is in
    // trouble.
    bytes += static_cast<int64_t>(6 * sizeof(void*));
    for (const Entry& entry : bucket.entries) {
      bytes += static_cast<int64_t>(sizeof(Entry) +
                                    entry.children.size() * sizeof(ChildKey));
    }
  }
  bytes += static_cast<int64_t>(
      (index->wildcard_roots_.size() + index->pair_roots_.size()) *
      sizeof(uint32_t));
  index->footprint_bytes_ = bytes;
  return index;
}

bool RuleIndex::EntryCompatible(const Entry& entry, const Term& term) const {
  if (entry.arity != term.arity()) return false;
  for (size_t i = 0; i < entry.children.size(); ++i) {
    const ChildKey& key = entry.children[i];
    if (key.wildcard) continue;
    const Term& child = *term.child(i);
    if (key.sym == SymKeyOf(child)) continue;
    if (key.pair_pattern && IsPairLiteral(child)) continue;
    return false;
  }
  return true;
}

void RuleIndex::CandidatesAt(const Term& term,
                             std::vector<uint32_t>* out) const {
  out->clear();
  auto it = buckets_.find(SymKeyOf(term));
  if (it != buckets_.end()) {
    for (const Entry& entry : it->second.entries) {
      if (EntryCompatible(entry, term)) out->push_back(entry.rule);
    }
  }
  if (!pair_roots_.empty() && IsPairLiteral(term)) {
    for (uint32_t rule : pair_roots_) MergeCandidate(out, rule);
  }
  for (uint32_t rule : wildcard_roots_) MergeCandidate(out, rule);
}

namespace {

struct IndexCache {
  std::mutex mu;
  std::unordered_map<uint64_t, std::shared_ptr<const RuleIndex>> by_fp;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

IndexCache& GlobalIndexCache() {
  // Leaked intentionally: compiled indexes may be referenced during static
  // teardown by whoever shares them.
  static IndexCache* cache = new IndexCache();
  return *cache;
}

}  // namespace

std::shared_ptr<const RuleIndex> AcquireRuleIndex(
    const std::vector<Rule>& rules, uint64_t fingerprint) {
  IndexCache& cache = GlobalIndexCache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.by_fp.find(fingerprint);
    if (it != cache.by_fp.end()) {
      if (it->second->rule_count() == rules.size()) {
        ++cache.hits;
        return it->second;
      }
      // Fingerprint collision between distinct rule sets: serve a private
      // build, cache nothing.
      ++cache.misses;
      return RuleIndex::Build(rules, fingerprint);
    }
  }
  // Build outside the lock; on a race the first insert wins so every
  // caller shares one copy.
  auto built = RuleIndex::Build(rules, fingerprint);
  std::lock_guard<std::mutex> lock(cache.mu);
  auto [it, inserted] = cache.by_fp.emplace(fingerprint, built);
  if (inserted) {
    ++cache.misses;
  } else {
    ++cache.hits;
  }
  return it->second;
}

RuleIndexCacheStats GetRuleIndexCacheStats() {
  IndexCache& cache = GlobalIndexCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  RuleIndexCacheStats stats;
  stats.indexes = cache.by_fp.size();
  for (const auto& [fp, index] : cache.by_fp) {
    stats.rules += index->rule_count();
    stats.bytes += index->footprint_bytes();
  }
  stats.hits = cache.hits;
  stats.misses = cache.misses;
  return stats;
}

bool RuleIndexDisabledByEnv() {
  // Latched exactly once: flipping the variable after startup must not let
  // half a run use the index and half not, or the byte-identity contract
  // with the linear scan gets murky.
  static const bool disabled = EnvFlagEnabled("KOLA_NO_RULE_INDEX");
  return disabled;
}

}  // namespace kola
