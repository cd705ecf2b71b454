#include "resacc/serve/result_cache.h"

#include <chrono>
#include <cstring>

#include "resacc/util/check.h"
#include "resacc/util/fault_injection.h"

namespace resacc {
namespace {

void HashBytes(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;  // FNV-1a prime
  }
}

template <typename T>
void HashValue(std::uint64_t& h, const T& value) {
  HashBytes(h, &value, sizeof(value));
}

}  // namespace

std::uint64_t HashQueryConfig(const RwrConfig& config,
                              const ResAccOptions& options) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  HashValue(h, config.alpha);
  HashValue(h, config.epsilon);
  HashValue(h, config.delta);
  HashValue(h, config.p_f);
  HashValue(h, static_cast<int>(config.dangling));
  HashValue(h, config.seed);
  HashValue(h, options.r_max_hop);
  HashValue(h, options.r_max_f);
  HashValue(h, options.num_hops);
  HashValue(h, options.max_hop_set_fraction);
  HashValue(h, options.walk_scale);
  // Top-k refinement knobs shape cached TopKResult payloads (stage
  // schedule => which entries certify and with what bounds), so they are
  // part of the key even though full vectors ignore them.
  HashValue(h, options.topk.shrink);
  HashValue(h, options.topk.min_r_max_factor);
  HashValue(h, options.topk.profit_slack);
  HashValue(h, options.use_loop_accumulation);
  HashValue(h, options.use_hop_subgraph);
  HashValue(h, options.use_omfwd);
  // Hybrid local/dense selection knobs (core/power_iter.h): a dense
  // answer is deterministic and a local answer carries walk noise, so the
  // payloads differ bitwise — a cached result must never satisfy a query
  // run under a different selection policy, tolerance or sweep cap.
  HashValue(h, options.hybrid.enable);
  HashValue(h, options.hybrid.cost_ratio);
  HashValue(h, options.hybrid.tolerance);
  HashValue(h, options.hybrid.max_iterations);
  // options.walk_threads is deliberately NOT hashed: the walk engine is
  // bit-identical for every thread count (walk_engine.h), so solvers that
  // differ only in walk_threads produce interchangeable results.
  return h;
}

ResultCache::ResultCache(std::size_t max_bytes, std::size_t num_shards)
    : max_bytes_(max_bytes) {
  RESACC_CHECK(num_shards >= 1);
  shard_budget_ = max_bytes / num_shards;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::AgedValue ResultCache::LookupWithAge(const CacheKey& key) {
  if (max_bytes_ == 0) return {};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Chaos site: a forced miss models a cache wiped or unreachable. The
  // entry stays resident (and correct) for later lookups.
  if (RESACC_FAULT("result_cache.lookup_miss")) {
    ++shard.misses;
    return {};
  }
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->value == nullptr) {
    // A top-k-only entry cannot answer a full-vector probe; the recompute
    // will upgrade it via Insert.
    ++shard.misses;
    return {};
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return {it->second->value,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        it->second->inserted)
              .count()};
}

ResultCache::AgedTopK ResultCache::LookupTopK(const CacheKey& key,
                                              std::size_t k) {
  if (max_bytes_ == 0 || k == 0) return {};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (RESACC_FAULT("result_cache.lookup_miss")) {
    ++shard.misses;
    return {};
  }
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return {};
  }
  Entry& entry = *it->second;
  AgedTopK out;
  if (entry.value != nullptr) {
    out.scores = entry.value;
  } else if (entry.topk != nullptr && TopKPrefixSatisfies(*entry.topk, k)) {
    out.topk = entry.topk;
  } else {
    // Stored top-k' too narrow (or its certified prefix does not separate
    // at k): recompute; InsertTopK will widen the entry.
    ++shard.misses;
    return {};
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  out.age_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - entry.inserted)
                        .count();
  return out;
}

void ResultCache::Insert(const CacheKey& key, Value value) {
  if (max_bytes_ == 0 || value == nullptr) return;
  const std::size_t bytes = value->size() * sizeof(Score);
  if (bytes > shard_budget_) return;  // would evict the whole shard for one
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);

  const auto now = std::chrono::steady_clock::now();
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.bytes += bytes;
    it->second->value = std::move(value);
    // A full vector answers strictly more probes than any top-k payload
    // under the same key: upgrade in place.
    it->second->topk = nullptr;
    it->second->bytes = bytes;
    it->second->inserted = now;
    // A refresh is a brand-new computation against the entry's epoch: the
    // drift accrued by the *previous* vector across past epoch promotions
    // does not apply to it. Carrying it over would overstate the new
    // vector's invalidation mass and get it dropped (or consume budget)
    // at the next epoch transition for perturbations it never saw.
    it->second->drift = 0.0;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    Entry entry;
    entry.key = key;
    entry.value = std::move(value);
    entry.bytes = bytes;
    entry.inserted = now;
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.insertions;
  }

  EvictOverBudget(shard);
}

void ResultCache::InsertTopK(const CacheKey& key, TopKValue value) {
  if (max_bytes_ == 0 || value == nullptr) return;
  const std::size_t bytes =
      value->entries.size() * sizeof(TopKEntry) + sizeof(TopKResult);
  if (bytes > shard_budget_) return;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);

  const auto now = std::chrono::steady_clock::now();
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    // Never downgrade: a resident full vector answers every top-k probe
    // under this key, and a wider stored top-k' answers a superset of the
    // probes this payload could. (The skipped payload may be *fresher*;
    // the age signal then reflects the kept computation, which is the
    // conservative direction for staleness policies.)
    if (entry.value != nullptr) return;
    if (entry.topk != nullptr && entry.topk->k > value->k) return;
    shard.bytes -= entry.bytes;
    shard.bytes += bytes;
    entry.topk = std::move(value);
    entry.bytes = bytes;
    entry.inserted = now;
    entry.drift = 0.0;  // fresh computation against this epoch (see Insert)
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    Entry entry;
    entry.key = key;
    entry.topk = std::move(value);
    entry.bytes = bytes;
    entry.inserted = now;
    shard.lru.push_front(std::move(entry));
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.insertions;
  }

  EvictOverBudget(shard);
}

void ResultCache::EvictOverBudget(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }

  // Chaos site: spuriously evict the LRU tail even under budget. Goes
  // through the same accounting as a real eviction, so chaos_test can
  // assert bytes == sum(entry bytes) survives any schedule of these.
  if (RESACC_FAULT("result_cache.evict") && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

ResultCache::InvalidationStats ResultCache::InvalidateEpoch(
    std::uint64_t config_hash, std::uint64_t old_epoch,
    std::uint64_t new_epoch, double drift_budget, const InfluenceFn& influence,
    bool flush_all) {
  InvalidationStats stats;
  if (max_bytes_ == 0 || old_epoch == new_epoch) return stats;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.config_hash != config_hash || it->key.epoch != old_epoch) {
        ++it;
        continue;
      }
      bool keep = false;
      double drift = it->drift;
      // Top-k entries (value == nullptr) are always dropped: the influence
      // bound needs the full score vector, and a k-truncated one would
      // understate the perturbation. Conservative, and top-k recomputes
      // are cheap (that is the point of the mode).
      if (!flush_all && influence != nullptr && it->value != nullptr) {
        drift += influence(*it->value);
        keep = drift <= drift_budget;  // infinite influence never passes
      }
      if (keep) {
        // Rekey in place: shard choice ignores the epoch, so only the
        // index needs to move.
        shard.index.erase(it->key);
        it->key.epoch = new_epoch;
        it->drift = drift;
        shard.index.emplace(it->key, it);
        ++stats.promoted;
        ++it;
      } else {
        shard.bytes -= it->bytes;
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
        ++stats.dropped;
      }
    }
  }
  return stats;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

ResultCache::Counters ResultCache::counters() const {
  Counters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.bytes += shard->bytes;
    total.entries += shard->lru.size();
  }
  return total;
}

}  // namespace resacc
