#include "runtime/memo_cache.h"

#include <cstdlib>
#include <cstring>
#include <new>

#include "runtime/stats.h"
#include "runtime/trace.h"

namespace purec::rt {

MemoConfig MemoConfig::from_env() {
  MemoConfig config;
  config.shards = purec_memo_env("PUREC_MEMO_SHARDS", config.shards);
  config.capacity = purec_memo_env("PUREC_MEMO_CAP", config.capacity);
  if (const char* p = std::getenv("PUREC_MEMO_PATH");
      p != nullptr && *p != '\0') {
    config.path = p;
  }
  if (const char* v = std::getenv("PUREC_MEMO_VERIFY"); v != nullptr) {
    config.verify = v[0] == '1';
  }
  return config;
}

void MemoKey::add_f64(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void MemoKey::add_f32(float v) noexcept {
  std::uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

MemoCache::MemoCache(MemoConfig config) {
  if (!purec_memo_table_init(&table_, config.shards, config.capacity,
                             config.verify ? 1 : 0, config.path.c_str())) {
    purec_memo_table_free(&table_);
    throw std::bad_alloc();
  }
  counters_ = std::make_unique<ShardCounters[]>(shard_count());
}

MemoCache::~MemoCache() { purec_memo_table_free(&table_); }

bool MemoCache::lookup(std::uint64_t key, const std::uint64_t* words,
                       std::size_t nwords, std::uint64_t* value) noexcept {
  if constexpr (stats::kEnabled || trace::kEnabled) {
    const std::uint64_t begin_ns = stats::now_ns();
    const bool hit = lookup_impl(key, words, nwords, value);
    const std::uint64_t end_ns = stats::now_ns();
    stats::record_memo_probe_ns(end_ns - begin_ns);
    if constexpr (trace::kEnabled) {
      if (trace::active()) {
        trace::record(stats::current_worker(),
                      hit ? trace::EventKind::MemoHit
                          : trace::EventKind::MemoMiss,
                      begin_ns, end_ns);
      }
    }
    return hit;
  }
  return lookup_impl(key, words, nwords, value);
}

bool MemoCache::lookup_impl(std::uint64_t key, const std::uint64_t* words,
                            std::size_t nwords,
                            std::uint64_t* value) noexcept {
  ShardCounters& counters = counters_for(key);
  if (purec_memo_lookup(&table_, key, words,
                        static_cast<unsigned>(nwords), value) != 0) {
    counters.hits.fetch_add(1, std::memory_order_relaxed);
    stats::add(stats::counters().memo_hits);
    return true;
  }
  counters.misses.fetch_add(1, std::memory_order_relaxed);
  stats::add(stats::counters().memo_misses);
  return false;
}

void MemoCache::store(std::uint64_t key, const std::uint64_t* words,
                      std::size_t nwords, std::uint64_t value) noexcept {
  const int outcome = purec_memo_store(&table_, key, words,
                                       static_cast<unsigned>(nwords), value);
  if (outcome == 0) return;
  ShardCounters& counters = counters_for(key);
  counters.stores.fetch_add(1, std::memory_order_relaxed);
  stats::add(stats::counters().memo_stores);
  if (outcome == PUREC_MEMO_EVICTED) {
    counters.evictions.fetch_add(1, std::memory_order_relaxed);
    stats::add(stats::counters().memo_evictions);
  }
}

MemoStats MemoCache::stats() const noexcept {
  MemoStats total;
  for (std::size_t s = 0; s < shard_count(); ++s) {
    total.hits += counters_[s].hits.load(std::memory_order_relaxed);
    total.misses += counters_[s].misses.load(std::memory_order_relaxed);
    total.stores += counters_[s].stores.load(std::memory_order_relaxed);
    total.evictions += counters_[s].evictions.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace purec::rt
