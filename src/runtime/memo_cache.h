// Concurrent memoization table for pure-call results — the runtime half of
// the `--memoize` subsystem, as a C++ API over the C table in
// runtime/c/purec_rt.h. The emitted C embeds that same header section, so
// the table logic and the PUREC_MEMO_PATH file layout exist once and a
// C++ process and an emitted binary can share one cache file.
//
// Design, sized for the work-stealing schedules of the thread pool:
//   * sharded: the key's high bits pick one of N independent sub-tables,
//     so concurrent hits on different shards never touch the same lines;
//   * cache-line padded: each shard header sits on its own line, and so
//     do this wrapper's per-shard counters;
//   * open addressing: a key may only live in a short linear probe window
//     starting at its home slot, so lookups are a handful of loads;
//   * per-slot seqlock: writers claim a slot by CAS-ing its sequence word
//     odd, publish tag+value, then release it even. A false *miss* is
//     always safe (the caller recomputes); a hit is only reported when
//     tag and value were read consistently;
//   * bounded size with clock eviction: when a probe window is full, a
//     second-chance sweep picks the victim, so repeated keys stay
//     resident under pressure without any global LRU bookkeeping.
//
// Values are 64-bit words; scalar results travel as their bit patterns, so
// a hit returns the exact bits the miss path stored. By default the
// fingerprint IS the key (the original tuple is never stored), so
// correctness rests on the 64-bit mix not colliding: ~2^-25 probability of
// any collision at the default 2^16-slot working set. PUREC_MEMO_VERIFY=1
// makes that bound opt-out: each slot additionally publishes the raw key
// words (argument tuple + global snapshot) under the same seqlock and a
// hit only counts when they compare equal.
//
// Process-shared persistence: PUREC_MEMO_PATH=FILE maps the slot array
// from an mmap'd file so a fleet of workers warms one cache that survives
// restarts. Any header mismatch (wrong magic, different geometry knobs, a
// verify-mode process meeting a plain file, a half-initialized file from a
// killed creator) falls back to the private in-process table. Stats
// counters stay per-process (each attacher counts its own traffic; sum
// across processes for fleet totals).
//
// Env knobs (read by MemoConfig::from_env, shared with the emitted C):
//   PUREC_MEMO_SHARDS=<n>  shard count (rounded down to a power of two)
//   PUREC_MEMO_CAP=<n>     total slot budget across all shards
//   PUREC_MEMO_PATH=<file> process-shared persistent backing file
//   PUREC_MEMO_VERIFY=1    full-key verification on hits
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/c/purec_rt.h"
#include "runtime/thread_pool.h"

namespace purec::rt {

struct MemoConfig {
  std::size_t shards = 8;
  std::size_t capacity = std::size_t{1} << 16;  // total slots, all shards
  std::string path{};   // non-empty: mmap the table from this file
  bool verify = false;  // full-key compare on hit

  /// Applies PUREC_MEMO_SHARDS / PUREC_MEMO_CAP / PUREC_MEMO_PATH /
  /// PUREC_MEMO_VERIFY on top of the defaults. Unparsable or zero values
  /// fall back to the default silently (a bad knob must never turn
  /// correct caching into a crash).
  [[nodiscard]] static MemoConfig from_env();
};

struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
};

/// Incremental key hasher: one 64-bit fingerprint over (function id,
/// argument words, global-snapshot words). The fingerprint *is* the key —
/// by default the table never stores the original tuple — so the mixer
/// must spread every input bit (splitmix64 finalizer). Fingerprint 0 is
/// reserved as the empty-slot tag and remapped to 1. The raw words are
/// recorded alongside (up to kMaxWords) so verify-mode callers can hand
/// the full tuple to MemoCache::lookup/store.
class MemoKey {
 public:
  static constexpr std::size_t kMaxWords = 16;

  explicit MemoKey(std::uint64_t function_id) noexcept : h_(function_id) {}

  void add(std::uint64_t word) noexcept {
    if (nwords_ < kMaxWords) words_[nwords_] = word;
    ++nwords_;  // past kMaxWords the count alone says "too wide to verify"
    h_ = mix(h_ ^ word);
  }
  void add_f64(double v) noexcept;
  void add_f32(float v) noexcept;

  [[nodiscard]] std::uint64_t hash() const noexcept {
    const std::uint64_t h = mix(h_);
    return h == 0 ? 1 : h;
  }

  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::size_t word_count() const noexcept { return nwords_; }

  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    return purec_memo_mix(x);
  }

 private:
  std::uint64_t h_;
  std::uint64_t words_[kMaxWords] = {};
  std::size_t nwords_ = 0;
};

class MemoCache {
 public:
  /// Widest key tuple (in 64-bit words) a verify-mode slot can store.
  /// Covers the classifier's bound: params + kMemoMaxGlobalSnapshot.
  static constexpr std::size_t kVerifyWords = PUREC_MEMO_VWORDS;

  explicit MemoCache(MemoConfig config = MemoConfig::from_env());
  ~MemoCache();

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// True and *value filled on a hit. Marks the slot referenced for the
  /// clock sweep. Never blocks; a concurrent writer at the same slot
  /// degrades this to a miss, not a wrong value. `words`/`nwords` carry
  /// the raw key tuple for verify mode (ignored otherwise); under verify
  /// a tuple wider than kVerifyWords bypasses the cache (permanent miss).
  [[nodiscard]] bool lookup(std::uint64_t key, const std::uint64_t* words,
                            std::size_t nwords,
                            std::uint64_t* value) noexcept;
  [[nodiscard]] bool lookup(std::uint64_t key,
                            std::uint64_t* value) noexcept {
    return lookup(key, nullptr, 0, value);
  }

  /// Publishes key -> value. Idempotent for an already-present key (pure
  /// results are deterministic, so the value is necessarily identical) —
  /// except under verify, where a resident fingerprint alias with a
  /// different tuple is overwritten. Evicts within the probe window when
  /// it is full.
  void store(std::uint64_t key, const std::uint64_t* words,
             std::size_t nwords, std::uint64_t value) noexcept;
  void store(std::uint64_t key, std::uint64_t value) noexcept {
    store(key, nullptr, 0, value);
  }

  /// Aggregated over all shards; racy reads (monitoring only). Always
  /// process-local, even when the slots live in a shared mapping.
  [[nodiscard]] MemoStats stats() const noexcept;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return table_.shard_mask + 1;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return shard_count() * (table_.shards[0].slot_mask + 1);
  }
  /// True when the slots live in a PUREC_MEMO_PATH mapping (false after
  /// any attach failure — the private fallback).
  [[nodiscard]] bool shared() const noexcept { return table_.map != nullptr; }
  [[nodiscard]] bool verifying() const noexcept { return table_.verify != 0; }

 private:
  /// This process's traffic through one shard, on its own cache line.
  struct alignas(kCacheLineBytes) ShardCounters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  [[nodiscard]] ShardCounters& counters_for(std::uint64_t key) noexcept {
    return counters_[purec_memo_shard_index(&table_, key)];
  }

  /// The uninstrumented probe; lookup() wraps it with the latency
  /// histogram and trace hooks (which compile to nothing by default).
  [[nodiscard]] bool lookup_impl(std::uint64_t key,
                                 const std::uint64_t* words,
                                 std::size_t nwords,
                                 std::uint64_t* value) noexcept;

  purec_memo_table table_;
  std::unique_ptr<ShardCounters[]> counters_;
};

}  // namespace purec::rt
