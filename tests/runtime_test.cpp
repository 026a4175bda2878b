// Tests of the memo table of the runtime the emitted C carries,
// src/runtime/c/purec_rt.h, through its C API: lookup, store and eviction
// from several threads, the sizing knobs, verify mode, and the
// PUREC_MEMO_PATH shared file across attachers and forked processes. The
// emitted programs embed exactly these functions. runtime_stats_test
// covers the --instrument histograms and runtime_trace_test the trace
// append; the ThreadSanitizer CI job runs all three suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "runtime/c/purec_rt.h"

namespace purec {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A fingerprint shaped like an emitted thunk's: function id, one folded
/// argument word, a final mix, and 0 (the empty-slot tag) remapped to 1.
std::uint64_t key_of(std::uint64_t i) {
  const std::uint64_t k = purec_memo_mix(purec_memo_mix(0x1234 ^ i));
  return k == 0 ? 1 : k;
}

/// Reference value for every key: any reported hit must return exactly
/// this, or the table corrupted data.
std::uint64_t value_of(std::uint64_t key) { return purec_memo_mix(key); }

/// A table released on scope exit.
struct Table {
  purec_memo_table t;
  Table(purec_memo_word shards, purec_memo_word cap, int verify = 0,
        const char* path = nullptr) {
    purec_memo_table_init(&t, shards, cap, verify, path);
  }
  ~Table() { purec_memo_table_free(&t); }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  [[nodiscard]] std::uint64_t shards() const { return t.shard_mask + 1; }
  [[nodiscard]] std::uint64_t capacity() const {
    return shards() * (t.shards[0].slot_mask + 1);
  }
  [[nodiscard]] bool shared() const { return t.map != nullptr; }
  bool lookup(std::uint64_t key, std::uint64_t* out) const {
    return purec_memo_lookup(&t, key, nullptr, 0, out) != 0;
  }
  int store(std::uint64_t key, std::uint64_t value) const {
    return purec_memo_store(&t, key, nullptr, 0, value);
  }
};

/// Memoized read of `key` through `table`, the thunk's miss path
/// included. Returns false when a hit carried a foreign value.
bool serve(const Table& table, std::uint64_t key, std::uint64_t* hits,
           std::uint64_t* evictions) {
  std::uint64_t out = 0;
  if (table.lookup(key, &out)) {
    ++*hits;
    return out == value_of(key);
  }
  if (table.store(key, value_of(key)) == PUREC_MEMO_EVICTED) ++*evictions;
  return true;
}

std::string shared_cache_path(const char* tag) {
  return ::testing::TempDir() + "purec_memo_" + tag + "_" +
         std::to_string(static_cast<long long>(getpid())) + ".cache";
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
}

// ---------------------------------------------------------------------------
// The table: lookup, store, eviction
// ---------------------------------------------------------------------------

TEST(PurecMemoTable, StoreLookupRoundtrip) {
  Table table(4, 256);
  ASSERT_TRUE(table.t.ready);
  std::uint64_t out = 0;
  EXPECT_FALSE(table.lookup(key_of(1), &out));
  EXPECT_EQ(table.store(key_of(1), 42), PUREC_MEMO_STORED);
  ASSERT_TRUE(table.lookup(key_of(1), &out));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(table.lookup(key_of(2), &out));
}

TEST(PurecMemoTable, StoreIsIdempotentForAResidentKey) {
  Table table(1, 16);
  EXPECT_EQ(table.store(key_of(7), 7), PUREC_MEMO_STORED);
  // Pure results are deterministic: a resident key is never republished.
  EXPECT_EQ(table.store(key_of(7), 7), 0);
  std::uint64_t out = 0;
  ASSERT_TRUE(table.lookup(key_of(7), &out));
  EXPECT_EQ(out, 7u);
}

TEST(PurecMemoTable, CapacityOneTableRecyclesItsSlot) {
  Table table(1, 1);
  EXPECT_EQ(table.capacity(), 1u);
  std::uint64_t out = 0;
  table.store(key_of(1), 11);
  ASSERT_TRUE(table.lookup(key_of(1), &out));
  EXPECT_EQ(out, 11u);
  // The single slot is recycled; the old key must be gone, never wrong.
  EXPECT_EQ(table.store(key_of(2), 22), PUREC_MEMO_EVICTED);
  ASSERT_TRUE(table.lookup(key_of(2), &out));
  EXPECT_EQ(out, 22u);
  EXPECT_FALSE(table.lookup(key_of(1), &out));
}

TEST(PurecMemoTable, NotReadyTableMissesAndStoresNothing) {
  purec_memo_table t{};
  std::uint64_t out = 0;
  EXPECT_EQ(purec_memo_lookup(&t, key_of(1), nullptr, 0, &out), 0);
  EXPECT_EQ(purec_memo_store(&t, key_of(1), nullptr, 0, 5), 0);
}

TEST(PurecMemoTable, EvictionNeverReturnsWrongValues) {
  // 64 slots, 4096 distinct keys: heavy eviction. Every hit must carry
  // the exact value stored for that key.
  Table table(2, 64);
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      ASSERT_TRUE(serve(table, key_of(i), &hits, &evictions))
          << "corrupt hit for key " << i;
    }
  }
  EXPECT_GT(evictions, 0u);
}

TEST(PurecMemoTable, ChecksumMatchesTheUncachedComputeUnderCapPressure) {
  // The same workload through a roomy table and through a 16-slot table
  // produces the uncached checksum: hits return bit-exact stored values,
  // misses recompute them.
  const auto run = [](purec_memo_word shards, purec_memo_word cap) {
    Table table(shards, cap);
    std::uint64_t checksum = 0;
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 512; ++i) {
        const std::uint64_t k = key_of(i % 64);
        std::uint64_t v = 0;
        if (!table.lookup(k, &v)) {
          v = value_of(k);
          table.store(k, v);
        }
        checksum = purec_memo_mix(checksum ^ v);
      }
    }
    return checksum;
  };
  std::uint64_t uncached = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 512; ++i) {
      uncached = purec_memo_mix(uncached ^ value_of(key_of(i % 64)));
    }
  }
  EXPECT_EQ(run(8, 4096), uncached);
  EXPECT_EQ(run(1, 16), uncached);
}

TEST(PurecMemoTable, EightThreadHammerHitMissEvict) {
  // 8 threads of mixed hit/miss/evict traffic over a deliberately small
  // table. The invariant under concurrency is the memoization soundness
  // contract: a hit returns the value stored for that key.
  Table table(4, 256);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 1024;
  constexpr int kRounds = 200;
  std::atomic<bool> corrupt{false};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> evictions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t cursor = static_cast<std::uint64_t>(t) * 31;
      std::uint64_t my_hits = 0;
      std::uint64_t my_evictions = 0;
      std::uint64_t probes = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t i = 0; i < kKeys; i += kThreads) {
          if (!serve(table, key_of((cursor + i) % kKeys), &my_hits,
                     &my_evictions)) {
            corrupt.store(true);
          }
          ++probes;
        }
        ++cursor;
      }
      hits += my_hits;
      misses += probes - my_hits;
      evictions += my_evictions;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(corrupt.load()) << "a hit returned a foreign value";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(misses.load(), 0u);
  EXPECT_GT(evictions.load(), 0u);
}

// ---------------------------------------------------------------------------
// Sizing knobs: PUREC_MEMO_SHARDS / PUREC_MEMO_CAP
// ---------------------------------------------------------------------------

TEST(PurecMemoKnobs, GeometryRoundsDownToPowersOfTwo) {
  Table table(3, 100);
  EXPECT_EQ(table.shards(), 2u);     // pow2(3)
  EXPECT_EQ(table.capacity(), 64u);  // 2 shards x pow2(50)
  Table tiny(16, 4);                 // budget smaller than the shards
  EXPECT_EQ(tiny.shards(), 4u);
  EXPECT_EQ(tiny.capacity(), 4u);
}

TEST(PurecMemoKnobs, PathologicalGeometryClampsInsteadOfHanging) {
  // shards = 2^64 - 1 must neither hang the pow2 loop nor blow the
  // allocation: the knob ceiling clamps, then the small budget collapses
  // the shard count. Zero values clamp up to one slot.
  Table table(~purec_memo_word{0}, 64);
  ASSERT_TRUE(table.t.ready);
  EXPECT_LE(table.capacity(), 64u);
  std::uint64_t out = 0;
  table.store(key_of(1), 5);
  ASSERT_TRUE(table.lookup(key_of(1), &out));
  EXPECT_EQ(out, 5u);

  Table zero(0, 0);
  ASSERT_TRUE(zero.t.ready);
  EXPECT_EQ(zero.capacity(), 1u);
  EXPECT_EQ(purec_memo_clamp(0), 1u);
  EXPECT_EQ(purec_memo_clamp(~purec_memo_word{0}), PUREC_MEMO_MAX_KNOB);
}

TEST(PurecMemoKnobs, EnvClampsOverflowingValues) {
  setenv("PUREC_MEMO_SHARDS", "-1", 1);  // strtoull wraps to ULLONG_MAX
  setenv("PUREC_MEMO_CAP", "999999999999999999", 1);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_SHARDS", 8), PUREC_MEMO_MAX_KNOB);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_CAP", 65536), PUREC_MEMO_MAX_KNOB);
  unsetenv("PUREC_MEMO_SHARDS");
  unsetenv("PUREC_MEMO_CAP");
}

TEST(PurecMemoKnobs, EnvParsesAndFallsBack) {
  setenv("PUREC_MEMO_SHARDS", "2", 1);
  setenv("PUREC_MEMO_CAP", "128", 1);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_SHARDS", 8), 2u);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_CAP", 65536), 128u);
  // Unparsable, zero, empty and unset values fall back silently.
  setenv("PUREC_MEMO_SHARDS", "garbage", 1);
  setenv("PUREC_MEMO_CAP", "0", 1);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_SHARDS", 8), 8u);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_CAP", 65536), 65536u);
  setenv("PUREC_MEMO_SHARDS", "", 1);
  unsetenv("PUREC_MEMO_CAP");
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_SHARDS", 8), 8u);
  EXPECT_EQ(purec_memo_env("PUREC_MEMO_CAP", 65536), 65536u);
  unsetenv("PUREC_MEMO_SHARDS");
}

// ---------------------------------------------------------------------------
// Full-key verification (PUREC_MEMO_VERIFY=1)
// ---------------------------------------------------------------------------

TEST(PurecMemoVerify, FingerprintAliasDegradesToMissNeverWrongValue) {
  Table table(4, 256, /*verify=*/1);
  ASSERT_TRUE(table.t.verify);
  // Two distinct tuples forced onto one fingerprint: the aliasing event
  // verify mode exists for.
  const std::uint64_t fp = key_of(1);
  const std::uint64_t tuple_a[] = {11, 12};
  const std::uint64_t tuple_b[] = {21, 22};
  EXPECT_EQ(purec_memo_store(&table.t, fp, tuple_a, 2, 100),
            PUREC_MEMO_STORED);
  std::uint64_t out = 0;
  ASSERT_TRUE(purec_memo_lookup(&table.t, fp, tuple_a, 2, &out));
  EXPECT_EQ(out, 100u);
  // The alias must miss, not return tuple_a's value.
  EXPECT_FALSE(purec_memo_lookup(&table.t, fp, tuple_b, 2, &out));
  // A tuple of another width with the same leading words misses too.
  EXPECT_FALSE(purec_memo_lookup(&table.t, fp, tuple_a, 1, &out));
  // Publishing the alias replaces the resident entry (otherwise tuple_b
  // would miss forever); tuple_a then misses in turn.
  EXPECT_EQ(purec_memo_store(&table.t, fp, tuple_b, 2, 200),
            PUREC_MEMO_EVICTED);
  ASSERT_TRUE(purec_memo_lookup(&table.t, fp, tuple_b, 2, &out));
  EXPECT_EQ(out, 200u);
  EXPECT_FALSE(purec_memo_lookup(&table.t, fp, tuple_a, 2, &out));
  // Re-storing the resident tuple is a no-op.
  EXPECT_EQ(purec_memo_store(&table.t, fp, tuple_b, 2, 200), 0);
}

TEST(PurecMemoVerify, TooWideTuplesBypassTheTable) {
  Table table(4, 256, /*verify=*/1);
  std::uint64_t wide[PUREC_MEMO_VWORDS + 1] = {};
  const std::uint64_t fp = key_of(9);
  // An unverifiable tuple is never cached: a permanent, safe miss.
  EXPECT_EQ(purec_memo_store(&table.t, fp, wide, PUREC_MEMO_VWORDS + 1, 5),
            0);
  std::uint64_t out = 0;
  EXPECT_FALSE(
      purec_memo_lookup(&table.t, fp, wide, PUREC_MEMO_VWORDS + 1, &out));
  // The widest verifiable tuple still round-trips.
  EXPECT_EQ(purec_memo_store(&table.t, fp, wide, PUREC_MEMO_VWORDS, 6),
            PUREC_MEMO_STORED);
  ASSERT_TRUE(purec_memo_lookup(&table.t, fp, wide, PUREC_MEMO_VWORDS, &out));
  EXPECT_EQ(out, 6u);
}

TEST(PurecMemoVerify, VerifyOffIgnoresTheTuple) {
  Table table(4, 256);
  ASSERT_FALSE(table.t.verify);
  const std::uint64_t fp = key_of(3);
  const std::uint64_t tuple_a[] = {1};
  const std::uint64_t tuple_b[] = {2};
  purec_memo_store(&table.t, fp, tuple_a, 1, 33);
  std::uint64_t out = 0;
  // Without verify the fingerprint is the whole key: tuple_b "hits".
  ASSERT_TRUE(purec_memo_lookup(&table.t, fp, tuple_b, 1, &out));
  EXPECT_EQ(out, 33u);
}

// ---------------------------------------------------------------------------
// Process-shared persistence (PUREC_MEMO_PATH)
// ---------------------------------------------------------------------------

TEST(PurecMemoShared, TwoAttachersShareOneFile) {
  const std::string path = shared_cache_path("attach");
  std::remove(path.c_str());
  {
    Table writer(4, 256, 0, path.c_str());
    ASSERT_TRUE(writer.shared());
    writer.store(key_of(1), 111);
    Table reader(4, 256, 0, path.c_str());
    ASSERT_TRUE(reader.shared());
    std::uint64_t out = 0;
    ASSERT_TRUE(reader.lookup(key_of(1), &out))
        << "the second attacher must see the first attacher's stores";
    EXPECT_EQ(out, 111u);
    // And the other way round, through the one mapping.
    reader.store(key_of(2), 222);
    ASSERT_TRUE(writer.lookup(key_of(2), &out));
    EXPECT_EQ(out, 222u);
  }
  std::remove(path.c_str());
}

TEST(PurecMemoShared, StatePersistsAcrossReattach) {
  // The restart case: every attacher detaches, a new one finds the
  // entries the earlier ones published.
  const std::string path = shared_cache_path("persist");
  std::remove(path.c_str());
  {
    Table first(4, 256, 0, path.c_str());
    ASSERT_TRUE(first.shared());
    for (std::uint64_t i = 0; i < 64; ++i) first.store(key_of(i), i * 3);
  }
  Table revived(4, 256, 0, path.c_str());
  ASSERT_TRUE(revived.shared());
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(revived.lookup(key_of(i), &out)) << "key " << i;
    EXPECT_EQ(out, i * 3) << "key " << i;
  }
  std::remove(path.c_str());
}

TEST(PurecMemoShared, GeometryOrVerifyMismatchFallsBackToPrivate) {
  const std::string path = shared_cache_path("mismatch");
  std::remove(path.c_str());
  Table owner(4, 256, 0, path.c_str());
  ASSERT_TRUE(owner.shared());
  owner.store(key_of(5), 50);
  // Different geometry: reject the file, serve privately, never corrupt.
  Table mismatched(8, 1024, 0, path.c_str());
  EXPECT_FALSE(mismatched.shared());
  ASSERT_TRUE(mismatched.t.ready);
  // Different verify flag (the key-word sidecar changes the layout).
  Table verifying(4, 256, 1, path.c_str());
  EXPECT_FALSE(verifying.shared());
  // The private fallbacks work as caches and see nothing of the file.
  std::uint64_t out = 0;
  EXPECT_FALSE(mismatched.lookup(key_of(5), &out));
  EXPECT_FALSE(purec_memo_lookup(&verifying.t, key_of(5), nullptr, 0, &out));
  mismatched.store(key_of(5), 55);
  ASSERT_TRUE(mismatched.lookup(key_of(5), &out));
  EXPECT_EQ(out, 55u);
  // The owner's entry is untouched.
  ASSERT_TRUE(owner.lookup(key_of(5), &out));
  EXPECT_EQ(out, 50u);
  std::remove(path.c_str());
}

TEST(PurecMemoShared, CorruptHeaderFallsBackToPrivate) {
  const std::string path = shared_cache_path("corrupt");
  // A 4 x 64 plain table maps a 64-byte header plus 256 32-byte slots.
  const std::size_t file_bytes = 64 + 256 * sizeof(purec_memo_slot);
  const auto expect_private = [&](const char* what) {
    Table table(4, 256, 0, path.c_str());
    EXPECT_FALSE(table.shared()) << what;
    ASSERT_TRUE(table.t.ready) << what;
    table.store(key_of(2), 22);
    std::uint64_t out = 0;
    ASSERT_TRUE(table.lookup(key_of(2), &out)) << what;
    EXPECT_EQ(out, 22u) << what;
  };
  // Wrong size.
  write_file(path, std::string(4096, '\x5a'));
  expect_private("garbage of the wrong size");
  // Right size, garbage header: the magic check rejects it.
  write_file(path, std::string(file_bytes, '\x5a'));
  expect_private("garbage of the right size");
  // A valid file whose creator died before publishing the ready state.
  std::remove(path.c_str());
  {
    Table creator(4, 256, 0, path.c_str());
    ASSERT_TRUE(creator.shared());
  }
  std::string husk = read_file(path);
  ASSERT_EQ(husk.size(), file_bytes);
  husk[6 * sizeof(purec_memo_word)] = 0;  // header word 6: ready state
  write_file(path, husk);
  expect_private("a half-initialized husk");
  std::remove(path.c_str());
}

/// Two forked children hammer one shared file; every hit in every process
/// must return the value computed for that key (the exit code carries the
/// verdict). Returns the children's exit codes.
std::vector<int> hammer_from_two_processes(const std::string& path,
                                           int verify) {
  constexpr std::uint64_t kKeys = 256;
  constexpr int kRounds = 50;
  pid_t children[2] = {};
  for (int c = 0; c < 2; ++c) {
    children[c] = fork();
    if (children[c] < 0) return {};
    if (children[c] == 0) {
      // Child: _exit keeps gtest's output machinery out of the copy.
      purec_memo_table t;
      purec_memo_table_init(&t, 4, 1024, verify, path.c_str());
      if (t.map == nullptr) _exit(3);
      std::uint64_t hits = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          const std::uint64_t word =
              (i + static_cast<std::uint64_t>(c) * 31) % kKeys;
          const std::uint64_t k = key_of(word);
          std::uint64_t out = 0;
          if (purec_memo_lookup(&t, k, &word, 1, &out)) {
            if (out != value_of(k)) _exit(4);
            ++hits;
          } else {
            purec_memo_store(&t, k, &word, 1, value_of(k));
          }
        }
      }
      _exit(hits > 0 ? 0 : 6);
    }
  }
  std::vector<int> codes;
  for (const pid_t child : children) {
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status)) {
      codes.push_back(-1);
    } else {
      codes.push_back(WEXITSTATUS(status));
    }
  }
  return codes;
}

TEST(PurecMemoShared, ForkedProcessesShareTrafficAndStayExact) {
  const std::string path = shared_cache_path("fork");
  std::remove(path.c_str());
  EXPECT_EQ(hammer_from_two_processes(path, 0), (std::vector<int>{0, 0}))
      << "child verdicts (3=attach 4=corrupt hit 6=no hits -1=crash)";
  // A fresh attacher finds every key resident (1024 slots, 256 keys: no
  // eviction), with the exact stored bits.
  Table after(4, 1024, 0, path.c_str());
  ASSERT_TRUE(after.shared());
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(after.lookup(key_of(i), &out)) << "key " << i;
    EXPECT_EQ(out, value_of(key_of(i))) << "key " << i;
  }
  std::remove(path.c_str());
}

TEST(PurecMemoShared, ForkedVerifyModeStaysExact) {
  // The key-word sidecar rides the same seqlock, so cross-process torn
  // reads must still degrade to misses, never wrong values.
  const std::string path = shared_cache_path("fork_verify");
  std::remove(path.c_str());
  EXPECT_EQ(hammer_from_two_processes(path, 1), (std::vector<int>{0, 0}))
      << "child verdicts (3=attach 4=corrupt hit 6=no hits -1=crash)";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace purec
