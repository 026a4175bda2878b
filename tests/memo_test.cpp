// Tests of the memoization subsystem: the concurrent cache
// (src/runtime/memo_cache.*), the memoizability analysis
// (src/memo/memoizable.*), the thunk codegen (src/memo/memo_codegen.*),
// and the chain wiring behind ChainOptions::memoize.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "memo/memo_codegen.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "runtime/memo_cache.h"
#include "sema/symbols.h"
#include "support/diagnostics.h"
#include "test_sources.h"
#include "transform/pure_chain.h"

namespace purec {
namespace {

// ---------------------------------------------------------------------------
// MemoCache: the C++ runtime table
// ---------------------------------------------------------------------------

using rt::MemoCache;
using rt::MemoConfig;
using rt::MemoKey;

/// Reference function for hammer tests: any reported hit must return
/// exactly this value for its key, or the cache corrupted data.
std::uint64_t value_of(std::uint64_t key) { return MemoKey::mix(key); }

std::uint64_t key_of(std::uint64_t i) {
  MemoKey key(0x1234);
  key.add(i);
  return key.hash();
}

TEST(MemoCache, StoreLookupRoundtrip) {
  MemoCache cache(MemoConfig{4, 256});
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  cache.store(key_of(1), 42);
  ASSERT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(cache.lookup(key_of(2), &out));
  const rt::MemoStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(MemoCache, StoreIsIdempotentForSameKey) {
  MemoCache cache(MemoConfig{1, 16});
  cache.store(key_of(7), 7);
  cache.store(key_of(7), 7);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.lookup(key_of(7), &out));
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(MemoCache, CapacityOneDegenerateTable) {
  MemoCache cache(MemoConfig{1, 1});
  EXPECT_EQ(cache.capacity(), 1u);
  std::uint64_t out = 0;
  cache.store(key_of(1), 11);
  ASSERT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out, 11u);
  // The single slot is recycled; the old key must be gone, never wrong.
  cache.store(key_of(2), 22);
  ASSERT_TRUE(cache.lookup(key_of(2), &out));
  EXPECT_EQ(out, 22u);
  EXPECT_FALSE(cache.lookup(key_of(1), &out));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(MemoCache, ConfigNormalizesToPowersOfTwo) {
  MemoCache cache(MemoConfig{3, 100});
  EXPECT_EQ(cache.shard_count(), 2u);   // floor_pow2(3)
  EXPECT_EQ(cache.capacity(), 64u);     // 2 shards x floor_pow2(50)
  MemoCache tiny(MemoConfig{16, 4});    // budget smaller than shards
  EXPECT_EQ(tiny.shard_count(), 4u);
  EXPECT_EQ(tiny.capacity(), 4u);
}

TEST(MemoCache, PathologicalConfigsClampInsteadOfHanging) {
  // shards = SIZE_MAX must neither hang floor_pow2 (overflow) nor blow
  // the allocation: the knob ceiling clamps, then the small capacity
  // budget collapses the shard count.
  MemoCache cache(MemoConfig{static_cast<std::size_t>(-1), 64});
  EXPECT_LE(cache.capacity(), 64u);
  std::uint64_t out = 0;
  cache.store(key_of(1), 5);
  ASSERT_TRUE(cache.lookup(key_of(1), &out));
  EXPECT_EQ(out, 5u);
}

TEST(MemoCache, FromEnvClampsOverflowingValues) {
  setenv("PUREC_MEMO_SHARDS", "-1", 1);  // strtoull wraps to ULLONG_MAX
  setenv("PUREC_MEMO_CAP", "999999999999999999", 1);
  const MemoConfig config = MemoConfig::from_env();
  EXPECT_LE(config.shards, std::size_t{1} << 24);
  EXPECT_LE(config.capacity, std::size_t{1} << 24);
  unsetenv("PUREC_MEMO_SHARDS");
  unsetenv("PUREC_MEMO_CAP");
}

TEST(MemoCache, FromEnvParsesAndFallsBack) {
  setenv("PUREC_MEMO_SHARDS", "2", 1);
  setenv("PUREC_MEMO_CAP", "128", 1);
  MemoConfig config = MemoConfig::from_env();
  EXPECT_EQ(config.shards, 2u);
  EXPECT_EQ(config.capacity, 128u);
  setenv("PUREC_MEMO_SHARDS", "garbage", 1);
  setenv("PUREC_MEMO_CAP", "0", 1);
  config = MemoConfig::from_env();
  EXPECT_EQ(config.shards, MemoConfig{}.shards);
  EXPECT_EQ(config.capacity, MemoConfig{}.capacity);
  unsetenv("PUREC_MEMO_SHARDS");
  unsetenv("PUREC_MEMO_CAP");
}

TEST(MemoCache, EvictionNeverReturnsWrongValues) {
  // 64 slots, 4096 distinct keys: heavy eviction. Every hit must carry
  // the exact value stored for that key.
  MemoCache cache(MemoConfig{2, 64});
  std::uint64_t hits = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      const std::uint64_t key = key_of(i);
      std::uint64_t out = 0;
      if (cache.lookup(key, &out)) {
        ASSERT_EQ(out, value_of(key)) << "corrupt hit for key " << i;
        ++hits;
      } else {
        cache.store(key, value_of(key));
      }
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  (void)hits;  // hit count is policy-dependent; correctness is not
}

TEST(MemoCache, EightThreadHammerHitMissEvict) {
  // 8 threads × mixed hit/miss/evict traffic over a deliberately small
  // table. The invariant under concurrency is exactly the memoization
  // soundness contract: a hit returns the value stored for that key.
  MemoCache cache(MemoConfig{4, 256});
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 1024;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> corrupt{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t cursor = static_cast<std::uint64_t>(t) * 31;
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t i = 0; i < kKeys; i += kThreads) {
          const std::uint64_t k = key_of((cursor + i) % kKeys);
          std::uint64_t out = 0;
          if (cache.lookup(k, &out)) {
            if (out != value_of(k)) corrupt.store(true);
          } else {
            cache.store(k, value_of(k));
          }
        }
        ++cursor;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(corrupt.load()) << "a hit returned a foreign value";
  const rt::MemoStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(MemoCache, ChecksumDeterministicWithAndWithoutCapPressure) {
  // The same workload through a roomy table and through a 16-slot table
  // must produce the identical checksum as the uncached compute: hits
  // return bit-exact stored values, misses recompute them.
  const auto run = [](MemoConfig config) {
    MemoCache cache(config);
    std::uint64_t checksum = 0;
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t i = 0; i < 512; ++i) {
        const std::uint64_t k = key_of(i % 64);
        std::uint64_t v = 0;
        if (!cache.lookup(k, &v)) {
          v = value_of(k);
          cache.store(k, v);
        }
        checksum = MemoKey::mix(checksum ^ v);
      }
    }
    return checksum;
  };
  std::uint64_t uncached = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 512; ++i) {
      uncached = MemoKey::mix(uncached ^ value_of(key_of(i % 64)));
    }
  }
  EXPECT_EQ(run(MemoConfig{8, 4096}), uncached);
  EXPECT_EQ(run(MemoConfig{1, 16}), uncached);
}

// ---------------------------------------------------------------------------
// MemoKey raw-word recording (the verify-mode tuple)
// ---------------------------------------------------------------------------

TEST(MemoKeyWords, RecordsTupleAlongsideTheFingerprint) {
  MemoKey key(0x42);
  key.add(7);
  key.add_f64(1.5);
  ASSERT_EQ(key.word_count(), 2u);
  EXPECT_EQ(key.words()[0], 7u);
  double back = 0.0;
  static_assert(sizeof(back) == sizeof(key.words()[1]));
  std::memcpy(&back, &key.words()[1], sizeof(back));
  EXPECT_EQ(back, 1.5);
}

TEST(MemoKeyWords, OverflowingTupleKeepsTheHonestCount) {
  // Past kMaxWords the storage saturates but the count keeps climbing —
  // that count alone is what tells verify mode "too wide, bypass".
  MemoKey key(1);
  for (std::uint64_t i = 0; i < MemoKey::kMaxWords + 4; ++i) key.add(i);
  EXPECT_EQ(key.word_count(), MemoKey::kMaxWords + 4);
}

// ---------------------------------------------------------------------------
// Full-key verification mode
// ---------------------------------------------------------------------------

TEST(MemoCacheVerify, FingerprintAliasDegradesToMissNeverWrongValue) {
  MemoConfig config{4, 256};
  config.verify = true;
  MemoCache cache(config);
  ASSERT_TRUE(cache.verifying());
  // Two distinct tuples forced onto the same fingerprint — the aliasing
  // event verify mode exists for.
  const std::uint64_t fp = key_of(1);
  const std::uint64_t tuple_a[] = {11, 12};
  const std::uint64_t tuple_b[] = {21, 22};
  cache.store(fp, tuple_a, 2, 100);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.lookup(fp, tuple_a, 2, &out));
  EXPECT_EQ(out, 100u);
  // The alias must miss, not return tuple_a's value.
  EXPECT_FALSE(cache.lookup(fp, tuple_b, 2, &out));
  // Publishing the alias replaces the resident entry (otherwise tuple_b
  // would miss forever); tuple_a then misses in turn.
  cache.store(fp, tuple_b, 2, 200);
  ASSERT_TRUE(cache.lookup(fp, tuple_b, 2, &out));
  EXPECT_EQ(out, 200u);
  EXPECT_FALSE(cache.lookup(fp, tuple_a, 2, &out));
}

TEST(MemoCacheVerify, WideTuplesBypassTheCache) {
  MemoConfig config{4, 256};
  config.verify = true;
  MemoCache cache(config);
  std::uint64_t wide[MemoCache::kVerifyWords + 1] = {};
  const std::uint64_t fp = key_of(9);
  cache.store(fp, wide, MemoCache::kVerifyWords + 1, 5);
  std::uint64_t out = 0;
  // An unverifiable tuple is never cached: permanent (counted) miss.
  EXPECT_FALSE(
      cache.lookup(fp, wide, MemoCache::kVerifyWords + 1, &out));
  EXPECT_GE(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(MemoCacheVerify, VerifyOffIgnoresTheTuple) {
  MemoCache cache(MemoConfig{4, 256});
  ASSERT_FALSE(cache.verifying());
  const std::uint64_t fp = key_of(3);
  const std::uint64_t tuple_a[] = {1};
  const std::uint64_t tuple_b[] = {2};
  cache.store(fp, tuple_a, 1, 33);
  std::uint64_t out = 0;
  // Without verify the fingerprint is the whole key: tuple_b "hits".
  ASSERT_TRUE(cache.lookup(fp, tuple_b, 1, &out));
  EXPECT_EQ(out, 33u);
}

// ---------------------------------------------------------------------------
// Process-shared persistence (PUREC_MEMO_PATH)
// ---------------------------------------------------------------------------

std::string shared_cache_path(const char* tag) {
  return ::testing::TempDir() + "purec_memo_" + tag + "_" +
         std::to_string(static_cast<long long>(getpid())) + ".cache";
}

TEST(MemoCacheShared, TwoAttachersShareOneFile) {
  const std::string path = shared_cache_path("attach");
  std::remove(path.c_str());
  MemoConfig config{4, 256};
  config.path = path;
  {
    MemoCache writer(config);
    ASSERT_TRUE(writer.shared());
    writer.store(key_of(1), 111);
    MemoCache reader(config);
    ASSERT_TRUE(reader.shared());
    std::uint64_t out = 0;
    ASSERT_TRUE(reader.lookup(key_of(1), &out))
        << "second attacher must see the first attacher's stores";
    EXPECT_EQ(out, 111u);
    // Stats stay per-attacher even though the slots are shared.
    EXPECT_EQ(writer.stats().hits, 0u);
    EXPECT_EQ(reader.stats().hits, 1u);
  }
  // Persistence across detach/reattach (the restart case).
  MemoCache revived(config);
  ASSERT_TRUE(revived.shared());
  std::uint64_t out = 0;
  ASSERT_TRUE(revived.lookup(key_of(1), &out));
  EXPECT_EQ(out, 111u);
  std::remove(path.c_str());
}

TEST(MemoCacheShared, GeometryOrVerifyMismatchFallsBackToPrivate) {
  const std::string path = shared_cache_path("mismatch");
  std::remove(path.c_str());
  MemoConfig config{4, 256};
  config.path = path;
  MemoCache owner(config);
  ASSERT_TRUE(owner.shared());
  // Different geometry: reject the file, serve privately, never corrupt.
  MemoConfig other{8, 1024};
  other.path = path;
  MemoCache mismatched(other);
  EXPECT_FALSE(mismatched.shared());
  // Different verify flag (the slot sidecar changes the ABI): same.
  MemoConfig verifying{4, 256};
  verifying.path = path;
  verifying.verify = true;
  MemoCache incompatible(verifying);
  EXPECT_FALSE(incompatible.shared());
  // The private fallback still functions as a cache.
  mismatched.store(key_of(5), 55);
  std::uint64_t out = 0;
  ASSERT_TRUE(mismatched.lookup(key_of(5), &out));
  EXPECT_EQ(out, 55u);
  std::remove(path.c_str());
}

TEST(MemoCacheShared, CorruptHeaderFallsBackToPrivate) {
  const std::string path = shared_cache_path("corrupt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // Plausible size, garbage content: magic validation must reject it.
  std::vector<char> garbage(4096, '\x5a');
  std::fwrite(garbage.data(), 1, garbage.size(), f);
  std::fclose(f);
  MemoConfig config{4, 256};
  config.path = path;
  MemoCache cache(config);
  EXPECT_FALSE(cache.shared());
  cache.store(key_of(2), 22);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.lookup(key_of(2), &out));
  EXPECT_EQ(out, 22u);
  std::remove(path.c_str());
}

TEST(MemoCacheShared, ForkedProcessesShareTrafficAndStayExact) {
  // The fleet case the subsystem exists for: two child processes hammer
  // one PUREC_MEMO_PATH file. Every hit in every process must return the
  // value computed for that key (exit code carries the verdict), and the
  // table the children leave behind must be fully resident for a fresh
  // attacher.
  const std::string path = shared_cache_path("fork");
  std::remove(path.c_str());
  MemoConfig config{4, 1024};
  config.path = path;
  constexpr std::uint64_t kKeys = 256;
  constexpr int kRounds = 50;

  pid_t children[2] = {};
  for (int c = 0; c < 2; ++c) {
    children[c] = fork();
    ASSERT_GE(children[c], 0) << "fork failed";
    if (children[c] == 0) {
      // Child: attach, serve, verify every hit. _exit keeps gtest's
      // output machinery out of the forked copy.
      MemoCache cache(config);
      if (!cache.shared()) _exit(3);
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          const std::uint64_t k = key_of((i + static_cast<std::uint64_t>(
                                                  c) *
                                                  31) %
                                         kKeys);
          std::uint64_t out = 0;
          if (cache.lookup(k, &out)) {
            if (out != value_of(k)) _exit(4);
          } else {
            cache.store(k, value_of(k));
          }
        }
      }
      const rt::MemoStats stats = cache.stats();
      // Per-process counters: this child alone saw kRounds x kKeys probes.
      if (stats.hits + stats.misses !=
          static_cast<std::uint64_t>(kRounds) * kKeys) {
        _exit(5);
      }
      _exit(stats.hits > 0 ? 0 : 6);
    }
  }
  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "child verdict (3=attach 4=corrupt-hit 5=counters 6=no-hits)";
  }
  // A fresh attacher finds every key resident (1024 slots, 256 keys: no
  // eviction), with the exact stored bits.
  MemoCache after(config);
  ASSERT_TRUE(after.shared());
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(after.lookup(key_of(i), &out)) << "key " << i;
    EXPECT_EQ(out, value_of(key_of(i))) << "key " << i;
  }
  EXPECT_EQ(after.stats().hits, kKeys);
  std::remove(path.c_str());
}

TEST(MemoCacheShared, ForkedVerifyModeStaysExact) {
  // Same two-process hammer with full-key verification on: the vwords
  // sidecar rides the same seqlock, so cross-process torn reads must
  // still degrade to misses, never wrong values.
  const std::string path = shared_cache_path("fork_verify");
  std::remove(path.c_str());
  MemoConfig config{4, 1024};
  config.path = path;
  config.verify = true;
  constexpr std::uint64_t kKeys = 256;

  pid_t children[2] = {};
  for (int c = 0; c < 2; ++c) {
    children[c] = fork();
    ASSERT_GE(children[c], 0) << "fork failed";
    if (children[c] == 0) {
      MemoCache cache(config);
      if (!cache.shared() || !cache.verifying()) _exit(3);
      for (int round = 0; round < 50; ++round) {
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          MemoKey mk(0x1234);
          mk.add(i);
          const std::uint64_t k = mk.hash();
          std::uint64_t out = 0;
          if (cache.lookup(k, mk.words(), mk.word_count(), &out)) {
            if (out != value_of(k)) _exit(4);
          } else {
            cache.store(k, mk.words(), mk.word_count(), value_of(k));
          }
        }
      }
      _exit(cache.stats().hits > 0 ? 0 : 6);
    }
  }
  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  std::remove(path.c_str());
}

/// Compiles `source` with gcc -fopenmp into `bin`; false (with the
/// compiler output recorded) when gcc is missing or fails.
bool compile_c(const std::string& source, const std::string& bin) {
  const std::string c_path = bin + ".c";
  std::FILE* out = std::fopen(c_path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs(source.c_str(), out);
  std::fclose(out);
  const std::string cmd =
      "gcc -O2 -fopenmp -o '" + bin + "' '" + c_path + "' -lm 2>&1";
  return std::system(cmd.c_str()) == 0;
}

/// The memoized pure function of kCrossLanguageProgram, computed in C++.
double cross_language_curve(int v, double scale) {
  const double x = static_cast<double>(v) * 0.5 + 3.0;
  double y = x;
  for (int k = 0; k < 8; k++) y = 0.5 * (y + x / y);
  return y * scale;
}

constexpr const char* kCrossLanguageProgram = R"(
#include <stdio.h>

double scale;

pure double curve(int v) {
  double x = (double)v * 0.5 + 3.0;
  double y = x;
  for (int k = 0; k < 8; k++)
    y = 0.5 * (y + x / y);
  return y * scale;
}

int main() {
  double sum = 0.0;
  scale = 0.75;
  for (int i = 0; i < 256; i++) sum += curve(i % 32);
  printf("checksum %.6f\n", sum);
  return 0;
}
)";

TEST(MemoCacheShared, CppCacheServesWhatAnEmittedBinaryStored) {
  // One table implementation, two languages: an emitted --memoize binary
  // warms a PUREC_MEMO_PATH file, then a C++ MemoCache with the default
  // geometry attaches it and must serve every key the binary stored,
  // with the bits the C++ side computes for that call.
  if (std::system("gcc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no system gcc";
  }
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  const ChainArtifacts artifacts =
      run_pure_chain(kCrossLanguageProgram, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  ASSERT_EQ(artifacts.memoization.memoizable,
            (std::set<std::string>{"curve"}));
  const std::string bin = shared_cache_path("emitted") + ".bin";
  ASSERT_TRUE(compile_c(artifacts.final_source, bin));
  const std::string path = shared_cache_path("cross");
  std::remove(path.c_str());
  const std::string run = "env -u PUREC_MEMO_SHARDS -u PUREC_MEMO_CAP "
                          "-u PUREC_MEMO_VERIFY PUREC_MEMO_PATH='" +
                          path + "' '" + bin + "' > /dev/null";
  ASSERT_EQ(std::system(run.c_str()), 0);

  MemoConfig config;  // the emitted table's defaults: 8 shards, 2^16 slots
  config.path = path;
  MemoCache cache(config);
  ASSERT_TRUE(cache.shared()) << "the C++ side must attach, not fall back";
  const double scale = 0.75;
  for (int v = 0; v < 32; ++v) {
    MemoKey key(memo_function_id("curve"));
    key.add(static_cast<std::uint64_t>(v));  // the thunk's int argument
    key.add_f64(scale);                      // the global snapshot
    std::uint64_t bits = 0;
    ASSERT_TRUE(cache.lookup(key.hash(), &bits)) << "v=" << v;
    const double expected = cross_language_curve(v, scale);
    std::uint64_t expected_bits = 0;
    std::memcpy(&expected_bits, &expected, sizeof(expected_bits));
    EXPECT_EQ(bits, expected_bits) << "v=" << v;
  }
  EXPECT_EQ(cache.stats().hits, 32u);
  std::remove(path.c_str());
  std::remove(bin.c_str());
  std::remove((bin + ".c").c_str());
}

// ---------------------------------------------------------------------------
// Memoizability analysis
// ---------------------------------------------------------------------------

struct ClassifyOutcome {
  DiagnosticEngine diags;
  std::unique_ptr<TranslationUnit> tu;
  std::unique_ptr<SymbolTable> symbols;
  MemoizableResult result;
};

/// Parses `src`, derives the pure set via the checker (plus `extra_pure`
/// names assumed without verification), and classifies.
ClassifyOutcome classify(const std::string& src,
                         std::set<std::string> extra_pure = {},
                         bool cost_gate = false,
                         const MemoProfile* profile = nullptr) {
  ClassifyOutcome out;
  SourceBuffer buf = SourceBuffer::from_string(src);
  out.tu = std::make_unique<TranslationUnit>(parse(buf, out.diags));
  EXPECT_FALSE(out.diags.has_errors())
      << "fixture must parse: " << out.diags.format(&buf);
  out.symbols =
      std::make_unique<SymbolTable>(SymbolTable::build(*out.tu, out.diags));
  PurityOptions options;
  options.assume_pure = std::move(extra_pure);
  PurityChecker checker(*out.tu, *out.symbols, out.diags, options);
  const PurityResult purity = checker.check();
  out.result = classify_memoizable(*out.tu, *out.symbols,
                                   purity.pure_functions, options,
                                   cost_gate, profile);
  return out;
}

const MemoFunctionInfo& info_of(const ClassifyOutcome& out,
                                const std::string& name) {
  const auto it = out.result.functions.find(name);
  EXPECT_NE(it, out.result.functions.end()) << "no verdict for " << name;
  return it->second;
}

TEST(Memoizable, ScalarParamsYesPointerParamsNo) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  EXPECT_TRUE(info_of(out, "mult").memoizable);
  ASSERT_EQ(info_of(out, "mult").param_types.size(), 2u);
  const MemoFunctionInfo& dot = info_of(out, "dot");
  EXPECT_FALSE(dot.memoizable);
  EXPECT_NE(dot.reason.find("read extent not statically known"),
            std::string::npos)
      << dot.reason;
}

TEST(Memoizable, VoidReturnRejected) {
  const ClassifyOutcome out = classify(
      "pure void nop(int a) { int b; b = a; }\n");
  const MemoFunctionInfo& info = info_of(out, "nop");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("returns void"), std::string::npos);
}

TEST(Memoizable, GlobalScalarJoinsSnapshot) {
  const ClassifyOutcome out = classify(
      "float gain;\n"
      "pure float shade(int v) { return (float)v * gain; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "gain");
}

TEST(Memoizable, GlobalArrayRejected) {
  const ClassifyOutcome out = classify(
      "float lut[64];\n"
      "pure float shade(int v) { return lut[v]; }\n");
  const MemoFunctionInfo& info = info_of(out, "shade");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot would be unbounded"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, TransitiveGlobalReadsFlowThroughCallees) {
  const ClassifyOutcome out = classify(
      "int bias;\n"
      "pure int inner(int v) { return v + bias; }\n"
      "pure int outer(int v) { return inner(v) * 2; }\n");
  const MemoFunctionInfo& info = info_of(out, "outer");
  ASSERT_TRUE(info.memoizable) << info.reason;
  ASSERT_EQ(info.global_snapshot.size(), 1u);
  EXPECT_EQ(info.global_snapshot[0].first, "bias");
}

TEST(Memoizable, AllocationRejected) {
  const ClassifyOutcome out = classify(
      "pure int probe(int n) {\n"
      "  int* p = (int*)malloc(n * sizeof(int));\n"
      "  p[0] = n;\n"
      "  int r = p[0];\n"
      "  free(p);\n"
      "  return r;\n"
      "}\n");
  const MemoFunctionInfo& info = info_of(out, "probe");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("allocates"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, ExternPureProtoRejectedViaCallee) {
  const ClassifyOutcome out = classify(
      "pure int mystery(int v);\n"
      "pure int wrap(int v) { return mystery(v) + 1; }\n");
  const MemoFunctionInfo& info = info_of(out, "wrap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("definition unavailable"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, FpEnvironmentSensitiveCalleeRejected) {
  // `rint` observes the dynamic rounding mode; assume it pure to get past
  // the checker and pin that memoization still refuses.
  const ClassifyOutcome out = classify(
      "pure double snap(double v) { return rint(v); }\n", {"rint"});
  const MemoFunctionInfo& info = info_of(out, "snap");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("floating-point-environment"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveSnprintfRejected) {
  // Pure enough for parallelization (bounded local write), but the
  // formatted bytes depend on the dynamic locale — caching them would
  // serve stale results across setlocale.
  const ClassifyOutcome out = classify(
      "int fmt(int v) {\n"
      "  char buf[16];\n"
      "  snprintf(buf, 16, \"%d\", v);\n"
      "  return buf[0];\n"
      "}\n",
      {"fmt"});
  const MemoFunctionInfo& info = info_of(out, "fmt");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, LocaleSensitiveStrtodRejected) {
  // The mirror hazard of snprintf: C11 lets other locales accept
  // additional subject-sequence forms, so identical argument bytes can
  // parse differently across setlocale calls. Pure (the &local endptr
  // write is thread-invisible) but not cacheable.
  const ClassifyOutcome out = classify(
      "double parse(int digit) {\n"
      "  char buf[2];\n"
      "  char* end;\n"
      "  buf[0] = 48 + digit;\n"
      "  buf[1] = 0;\n"
      "  return strtod(buf, &end);\n"
      "}\n",
      {"parse"});
  const MemoFunctionInfo& info = info_of(out, "parse");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("locale-sensitive parsing"),
            std::string::npos)
      << info.reason;
}

TEST(Memoizable, StandardMathCalleesAreFine) {
  const ClassifyOutcome out = classify(
      "pure double wave(double x) { return sin(x) * cos(x); }\n");
  EXPECT_TRUE(info_of(out, "wave").memoizable)
      << info_of(out, "wave").reason;
}

TEST(Memoizable, SnapshotBoundRejectsWideGlobalSets) {
  std::string src;
  std::string body = "pure int sum(int v) { return v";
  for (int i = 0; i < 9; ++i) {
    src += "int g" + std::to_string(i) + ";\n";
    body += " + g" + std::to_string(i);
  }
  src += body + "; }\n";
  const ClassifyOutcome out = classify(src);
  const MemoFunctionInfo& info = info_of(out, "sum");
  EXPECT_FALSE(info.memoizable);
  EXPECT_NE(info.reason.find("snapshot bound"), std::string::npos)
      << info.reason;
}

TEST(Memoizable, SummaryNamesBothSides) {
  const ClassifyOutcome out = classify(testsrc::kMatmul);
  const std::string summary = out.result.summary();
  EXPECT_NE(summary.find("memoizable: mult"), std::string::npos) << summary;
  EXPECT_NE(summary.find("rejected: dot"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Profile-informed cost gate (--memoize-profile)
// ---------------------------------------------------------------------------

constexpr const char* kProfileFixture =
    "pure float heavy(float a, float b) {\n"
    "  float acc = a * b + a;\n"
    "  acc = acc * acc + b * b;\n"
    "  acc = acc * 0.5f + a * b;\n"
    "  return acc * acc + 1.0f;\n"
    "}\n"
    "pure float cold(float a, float b) {\n"
    "  float acc = a * b + a;\n"
    "  acc = acc * acc + b * b;\n"
    "  return acc;\n"
    "}\n"
    "pure float unseen(float a) { return a * 2.0f; }\n";

TEST(MemoProfile, ParseSumsFleetDumps) {
  // One PUREC_MEMO_STATS dump per process in a fleet: entries for the
  // same thunk sum; anything that is not a stats line is ignored.
  const MemoProfile profile = parse_memo_profile(
      "purec-memo[heavy] hits=10 misses=2 evictions=0\n"
      "some unrelated program output\n"
      "purec-memo[heavy] hits=5 misses=1 evictions=3\n"
      "purec-memo[cold] hits=0 misses=7 evictions=0\n"
      "purec-memo[broken] hits=oops\n");
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.at("heavy").hits, 15u);
  EXPECT_EQ(profile.at("heavy").misses, 3u);
  EXPECT_EQ(profile.at("heavy").evictions, 3u);
  EXPECT_EQ(profile.at("cold").misses, 7u);
}

TEST(Memoizable, ProfileGateKeepsDemonstratedReuseOnly) {
  MemoProfile profile;
  profile["heavy"] = {900, 100, 0};  // reuse 9x: survives
  profile["cold"] = {0, 500, 0};     // traffic but zero reuse: rejected
  // "unseen" absent: the thunk was never exercised.
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/true, &profile);

  const MemoFunctionInfo& heavy = info_of(out, "heavy");
  EXPECT_TRUE(heavy.memoizable) << heavy.reason;
  EXPECT_TRUE(heavy.profiled);
  EXPECT_EQ(heavy.profile_hits, 900u);
  EXPECT_GT(heavy.cost_nodes, 0u);
  EXPECT_GE(heavy.profile_score, kMemoProfileScoreMin);

  const MemoFunctionInfo& cold = info_of(out, "cold");
  EXPECT_FALSE(cold.memoizable);
  EXPECT_NE(cold.reason.find("profile shows no reuse"), std::string::npos)
      << cold.reason;

  const MemoFunctionInfo& unseen = info_of(out, "unseen");
  EXPECT_FALSE(unseen.memoizable);
  EXPECT_NE(unseen.reason.find("no observed traffic"), std::string::npos)
      << unseen.reason;
}

TEST(Memoizable, ProfileScoreBelowGateRejectsThinReuse) {
  MemoProfile profile;
  profile["heavy"] = {1, 1000, 0};  // reuse 0.001x: score under the gate
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/true, &profile);
  const MemoFunctionInfo& heavy = info_of(out, "heavy");
  EXPECT_FALSE(heavy.memoizable);
  EXPECT_NE(heavy.reason.find("profile score"), std::string::npos)
      << heavy.reason;
}

TEST(Memoizable, MemoizeAllKeepsProfileAnnotationsWithoutRejecting) {
  // --memoize=all (cost_gate off) still records the profile verdicts —
  // the report shows the scores — but nothing is rejected by them.
  MemoProfile profile;
  profile["cold"] = {0, 500, 0};
  const ClassifyOutcome out =
      classify(kProfileFixture, {}, /*cost_gate=*/false, &profile);
  const MemoFunctionInfo& cold = info_of(out, "cold");
  EXPECT_TRUE(cold.memoizable) << cold.reason;
  EXPECT_TRUE(cold.profiled);
  EXPECT_EQ(cold.profile_hits, 0u);
  const MemoFunctionInfo& unseen = info_of(out, "unseen");
  EXPECT_TRUE(unseen.memoizable) << unseen.reason;
  EXPECT_FALSE(unseen.profiled);
}

// ---------------------------------------------------------------------------
// Thunk codegen
// ---------------------------------------------------------------------------

TEST(MemoCodegen, ThunkPrototypeShape) {
  MemoFunctionInfo info;
  info.name = "mult";
  info.return_type = Type::make_builtin(BuiltinKind::Float);
  info.param_types = {Type::make_builtin(BuiltinKind::Float),
                      Type::make_builtin(BuiltinKind::Float)};
  EXPECT_EQ(memo_thunk_prototype(info),
            "static float purec_memo_mult(float purec_a0, "
            "float purec_a1);\n");
  const std::string def = memo_thunk_definition(info);
  EXPECT_NE(
      def.find("PUREC_MEMO_KEY_F32(purec_key, purec_kw, purec_kn, "
               "purec_a0);"),
      std::string::npos)
      << def;
  EXPECT_NE(def.find("purec_result = mult(purec_a0, purec_a1);"),
            std::string::npos)
      << def;
}

TEST(MemoCodegen, FunctionIdsDiffer) {
  EXPECT_NE(memo_function_id("mult"), memo_function_id("dot"));
  EXPECT_EQ(memo_function_id("mult"), memo_function_id("mult"));
}

TEST(MemoCodegen, IntegerAndDoubleKeyLines) {
  MemoFunctionInfo info;
  info.name = "f";
  info.return_type = Type::make_builtin(BuiltinKind::Double);
  info.param_types = {Type::make_builtin(BuiltinKind::Int)};
  info.global_snapshot.emplace_back(
      "g", Type::make_builtin(BuiltinKind::Double));
  const std::string def = memo_thunk_definition(info);
  EXPECT_NE(
      def.find("PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, "
               "purec_a0);"),
      std::string::npos)
      << def;
  EXPECT_NE(def.find("PUREC_MEMO_KEY_F64(purec_key, purec_kw, purec_kn, "
                     "g);"),
            std::string::npos)
      << def;
  EXPECT_NE(def.find("PUREC_MEMO_UNPACK_F64"), std::string::npos) << def;
}

// ---------------------------------------------------------------------------
// Chain wiring
// ---------------------------------------------------------------------------

TEST(MemoChain, CostGateSkipsTrivialLeavesByDefault) {
  // `mult` is a 3-node single-expression leaf: the default --memoize
  // cost-gates it (the table trip costs more than the recompute — the
  // honest 0.1x matmul-twin negative in BENCH_memoize.json), so the
  // output stays memo-free.
  ChainOptions options;
  options.memoize = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_TRUE(artifacts.memoization.memoizable.empty());
  EXPECT_EQ(artifacts.memoized_calls, 0u);
  const auto mult = artifacts.memoization.functions.find("mult");
  ASSERT_NE(mult, artifacts.memoization.functions.end());
  EXPECT_NE(mult->second.reason.find("cost gate"), std::string::npos)
      << mult->second.reason;
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, MemoizeAllRewritesCallSitesAndEmitsRuntime) {
  ChainOptions options;
  options.memoize = true;
  options.memoize_all = true;
  const ChainArtifacts artifacts =
      run_pure_chain(testsrc::kMatmul, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  EXPECT_EQ(artifacts.memoization.memoizable,
            (std::set<std::string>{"mult"}));
  EXPECT_GE(artifacts.memoized_calls, 1u);
  EXPECT_NE(artifacts.final_source.find("/* purec-rt:begin memo */"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("purec_memo_mult("),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("#include <stdlib.h>"),
            std::string::npos);
  // The PUREC_MEMO_STATS instrumentation rides along: per-thunk counter
  // registration plus the atexit dump in the emitted runtime.
  EXPECT_NE(artifacts.final_source.find("purec_memo_stats_mult"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("purec_memo_stats_dump"),
            std::string::npos);
  EXPECT_NE(artifacts.final_source.find("#include <stdio.h>"),
            std::string::npos);
  // Intermediate stages stay memo-free (the rewrite is a PosPro concern).
  EXPECT_EQ(artifacts.transformed.find("purec_memo"), std::string::npos);
}

TEST(MemoChain, NoMemoizableFunctionsIsByteLevelNoop) {
  ChainOptions plain;
  ChainOptions memo;
  memo.memoize = true;
  const ChainArtifacts a = run_pure_chain(testsrc::kSatellite, plain);
  const ChainArtifacts b = run_pure_chain(testsrc::kSatellite, memo);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.final_source, b.final_source);
  EXPECT_EQ(b.memoized_calls, 0u);
  EXPECT_TRUE(b.memoization.memoizable.empty());
}

TEST(MemoChain, OffByDefaultLeavesNoTrace) {
  const ChainArtifacts artifacts = run_pure_chain(testsrc::kMatmul);
  ASSERT_TRUE(artifacts.ok);
  EXPECT_EQ(artifacts.final_source.find("purec_memo"), std::string::npos);
  EXPECT_TRUE(artifacts.memoization.functions.empty());
}

}  // namespace
}  // namespace purec
