// purec::rt::stats behind -DPUREC_RT_STATS=1: this executable recompiles
// thread_pool.cpp / memo_cache.cpp with the knob on (see
// tests/CMakeLists.txt) and instantiates the parallel_for.h templates under
// it, so the hooks are live here while the production runtime archive
// keeps them compiled out. The assertions are accounting
// identities — chunk tallies must sum to exactly the chunk count the
// schedule math dictates — plus the dump/reset surface.
#include "runtime/stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "runtime/memo_cache.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace purec::rt {
namespace {

static_assert(stats::kEnabled,
              "runtime_stats_test must be built with -DPUREC_RT_STATS=1");

std::uint64_t read(const stats::Cell& cell) {
  return cell.value.load(std::memory_order_relaxed);
}

std::uint64_t total_chunks() {
  std::uint64_t sum = 0;
  for (std::size_t w = 0; w < stats::kMaxWorkers; ++w) {
    sum += read(stats::counters().chunks[w]);
  }
  return sum;
}

TEST(RuntimeStats, StaticScheduleCountsOneChunkPerBusyWorker) {
  stats::reset();
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, 0, 100,
               [&](std::int64_t i) {
                 sum.fetch_add(i, std::memory_order_relaxed);
               });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
  EXPECT_EQ(read(stats::counters().regions), 1u);
  // Static hands each of the 4 workers exactly one contiguous chunk.
  EXPECT_EQ(total_chunks(), 4u);
  EXPECT_GT(read(stats::counters().region_ns), 0u);
}

TEST(RuntimeStats, DynamicScheduleCountsEveryClaimedChunk) {
  stats::reset();
  ThreadPool pool(4);
  ForOptions options;
  options.schedule = Schedule::Dynamic;
  options.chunk = 7;
  std::atomic<std::int64_t> iterations{0};
  parallel_for(pool, 0, 100,
               [&](std::int64_t) {
                 iterations.fetch_add(1, std::memory_order_relaxed);
               },
               options);
  EXPECT_EQ(iterations.load(), 100);
  // 100 iterations in chunks of 7 = 15 claims, no matter which worker
  // wins each race.
  EXPECT_EQ(total_chunks(), 15u);
}

TEST(RuntimeStats, StealingAccountsChunksAndStealsConsistently) {
  stats::reset();
  ThreadPool pool(4);
  ForOptions options;
  options.schedule = Schedule::Dynamic;
  options.chunk = 1;
  options.stealing = true;
  std::atomic<std::int64_t> iterations{0};
  parallel_for(pool, 0, 64,
               [&](std::int64_t) {
                 iterations.fetch_add(1, std::memory_order_relaxed);
               },
               options);
  EXPECT_EQ(iterations.load(), 64);
  // Every iteration is one chunk=1 claim, owned or stolen; steals are a
  // subset of the claims.
  EXPECT_EQ(total_chunks(), 64u);
  EXPECT_LE(read(stats::counters().steals), 64u);
}

TEST(RuntimeStats, BarrierOutcomesAreRecorded) {
  stats::reset();
  ThreadPool pool(4);
  if (pool.os_thread_count() < 2) {
    GTEST_SKIP() << "single-core host: the pool never waits on a barrier";
  }
  for (int round = 0; round < 8; ++round) {
    parallel_for(pool, 0, 4, [](std::int64_t) {});
  }
  // Every wait_for_change resolves as a spin-window hit or a park; with
  // real worker threads there must be at least one recorded outcome.
  EXPECT_GT(read(stats::counters().barrier_spins) +
                read(stats::counters().barrier_parks),
            0u);
}

TEST(RuntimeStats, MemoCacheTrafficMirrorsIntoTheGlobalCounters) {
  stats::reset();
  MemoCache cache(MemoConfig{});
  std::uint64_t value = 0;
  EXPECT_FALSE(cache.lookup(42, &value));
  cache.store(42, 7);
  EXPECT_TRUE(cache.lookup(42, &value));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(read(stats::counters().memo_hits), 1u);
  EXPECT_EQ(read(stats::counters().memo_misses), 1u);
  EXPECT_EQ(read(stats::counters().memo_stores), 1u);
  EXPECT_EQ(read(stats::counters().memo_evictions), 0u);
}

TEST(RuntimeStats, SharedMemoCacheTrafficTicksTheSameCounters) {
  // A PUREC_MEMO_PATH-backed cache routes probes through the identical
  // instrumented wrapper: global counters and the memo-probe latency
  // histogram fill exactly as for a private table.
  stats::reset();
  const std::string path = ::testing::TempDir() + "purec_stats_memo_" +
                           std::to_string(::getpid()) + ".cache";
  std::remove(path.c_str());
  MemoConfig config{4, 256};
  config.path = path;
  MemoCache cache(config);
  ASSERT_TRUE(cache.shared());
  std::uint64_t value = 0;
  EXPECT_FALSE(cache.lookup(42, &value));
  cache.store(42, 7);
  EXPECT_TRUE(cache.lookup(42, &value));
  EXPECT_EQ(read(stats::counters().memo_hits), 1u);
  EXPECT_EQ(read(stats::counters().memo_misses), 1u);
  EXPECT_EQ(read(stats::counters().memo_stores), 1u);
  EXPECT_EQ(stats::snapshot_memo_hist().count, 2u);  // one per probe
  std::remove(path.c_str());
}

TEST(RuntimeStats, DumpWritesTheHumanSummary) {
  stats::reset();
  stats::add(stats::counters().regions, 3);
  stats::note_chunk(1);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  stats::dump(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("purec-rt[pool] regions=3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("purec-rt[memo] hits=0"), std::string::npos) << text;
  EXPECT_NE(text.find("purec-rt[chunks] w1=1"), std::string::npos) << text;
}

TEST(RuntimeStatsHist, SmallValuesMapToExactCells) {
  // Values below kHistSub land in the identity cells, so the histogram is
  // lossless there and cell bounds collapse to the value itself.
  for (std::uint64_t v = 0; v < stats::kHistSub; ++v) {
    const std::size_t index = stats::hist_index(v);
    EXPECT_EQ(index, v);
    EXPECT_EQ(stats::hist_cell_lower(index), v);
    EXPECT_EQ(stats::hist_cell_upper(index), v);
  }
}

TEST(RuntimeStatsHist, CellBoundsTileTheDomainWithoutGaps) {
  // Every value must land in a cell whose [lower, upper] range contains
  // it, and consecutive cells must tile: upper(i) + 1 == lower(i + 1).
  for (std::uint64_t v : {std::uint64_t{7}, std::uint64_t{8},
                          std::uint64_t{9}, std::uint64_t{15},
                          std::uint64_t{16}, std::uint64_t{17},
                          std::uint64_t{1000}, std::uint64_t{1} << 32,
                          (std::uint64_t{1} << 63) + 12345,
                          ~std::uint64_t{0}}) {
    const std::size_t index = stats::hist_index(v);
    ASSERT_LT(index, static_cast<std::size_t>(stats::kHistCells)) << v;
    EXPECT_LE(stats::hist_cell_lower(index), v) << v;
    EXPECT_GE(stats::hist_cell_upper(index), v) << v;
  }
  for (std::size_t i = 0; i + 1 < stats::hist_index(~std::uint64_t{0});
       ++i) {
    EXPECT_EQ(stats::hist_cell_upper(i) + 1, stats::hist_cell_lower(i + 1))
        << "gap after cell " << i;
  }
}

TEST(RuntimeStatsHist, RelativeErrorIsBoundedByTheSubBucketWidth) {
  // HdrHistogram guarantee: upper - lower < lower / 2^(kHistSubBits - 1),
  // i.e. reported percentiles are within ~12.5% of the true value.
  for (std::uint64_t v : {std::uint64_t{100}, std::uint64_t{100000},
                          std::uint64_t{1} << 40}) {
    const std::size_t index = stats::hist_index(v);
    const std::uint64_t width =
        stats::hist_cell_upper(index) - stats::hist_cell_lower(index) + 1;
    EXPECT_LE(width, stats::hist_cell_lower(index) >>
                         (stats::kHistSubBits - 1))
        << v;
  }
}

TEST(RuntimeStatsHist, SnapshotMergesWorkerRowsExactly) {
  stats::reset();
  // Three workers record into their own rows; the snapshot must see the
  // union, summing counts that land in the same cell.
  stats::record_hist(stats::counters().region_hist, 0, 100);
  stats::record_hist(stats::counters().region_hist, 1, 100);
  stats::record_hist(stats::counters().region_hist, 2, 1u << 20);
  const stats::HistSnapshot merged = stats::snapshot_region_hist();
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.cells[stats::hist_index(100)], 2u);
  EXPECT_EQ(merged.cells[stats::hist_index(1u << 20)], 1u);
}

TEST(RuntimeStatsHist, PercentileEdges) {
  stats::HistSnapshot snapshot;
  // Empty histogram: every percentile is 0.
  EXPECT_EQ(stats::hist_percentile(snapshot, 50), 0u);
  EXPECT_EQ(stats::hist_percentile(snapshot, 100), 0u);
  // 100 samples of value 5 plus one outlier at 1000: p50 and p99 sit in
  // the bulk, p100 reaches the outlier's cell upper bound.
  snapshot.cells[stats::hist_index(5)] = 100;
  snapshot.cells[stats::hist_index(1000)] = 1;
  snapshot.count = 101;
  EXPECT_EQ(stats::hist_percentile(snapshot, 50), 5u);
  EXPECT_EQ(stats::hist_percentile(snapshot, 99), 5u);
  EXPECT_EQ(stats::hist_percentile(snapshot, 100),
            stats::hist_cell_upper(stats::hist_index(1000)));
  // A single sample: every percentile reports its cell's upper bound
  // (42 lands in [40, 43], so 43 — within the bounded relative error).
  stats::HistSnapshot one;
  one.cells[stats::hist_index(42)] = 1;
  one.count = 1;
  const std::uint64_t cell_upper =
      stats::hist_cell_upper(stats::hist_index(42));
  EXPECT_EQ(stats::hist_percentile(one, 1), cell_upper);
  EXPECT_EQ(stats::hist_percentile(one, 100), cell_upper);
}

TEST(RuntimeStatsHist, RegionRunsFeedTheRegionHistogram) {
  stats::reset();
  ThreadPool pool(2);
  parallel_for(pool, 0, 16, [](std::int64_t) {});
  const stats::HistSnapshot merged = stats::snapshot_region_hist();
  EXPECT_EQ(merged.count, 1u);
}

TEST(RuntimeStatsHist, DumpPrintsHistogramSummaries) {
  stats::reset();
  stats::record_hist(stats::counters().region_hist, 0, 1000);
  stats::record_hist(stats::counters().memo_hist, 0, 50);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  stats::dump(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("purec-rt[region_hist] count=1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("purec-rt[memo_probe] count=1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("p99_ns="), std::string::npos) << text;
}

TEST(RuntimeStats, ResetZeroesEverything) {
  stats::add(stats::counters().regions, 5);
  stats::add(stats::counters().memo_hits, 2);
  stats::note_chunk(0);
  stats::record_hist(stats::counters().region_hist, 0, 123);
  stats::reset();
  EXPECT_EQ(read(stats::counters().regions), 0u);
  EXPECT_EQ(read(stats::counters().memo_hits), 0u);
  EXPECT_EQ(total_chunks(), 0u);
  EXPECT_EQ(stats::snapshot_region_hist().count, 0u);
}

}  // namespace
}  // namespace purec::rt
