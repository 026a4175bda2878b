// Tests of the --instrument per-region wall-time histograms of the runtime
// the emitted C carries, src/runtime/c/purec_rt.h, through its C API:
// cell indexing, cell bounds, relative error and percentiles.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/c/purec_rt.h"

namespace purec {
namespace {

TEST(PurecHist, SmallValuesMapToExactCells) {
  // Values below PUREC_HIST_SUB land in identity cells, so the histogram
  // is lossless there and cell bounds collapse to the value itself.
  for (std::uint64_t v = 0; v < PUREC_HIST_SUB; ++v) {
    const unsigned index = purec_hist_index(v);
    EXPECT_EQ(index, v);
    EXPECT_EQ(purec_hist_lower(index), v);
    EXPECT_EQ(purec_hist_upper(index), v);
  }
}

TEST(PurecHist, CellBoundsTileTheDomainWithoutGaps) {
  // Every value lands in a cell whose [lower, upper] range contains it,
  // and consecutive cells tile: upper(i) + 1 == lower(i + 1).
  for (std::uint64_t v :
       {std::uint64_t{7}, std::uint64_t{8}, std::uint64_t{9},
        std::uint64_t{15}, std::uint64_t{16}, std::uint64_t{17},
        std::uint64_t{1000}, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 63) + 12345, ~std::uint64_t{0}}) {
    const unsigned index = purec_hist_index(v);
    ASSERT_LT(index, static_cast<unsigned>(PUREC_HIST_CELLS)) << v;
    EXPECT_LE(purec_hist_lower(index), v) << v;
    EXPECT_GE(purec_hist_upper(index), v) << v;
  }
  const unsigned last = purec_hist_index(~std::uint64_t{0});
  EXPECT_EQ(last, PUREC_HIST_CELLS - 1u);
  EXPECT_EQ(purec_hist_upper(last), ~std::uint64_t{0});
  for (unsigned i = 0; i < last; ++i) {
    EXPECT_EQ(purec_hist_upper(i) + 1, purec_hist_lower(i + 1))
        << "gap after cell " << i;
  }
}

TEST(PurecHist, RelativeErrorIsBoundedByTheSubBucketWidth) {
  // HdrHistogram guarantee: a cell is at most lower / 2^(SUB_BITS - 1)
  // wide, so reported percentiles are within ~12.5% of the true value.
  for (std::uint64_t v : {std::uint64_t{100}, std::uint64_t{100000},
                          std::uint64_t{1} << 40}) {
    const unsigned index = purec_hist_index(v);
    const std::uint64_t width =
        purec_hist_upper(index) - purec_hist_lower(index) + 1;
    EXPECT_LE(width, purec_hist_lower(index) >> (PUREC_HIST_SUB_BITS - 1))
        << v;
  }
}

TEST(PurecHist, PercentileEdges) {
  std::vector<std::uint64_t> cells(PUREC_HIST_CELLS, 0);
  // Empty histogram: every percentile is 0.
  EXPECT_EQ(purec_hist_pct(cells.data(), 0, 50), 0u);
  EXPECT_EQ(purec_hist_pct(cells.data(), 0, 100), 0u);
  // 100 samples of 5 plus one outlier at 1000: p50 and p99 sit in the
  // bulk, p100 reaches the outlier's cell upper bound.
  cells[purec_hist_index(5)] = 100;
  cells[purec_hist_index(1000)] = 1;
  EXPECT_EQ(purec_hist_pct(cells.data(), 101, 50), 5u);
  EXPECT_EQ(purec_hist_pct(cells.data(), 101, 99), 5u);
  EXPECT_EQ(purec_hist_pct(cells.data(), 101, 100),
            purec_hist_upper(purec_hist_index(1000)));
  // A single sample: every percentile, even p0 and past p100, reports
  // its cell's upper bound (42 lands in [40, 43]).
  std::vector<std::uint64_t> one(PUREC_HIST_CELLS, 0);
  one[purec_hist_index(42)] = 1;
  const std::uint64_t cell_upper = purec_hist_upper(purec_hist_index(42));
  EXPECT_EQ(cell_upper, 43u);
  EXPECT_EQ(purec_hist_pct(one.data(), 1, 0), cell_upper);
  EXPECT_EQ(purec_hist_pct(one.data(), 1, 1), cell_upper);
  EXPECT_EQ(purec_hist_pct(one.data(), 1, 100), cell_upper);
  EXPECT_EQ(purec_hist_pct(one.data(), 1, 250), cell_upper);
}

}  // namespace
}  // namespace purec
