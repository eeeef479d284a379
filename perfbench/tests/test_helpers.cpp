// Checks of perfbench's own helpers: the nearest-rank percentile rule, the
// computed bytes model on hand-built bins, and the request stream's
// determinism per seed.
#include <gtest/gtest.h>

#include <vector>

#include "bytes_model.hpp"
#include "fmt/layout.hpp"
#include "runtime.hpp"

namespace {

using perfbench::Scalar;
using spmv::index_t;

TEST(Percentile, NearestRankOnUnsortedSamples) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(perfbench::percentile(v, 50), 500.0);
  EXPECT_EQ(perfbench::percentile(v, 99), 990.0);
  EXPECT_EQ(perfbench::percentile(v, 100), 1000.0);
  EXPECT_EQ(perfbench::percentile({7.0}, 99), 7.0);
  EXPECT_EQ(perfbench::percentile({3.0, 1.0, 2.0, 4.0}, 50), 2.0);
  EXPECT_EQ(perfbench::percentile({}, 50), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(perfbench::tail_supported(1000, 99));
  EXPECT_FALSE(perfbench::tail_supported(999, 99));
  EXPECT_TRUE(perfbench::tail_supported(20, 50));
  EXPECT_FALSE(perfbench::tail_supported(19, 50));
}

/// 4x6: row0 {0,1}, row1 {1,2,3}, row2 empty, row3 {5}.
spmv::CsrMatrix<Scalar> hand_built() {
  return spmv::CsrMatrix<Scalar>(4, 6, {0, 2, 5, 5, 6}, {0, 1, 1, 2, 3, 5},
                                 {1, 2, 3, 4, 5, 6});
}

TEST(BytesModel, CsrBinCountsRowPtrEntriesVectorsAndWindow) {
  const auto a = hand_built();
  const std::vector<index_t> all{0, 1, 2, 3};
  EXPECT_EQ(perfbench::distinct_columns(a, all, 1), 5u);
  // row_ptr (4 rows + 4 virtual rows) * 8 + 6 nnz * (4 + 4) + (5 + 4) * 4.
  EXPECT_DOUBLE_EQ(perfbench::csr_bin_bytes(a, all, 1, 5, 1), 148.0);
  // Width 8 multiplies only the x window and the y block.
  EXPECT_DOUBLE_EQ(perfbench::csr_bin_bytes(a, all, 1, 5, 8),
                   64.0 + 48.0 + 9 * 4 * 8);
  // Unit 2: two virtual rows cover the same four rows.
  const std::vector<index_t> pairs{0, 1};
  EXPECT_DOUBLE_EQ(perfbench::csr_bin_bytes(a, pairs, 2, 5, 1), 132.0);
}

TEST(BytesModel, EllCountsPadding) {
  const auto a = hand_built();
  const std::vector<index_t> rows{0, 1};
  const auto l = spmv::fmt::build_bin_layout(a, rows, 1,
                                             spmv::fmt::FormatKind::Ell, 0);
  ASSERT_EQ(l.ell.width, 3);
  EXPECT_EQ(perfbench::distinct_columns(a, rows, 1), 4u);
  // Row list 2*4 + padded 2x3 (col 4 + val 4) + x 4*4 + y 2*4.
  EXPECT_DOUBLE_EQ(perfbench::layout_bytes(l, 4, 1), 8.0 + 48.0 + 24.0);
}

TEST(BytesModel, DcsrCountsSixteenBitDeltas) {
  const auto a = hand_built();
  const std::vector<index_t> rows{0, 1};
  const auto l = spmv::fmt::build_bin_layout(a, rows, 1,
                                             spmv::fmt::FormatKind::Dcsr, 0);
  // Row list 2*4 + row_ptr 3*8 + base_col 2*4 + 5 * (delta 2 + val 4)
  // + x 4*4 + y 2*4.
  EXPECT_DOUBLE_EQ(perfbench::layout_bytes(l, 4, 1),
                   8.0 + 24.0 + 8.0 + 30.0 + 24.0);
}

TEST(RequestStream, SameSeedSameStreamOtherSeedOtherStream) {
  perfbench::RequestStream a(64, 1.5, 8, 42);
  perfbench::RequestStream b(64, 1.5, 8, 42);
  perfbench::RequestStream c(64, 1.5, 8, 43);
  std::vector<int> counts(64, 0);
  int differs = 0;
  for (int i = 1; i <= 4000; ++i) {
    const auto da = a.next();
    const auto db = b.next();
    const auto dc = c.next();
    ASSERT_EQ(da.item, db.item);
    ASSERT_EQ(da.spmm, i % 8 == 0);
    ASSERT_LT(da.item, 64u);
    differs += da.item != dc.item;
    counts[da.item] += 1;
  }
  EXPECT_GT(differs, 1000);
  // Rank 0 is the most popular item; Zipf(1.5) gives it ~38% of draws.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  EXPECT_GT(counts[0], 1200);
}

}  // namespace
