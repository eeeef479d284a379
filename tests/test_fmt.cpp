// Tests for the per-bin physical-format subsystem (spmv::fmt): name
// registry round trips, layout builders vs the exact CSR result (including
// empty-covered-row zeroing and the batched variants), builder rejection of
// unsuitable bins, the feature-based estimator's regime decisions, the
// lazy/amortized PlanLayouts cache, and end-to-end execute_plan behaviour
// on format-capable and format-blind backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "binning/binning.hpp"
#include "core/predictor.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "fmt/estimate.hpp"
#include "fmt/format.hpp"
#include "fmt/plan_layouts.hpp"
#include "gen/generators.hpp"
#include "kernels/reference.hpp"
#include "kernels/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;

template <typename T>
std::vector<T> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Build a CSR matrix from per-row (col, val) lists.
CsrMatrix<float> make_csr(index_t cols,
                          const std::vector<std::vector<std::pair<index_t, float>>>& rows) {
  std::vector<offset_t> rp = {0};
  std::vector<index_t> ci;
  std::vector<float> vals;
  for (const auto& row : rows) {
    for (const auto& [c, v] : row) {
      ci.push_back(c);
      vals.push_back(v);
    }
    rp.push_back(static_cast<offset_t>(ci.size()));
  }
  return CsrMatrix<float>(static_cast<index_t>(rows.size()), cols,
                          std::move(rp), std::move(ci), std::move(vals));
}

/// The covered actual row ids of a materialized layout (each payload
/// carries its own copy).
template <typename T>
std::span<const index_t> covered_rows(const fmt::BinLayout<T>& l) {
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      return l.ell.rows;
    case fmt::FormatKind::Coo:
      return l.coo.rows;
    default:
      return l.dcsr.rows;
  }
}

/// Check one bin's layout execution against the exact result: covered rows
/// (including empty ones) must match exactly-computed values, uncovered rows
/// must keep the sentinel.
void expect_layout_exact(const exec::Backend& backend,
                         const CsrMatrix<float>& a,
                         const fmt::BinLayout<float>& layout,
                         std::span<const float> x) {
  constexpr float kSentinel = 12345.0f;
  const auto exact = kernels::spmv_exact(a, x);
  std::vector<float> y(static_cast<std::size_t>(a.rows()), kSentinel);
  backend.run_layout(a, layout, x, std::span<float>(y));
  std::vector<bool> covered(static_cast<std::size_t>(a.rows()), false);
  for (const index_t r : covered_rows(layout))
    covered[static_cast<std::size_t>(r)] = true;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (covered[i]) {
      ASSERT_NEAR(y[i], exact[i], 2e-4 * (std::abs(exact[i]) + 1.0))
          << "row " << i << " kind " << fmt::format_cname(layout.kind);
    } else {
      ASSERT_EQ(y[i], kSentinel)
          << "row " << i << " outside the bin was touched";
    }
  }
}

// --- name registry --------------------------------------------------------

TEST(FormatNames, RoundTripAllKnownNames) {
  ASSERT_EQ(fmt::all_formats().size(),
            static_cast<std::size_t>(fmt::kFormatCount));
  EXPECT_EQ(fmt::all_formats().front(), fmt::FormatKind::Csr);
  for (const fmt::FormatKind k : fmt::all_formats()) {
    fmt::FormatKind back;
    ASSERT_TRUE(fmt::try_format_from_name(fmt::format_name(k), &back));
    EXPECT_EQ(back, k);
    EXPECT_EQ(fmt::format_from_name(fmt::format_name(k)), k);
    EXPECT_STREQ(fmt::format_cname(k), fmt::format_name(k).c_str());
  }
}

TEST(FormatNames, UnknownNamesAreRejectedWithoutClobbering) {
  fmt::FormatKind out = fmt::FormatKind::Dcsr;
  EXPECT_FALSE(fmt::try_format_from_name("hyb", &out));
  EXPECT_EQ(out, fmt::FormatKind::Dcsr);  // untouched on failure
  EXPECT_THROW((void)fmt::format_from_name("hyb"), std::invalid_argument);
  EXPECT_THROW((void)fmt::format_mode_from_name("always"),
               std::invalid_argument);
  EXPECT_EQ(fmt::format_mode_from_name("csr"), fmt::FormatMode::Csr);
  EXPECT_EQ(fmt::format_mode_from_name("auto"), fmt::FormatMode::Auto);
}

// --- layout builders vs exact ---------------------------------------------

TEST(Layouts, EllMatchesExactIncludingEmptyCoveredRows) {
  // Near-uniform short rows with a hole: row 3 is empty but covered, so the
  // ELL launch must zero it, not skip it.
  auto rows = std::vector<std::vector<std::pair<index_t, float>>>(64);
  util::Xoshiro256 rng(5);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r == 3) continue;
    for (index_t k = 0; k < 3 + static_cast<index_t>(r % 2); ++k)
      rows[r].push_back({static_cast<index_t>((r * 7 + k * 11) % 64),
                         static_cast<float>(rng.uniform(0.5, 1.5))});
  }
  const auto a = make_csr(64, rows);
  const auto bins = binning::bin_matrix(a, 8);
  const auto x = random_vector<float>(64, 7);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  for (const int b : bins.occupied_bins()) {
    const auto layout = fmt::build_bin_layout(
        a, std::span<const index_t>(bins.bin(b)), bins.unit(),
        fmt::FormatKind::Ell, b);
    EXPECT_EQ(layout.kind, fmt::FormatKind::Ell);
    EXPECT_EQ(layout.bin_id, b);
    EXPECT_GT(layout.bytes, 0u);
    expect_layout_exact(*backend, a, layout, x);
  }
}

TEST(Layouts, CooMatchesExactOnScatterBins) {
  const auto a = gen::power_law<float>(600, 600, 2.0, 60, 17);
  const auto bins = binning::bin_matrix(a, 32);
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 19);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  for (const int b : bins.occupied_bins()) {
    const auto layout = fmt::build_bin_layout(
        a, std::span<const index_t>(bins.bin(b)), bins.unit(),
        fmt::FormatKind::Coo, b);
    // Chunks never split a row (the no-atomics invariant).
    ASSERT_GE(layout.coo.chunk_ptr.size(), 2u);
    for (std::size_t c = 1; c + 1 < layout.coo.chunk_ptr.size(); ++c) {
      const std::size_t at = layout.coo.chunk_ptr[c];
      ASSERT_NE(layout.coo.entry_row[at], layout.coo.entry_row[at - 1])
          << "chunk boundary " << c << " splits a row";
    }
    expect_layout_exact(*backend, a, layout, x);
  }
}

TEST(Layouts, DcsrMatchesExactOnBandedBins) {
  const auto a = gen::banded<float>(500, 12, 0.8, 23);
  const auto bins = binning::bin_matrix(a, 25);
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 29);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  for (const int b : bins.occupied_bins()) {
    const auto layout = fmt::build_bin_layout(
        a, std::span<const index_t>(bins.bin(b)), bins.unit(),
        fmt::FormatKind::Dcsr, b);
    expect_layout_exact(*backend, a, layout, x);
  }
}

// --- value refresh ----------------------------------------------------------

/// Value refresh shares the layout's structure arrays, writes every value
/// (a recycled array full of stale values and an ELL bin's padding
/// included), matches a fresh build on the new values exactly, and
/// refuses a matrix on another structure block even when its arrays are
/// equal.
TEST(Layouts, RefreshSharesStructureAndChecksItsIdentity) {
  const auto a = gen::banded<float>(3000, 6, 0.6, 41);
  const auto bins = binning::bin_matrix(a, 16);
  auto vals = random_vector<float>(static_cast<std::size_t>(a.nnz()), 43);
  const auto b = a.with_values(std::span<const float>(vals));
  ASSERT_EQ(b.structure_id(), a.structure_id());
  const CsrMatrix<float> other_block(
      a.rows(), a.cols(),
      std::vector<offset_t>(a.row_ptr().begin(), a.row_ptr().end()),
      std::vector<index_t>(a.col_idx().begin(), a.col_idx().end()),
      std::vector<float>(vals));
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 47);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  int refreshed = 0;
  int sliced = 0;
  for (const int bin : bins.occupied_bins()) {
    const auto vrows = std::span<const index_t>(bins.bin(bin));
    for (const auto kind : {fmt::FormatKind::Ell, fmt::FormatKind::Coo,
                            fmt::FormatKind::Dcsr}) {
      fmt::BinLayout<float> old;
      try {
        old = fmt::build_bin_layout(a, vrows, bins.unit(), kind, bin);
      } catch (const std::length_error&) {
        continue;
      }
      const auto rebuilt =
          fmt::build_bin_layout(b, vrows, bins.unit(), kind, bin);
      const util::Buffer<float> stale(fmt::layout_values(old).size(), 99.0f);
      const auto fresh = fmt::refresh_layout_values(b, old, stale);
      EXPECT_EQ(fmt::layout_values(fresh), fmt::layout_values(rebuilt))
          << fmt::format_cname(kind) << " bin " << bin;
      EXPECT_EQ(fmt::layout_structure(fresh), fmt::layout_structure(old));
      EXPECT_EQ(fresh.bytes, old.bytes);
      switch (kind) {
        case fmt::FormatKind::Ell:
          EXPECT_EQ(fresh.ell.col.data(), old.ell.col.data());
          break;
        case fmt::FormatKind::Coo:
          EXPECT_EQ(fresh.coo.entry_col.data(), old.coo.entry_col.data());
          break;
        default:
          EXPECT_EQ(fresh.dcsr.offsets.data(), old.dcsr.offsets.data());
          EXPECT_EQ(fresh.dcsr.slice, old.dcsr.slice);
          sliced += old.dcsr.slice > 1;
          break;
      }
      expect_layout_exact(*backend, b, fresh, x);
      EXPECT_THROW((void)fmt::refresh_layout_values(other_block, old),
                   std::length_error);
      refreshed += 1;
    }
  }
  EXPECT_GT(refreshed, 3);
  EXPECT_GT(sliced, 0);  // a sliced bin's values are stored transposed
}

/// Dcsr keeps each row's entries in CSR order, column-sorted or not: the
/// offsets are relative to the row's smallest column, a refresh copies the
/// new values straight through in CSR order and shares the offsets, and
/// execution stays exact.
TEST(Layouts, DcsrRefreshOfUnsortedRowsKeepsCsrOrder) {
  // Row 0 unsorted, row 1 sorted, row 2 empty, row 3 unsorted.
  const auto a = make_csr(8, {{{5, 1.f}, {1, 2.f}, {3, 3.f}},
                              {{0, 4.f}, {2, 5.f}},
                              {},
                              {{7, 6.f}, {6, 7.f}}});
  const std::vector<index_t> vrows{0, 1, 2, 3};
  const auto old = fmt::build_bin_layout(
      a, std::span<const index_t>(vrows), 1, fmt::FormatKind::Dcsr, 0);
  EXPECT_EQ(std::vector<index_t>(old.dcsr.base_col.data(),
                                 old.dcsr.base_col.data() + 4),
            (std::vector<index_t>{1, 0, 0, 6}));
  EXPECT_EQ(std::vector<std::uint16_t>(old.dcsr.offsets.data(),
                                       old.dcsr.offsets.data() + 7),
            (std::vector<std::uint16_t>{4, 0, 2, 0, 2, 1, 0}));
  const std::vector<float> values{10.f, 20.f, 30.f, 40.f, 50.f, 60.f, 70.f};
  const auto b = a.with_values(values);
  const auto fresh = fmt::refresh_layout_values(b, old);
  EXPECT_EQ(std::vector<float>(fresh.dcsr.vals.begin(), fresh.dcsr.vals.end()),
            values);
  EXPECT_EQ(fresh.dcsr.offsets.data(), old.dcsr.offsets.data());
  // Small integers: every sum is exact, so the kernel must hit it exactly.
  const std::vector<float> x{1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f, 8.f};
  std::vector<float> y(4, -1.f);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  backend->run_layout(b, fresh, std::span<const float>(x),
                      std::span<float>(y));
  EXPECT_EQ(y, (std::vector<float>{10 * 6 + 20 * 2 + 30 * 4, 40 * 1 + 50 * 3,
                                   0, 60 * 8 + 70 * 7}));
}

// --- sliced Dcsr ------------------------------------------------------------

/// Rows of `lo`..`hi` entries (uniformly drawn) starting at the row's own
/// index, with every `empty_every`th row empty and every third row's
/// columns in descending order: uniform enough for a Dcsr bin to slice.
template <typename T>
CsrMatrix<T> uniform_band(index_t rows, index_t lo, index_t hi,
                          index_t empty_every, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<offset_t> rp{0};
  std::vector<index_t> ci;
  std::vector<T> vals;
  for (index_t r = 0; r < rows; ++r) {
    if (r % empty_every != 0) {
      const auto len = lo + static_cast<index_t>(rng.bounded(
                                static_cast<std::uint64_t>(hi - lo + 1)));
      for (index_t k = 0; k < len; ++k) {
        ci.push_back(r % 3 == 0 ? r + len - 1 - k : r + k);
        vals.push_back(static_cast<T>(rng.uniform(-1.0, 1.0)));
      }
    }
    rp.push_back(static_cast<offset_t>(ci.size()));
  }
  return CsrMatrix<T>(rows, rows + hi, std::move(rp), std::move(ci),
                      std::move(vals));
}

/// Virtual rows 0, step, 2*step, ... below n.
std::vector<index_t> every_vrow(index_t n, index_t step) {
  std::vector<index_t> v;
  for (index_t i = 0; i < n; i += step) v.push_back(i);
  return v;
}

fmt::BinLayout<float> dcsr_of_all_rows(const CsrMatrix<float>& a) {
  const auto vrows = every_vrow(a.rows(), 1);
  return fmt::build_bin_layout(a, std::span<const index_t>(vrows), 1,
                               fmt::FormatKind::Dcsr, 0);
}

template <typename X>
bool same_array(const fmt::SharedArray<X>& a, const fmt::SharedArray<X>& b) {
  return a.size() == b.size() && std::equal(a.data(), a.data() + a.size(),
                                            b.data());
}

/// Two builds of one bin are identical array for array.
void expect_same_dcsr(const fmt::BinLayout<float>& a,
                      const fmt::BinLayout<float>& b) {
  EXPECT_EQ(a.dcsr.slice, b.dcsr.slice);
  EXPECT_TRUE(same_array(a.dcsr.rows, b.dcsr.rows));
  EXPECT_TRUE(same_array(a.dcsr.row_ptr, b.dcsr.row_ptr));
  EXPECT_TRUE(same_array(a.dcsr.base_col, b.dcsr.base_col));
  EXPECT_TRUE(same_array(a.dcsr.offsets, b.dcsr.offsets));
  EXPECT_EQ(a.dcsr.vals, b.dcsr.vals);
}

/// DeltaBin's documented storage, re-derived without the builder: the
/// covered rows, the slice decision, the stable descending-length sort
/// inside each window, row_ptr, base columns, then each slice's entries
/// step by step (step k: one entry of each of the slice's rows longer than
/// k, in packed order).
template <typename T>
struct DcsrReference {
  int slice = 1;
  std::vector<index_t> rows;
  std::vector<offset_t> row_ptr{0};
  std::vector<index_t> base_col;
  std::vector<std::uint16_t> offsets;
  std::vector<T> vals;
};

template <typename T>
DcsrReference<T> dcsr_reference(const CsrMatrix<T>& a,
                                const std::vector<index_t>& vrows,
                                index_t unit) {
  DcsrReference<T> ref;
  for (const index_t v : vrows)
    for (index_t r = v * unit; r < std::min(v * unit + unit, a.rows()); ++r)
      ref.rows.push_back(r);
  const auto len = [&](index_t r) { return a.row_nnz(r); };
  std::vector<index_t> sorted = ref.rows;
  for (std::size_t w = 0; w < sorted.size(); w += fmt::kDcsrSortWindow) {
    const auto end = sorted.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          sorted.size(), w + fmt::kDcsrSortWindow));
    std::stable_sort(sorted.begin() + static_cast<std::ptrdiff_t>(w), end,
                     [&](index_t x, index_t y) { return len(x) > len(y); });
  }
  offset_t nnz = 0;
  for (const index_t r : ref.rows) nnz += len(r);
  offset_t lane_steps = 0;  // each slice runs as long as its longest row
  for (std::size_t p = 0; p < sorted.size(); p += fmt::kDcsrSlice)
    lane_steps += fmt::kDcsrSlice * len(sorted[p]);
  if (nnz > 0 && static_cast<double>(nnz) >=
                     fmt::kDcsrMinSliceFill * static_cast<double>(lane_steps)) {
    ref.slice = fmt::kDcsrSlice;
    ref.rows = sorted;
  }
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (const index_t r : ref.rows) {
    ref.row_ptr.push_back(ref.row_ptr.back() + len(r));
    const auto cols = ci.subspan(static_cast<std::size_t>(rp[r]),
                                 static_cast<std::size_t>(len(r)));
    ref.base_col.push_back(cols.empty() ? 0
                                        : *std::min_element(cols.begin(),
                                                            cols.end()));
  }
  const auto h = static_cast<std::size_t>(ref.slice);
  for (std::size_t p0 = 0; p0 < ref.rows.size(); p0 += h) {
    const std::size_t p1 = std::min(ref.rows.size(), p0 + h);
    for (offset_t k = 0;; ++k) {
      bool any = false;
      for (std::size_t p = p0; p < p1; ++p) {
        const index_t r = ref.rows[p];
        if (len(r) <= k) continue;
        any = true;
        const auto j = static_cast<std::size_t>(rp[r] + k);
        ref.offsets.push_back(
            static_cast<std::uint16_t>(ci[j] - ref.base_col[p]));
        ref.vals.push_back(a.vals()[j]);
      }
      if (!any) break;
    }
  }
  return ref;
}

template <typename X, typename Array>
bool same_bits(const Array& got, const std::vector<X>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(X)) == 0;
}

/// Builder and refresh both store DeltaBin's documented bytes, for float and
/// double (the float walk is 16 lanes wide on AVX-512 builds, one lane
/// elsewhere), at slice heights 1 and 16, with a partial last slice, empty
/// rows, rows that end at different steps, and a short last virtual row in
/// the middle of the slot order.
TEST(Layouts, DcsrBytesFollowTheDocumentedOrder) {
  const auto check = [](const auto& a, index_t unit,
                        const std::vector<index_t>& vrows, int slice) {
    using T = typename std::decay_t<decltype(a)>::value_type;
    const std::string where = "unit " + std::to_string(unit) + ", slice " +
                              std::to_string(slice) + ", " +
                              std::to_string(sizeof(T)) + "-byte values";
    const auto ref = dcsr_reference(a, vrows, unit);
    ASSERT_EQ(ref.slice, slice) << where << ": the corpus no longer slices so";
    const auto l = fmt::build_bin_layout(a, std::span<const index_t>(vrows),
                                         unit, fmt::FormatKind::Dcsr, 0);
    EXPECT_EQ(l.dcsr.slice, ref.slice) << where;
    EXPECT_TRUE(same_bits(l.dcsr.rows, ref.rows)) << where;
    EXPECT_TRUE(same_bits(l.dcsr.row_ptr, ref.row_ptr)) << where;
    EXPECT_TRUE(same_bits(l.dcsr.base_col, ref.base_col)) << where;
    EXPECT_TRUE(same_bits(l.dcsr.offsets, ref.offsets)) << where;
    EXPECT_TRUE(same_bits(l.dcsr.vals, ref.vals)) << where;

    std::vector<T> scaled(a.vals().begin(), a.vals().end());
    for (T& v : scaled) v = v * T(3) - T(1);
    const auto b = a.with_values(std::span<const T>(scaled));
    const auto fresh = fmt::refresh_layout_values(b, l);
    EXPECT_TRUE(same_bits(fresh.dcsr.rows, ref.rows)) << where;
    EXPECT_TRUE(same_bits(fresh.dcsr.offsets, ref.offsets)) << where;
    EXPECT_TRUE(same_bits(fresh.dcsr.vals, dcsr_reference(b, vrows, unit).vals))
        << where << ": refresh";
  };
  // 1031 rows: the last slice holds 1031 % 16 = 7 rows. Rows hold 20-28
  // entries, every 37th is empty, every third has descending columns.
  ASSERT_NE(1031 % fmt::kDcsrSlice, 0);
  const auto band_f = uniform_band<float>(1031, 20, 28, 37, 131);
  const auto band_d = uniform_band<double>(1031, 20, 28, 37, 131);
  // At unit 3, virtual row 343 covers rows 1029-1030 only; placing it
  // mid-order shifts every later slot's rows.
  std::vector<index_t> shuffled = every_vrow(344, 1);
  std::rotate(shuffled.begin() + 100, shuffled.end() - 1, shuffled.end());
  ASSERT_EQ(shuffled[100], 343);
  for (const auto& [unit, vrows] :
       {std::pair{index_t{1}, every_vrow(1031, 1)},
        std::pair{index_t{3}, shuffled}}) {
    check(band_f, unit, vrows, fmt::kDcsrSlice);
    check(band_d, unit, vrows, fmt::kDcsrSlice);
  }
  const auto skew_f = gen::power_law<float>(1500, 1500, 2.0, 300, 79);
  const auto skew_d = gen::power_law<double>(1500, 1500, 2.0, 300, 79);
  check(skew_f, 1, every_vrow(1500, 1), 1);
  check(skew_d, 1, every_vrow(1500, 1), 1);
}

/// The builder slices a bin when its slice fill reaches kDcsrMinSliceFill,
/// deterministically, sorting rows only inside their window, and still
/// checks every row's span. (Bins of 2^20+ entries build in parallel:
/// SlicedDcsr.ParallelBuildMatchesCsrSerialAndRefreshes covers that path.)
TEST(SlicedDcsr, UniformBinsSliceAndSkewedOrTinyBinsDoNot) {
  const auto band = gen::banded<float>(4100, 12, 0.7, 71);
  const auto sliced = dcsr_of_all_rows(band);
  EXPECT_EQ(sliced.dcsr.slice, fmt::kDcsrSlice);
  // Every array keeps the length it has in an unsliced bin.
  EXPECT_EQ(sliced.dcsr.rows.size(), 4100u);
  EXPECT_EQ(sliced.dcsr.row_ptr.size(), 4101u);
  EXPECT_EQ(sliced.dcsr.base_col.size(), 4100u);
  EXPECT_EQ(sliced.dcsr.offsets.size(), static_cast<std::size_t>(band.nnz()));
  EXPECT_EQ(sliced.dcsr.vals.size(), static_cast<std::size_t>(band.nnz()));
  // Each window holds its own rows, by descending length.
  for (std::size_t w = 0; w < 4100; w += fmt::kDcsrSortWindow) {
    const std::size_t end =
        std::min<std::size_t>(4100, w + fmt::kDcsrSortWindow);
    std::vector<index_t> ids(sliced.dcsr.rows.data() + w,
                             sliced.dcsr.rows.data() + end);
    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
      ASSERT_GE(band.row_nnz(ids[i]), band.row_nnz(ids[i + 1]));
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(ids[i], static_cast<index_t>(w + i));
  }
  expect_same_dcsr(sliced, dcsr_of_all_rows(band));

  // A power-law bin would leave most lanes idle, and tiny hand-built bins
  // cannot fill a slice: they keep one row at a time, in covered order.
  // (The bins of DcsrRefreshOfUnsortedRowsKeepsCsrOrder and of the
  // benchmark's bytes-model test.)
  EXPECT_EQ(
      dcsr_of_all_rows(gen::power_law<float>(4000, 4000, 2.0, 300, 79))
          .dcsr.slice,
      1);
  const auto unsorted = dcsr_of_all_rows(make_csr(
      8, {{{5, 1.f}, {1, 2.f}, {3, 3.f}}, {{0, 4.f}, {2, 5.f}}, {},
          {{7, 6.f}, {6, 7.f}}}));
  EXPECT_EQ(unsorted.dcsr.slice, 1);
  EXPECT_EQ(unsorted.dcsr.rows[2], 2);
  const CsrMatrix<float> bytes_model(4, 6, {0, 2, 5, 5, 6},
                                     {0, 1, 1, 2, 3, 5},
                                     {1, 2, 3, 4, 5, 6});
  const std::vector<index_t> first_two{0, 1};
  EXPECT_EQ(fmt::build_bin_layout(bytes_model,
                                  std::span<const index_t>(first_two), 1,
                                  fmt::FormatKind::Dcsr, 0)
                .dcsr.slice,
            1);

  // A row spanning over 16 bits fails a sliced bin, as it does any other.
  auto wide = std::vector<std::vector<std::pair<index_t, float>>>(512);
  for (std::size_t r = 0; r < wide.size(); ++r)
    for (index_t k = 0; k < 8; ++k)
      wide[r].push_back({static_cast<index_t>(r) + k, 1.0f});
  wide[300].back().first = 70000;
  EXPECT_THROW((void)dcsr_of_all_rows(make_csr(70001, wide)),
               std::length_error);
}

/// A sliced bin accumulates each row in CSR order on one fma chain, the
/// order of the CSR Serial kernel: equal bits for float (the AVX-512 path
/// where the build targets it) and double (the portable path), on rows
/// that cross slice and window boundaries, with rows % 16 != 0, empty
/// rows and descending columns, over contiguous and strided bins.
TEST(SlicedDcsr, MatchesCsrSerialBitForBit) {
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  const auto check = [&](const auto& a, index_t unit, index_t step) {
    using T = typename std::decay_t<decltype(a)>::value_type;
    const auto vrows = every_vrow((a.rows() + unit - 1) / unit, step);
    const auto layout = fmt::build_bin_layout(
        a, std::span<const index_t>(vrows), unit, fmt::FormatKind::Dcsr, 0);
    ASSERT_EQ(layout.dcsr.slice, fmt::kDcsrSlice);
    const auto x = random_vector<T>(static_cast<std::size_t>(a.cols()), 97);
    const auto m = static_cast<std::size_t>(a.rows());
    std::vector<T> y_layout(m, T(7));
    std::vector<T> y_csr(m, T(7));
    backend->run_layout(a, layout, std::span<const T>(x),
                        std::span<T>(y_layout));
    backend->run_binned(kernels::KernelId::Serial, a, std::span<const T>(x),
                        std::span<T>(y_csr), std::span<const index_t>(vrows),
                        unit);
    EXPECT_EQ(std::memcmp(y_layout.data(), y_csr.data(), m * sizeof(T)), 0);
  };
  ASSERT_NE(1031 % fmt::kDcsrSlice, 0);
  check(uniform_band<float>(1031, 20, 28, 37, 83), 1, 1);
  check(uniform_band<double>(1031, 20, 28, 37, 83), 1, 1);
  check(uniform_band<float>(1031, 20, 28, 37, 89), 3, 2);
  check(uniform_band<double>(1031, 20, 28, 37, 89), 3, 2);
}

/// Bins of 2^20 entries or more (kParallelDcsrNnz) build and refresh on
/// every thread, and their arrays are never value-initialised: the
/// parallel slice walk is their first write. A ~1.2M-entry bin built that
/// way runs bit-identical to CSR Serial, and a refresh gives the bytes of a
/// fresh build both into a never-written array and into a recycled one
/// that holds NaNs.
TEST(SlicedDcsr, ParallelBuildMatchesCsrSerialAndRefreshes) {
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  const auto check = [&](const auto& a) {
    using T = typename std::decay_t<decltype(a)>::value_type;
    ASSERT_GE(a.nnz(), 1200000);
    ASSERT_GE(a.nnz(), offset_t{1} << 20);  // fmt's parallel-build bound
    const auto vrows = every_vrow(a.rows(), 1);
    const auto span = std::span<const index_t>(vrows);
    const auto layout =
        fmt::build_bin_layout(a, span, 1, fmt::FormatKind::Dcsr, 0);
    ASSERT_EQ(layout.dcsr.slice, fmt::kDcsrSlice);
    const auto x = random_vector<T>(static_cast<std::size_t>(a.cols()), 97);
    const auto m = static_cast<std::size_t>(a.rows());
    std::vector<T> y_layout(m, T(7));
    std::vector<T> y_csr(m, T(7));
    backend->run_layout(a, layout, std::span<const T>(x),
                        std::span<T>(y_layout));
    backend->run_binned(kernels::KernelId::Serial, a, std::span<const T>(x),
                        std::span<T>(y_csr), span, 1);
    EXPECT_EQ(std::memcmp(y_layout.data(), y_csr.data(), m * sizeof(T)), 0);

    const auto vals =
        random_vector<T>(static_cast<std::size_t>(a.nnz()), 101);
    const auto b = a.with_values(std::span<const T>(vals));
    const auto rebuilt =
        fmt::build_bin_layout(b, span, 1, fmt::FormatKind::Dcsr, 0);
    const std::size_t bytes = rebuilt.dcsr.vals.size() * sizeof(T);
    const auto fresh = fmt::refresh_layout_values(b, layout);
    ASSERT_EQ(fresh.dcsr.vals.size(), rebuilt.dcsr.vals.size());
    EXPECT_EQ(std::memcmp(fresh.dcsr.vals.data(), rebuilt.dcsr.vals.data(),
                          bytes),
              0);
    util::Buffer<T> recycled(rebuilt.dcsr.vals.size(),
                             std::numeric_limits<T>::quiet_NaN());
    const auto reused =
        fmt::refresh_layout_values(b, layout, std::move(recycled));
    EXPECT_EQ(std::memcmp(reused.dcsr.vals.data(), rebuilt.dcsr.vals.data(),
                          bytes),
              0);
  };
  check(uniform_band<float>(50000, 20, 30, 37, 103));
  check(uniform_band<double>(50000, 20, 30, 37, 107));
}

/// run_spmm promises bit-identity with per-column runs, and layout bins
/// keep it: every layout's batched launch equals its single-vector launch
/// bit for bit. The banded input's Dcsr rows (~20-40 entries) run the
/// lane-split main loop and its tail; width 33 crosses kMaxNativeBatch.
TEST(Layouts, BatchedExecutionMatchesSingleVector) {
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  int sliced = 0;  // sliced Dcsr layouts checked
  const auto check = [&](const CsrMatrix<float>& a, index_t unit,
                         std::initializer_list<fmt::FormatKind> kinds,
                         int batch) {
    const auto bins = binning::bin_matrix(a, unit);
    const auto n = static_cast<std::size_t>(a.cols());
    const auto m = static_cast<std::size_t>(a.rows());
    const auto x = random_vector<float>(n * static_cast<std::size_t>(batch),
                                        37);
    for (const fmt::FormatKind kind : kinds) {
      for (const int b : bins.occupied_bins()) {
        const auto layout = fmt::build_bin_layout(
            a, std::span<const index_t>(bins.bin(b)), bins.unit(), kind, b);
        sliced += kind == fmt::FormatKind::Dcsr && layout.dcsr.slice > 1;
        std::vector<float> y_batch(m * static_cast<std::size_t>(batch),
                                   -1.0f);
        backend->run_layout_batch(a, layout, std::span<const float>(x),
                                  std::span<float>(y_batch), batch);
        for (int col = 0; col < batch; ++col) {
          std::vector<float> y(m, -1.0f);
          backend->run_layout(
              a, layout,
              std::span<const float>(x).subspan(
                  static_cast<std::size_t>(col) * n, n),
              std::span<float>(y));
          for (const index_t r : covered_rows(layout)) {
            const auto i = static_cast<std::size_t>(r);
            ASSERT_EQ(y_batch[static_cast<std::size_t>(col) * m + i], y[i])
                << "col " << col << " row " << i << " kind "
                << fmt::format_cname(kind) << " batch " << batch;
          }
        }
      }
    }
  };
  const auto short_rows = gen::fixed_degree<float>(400, 400, 5, 31);
  const auto long_rows = gen::banded<float>(600, 24, 0.6, 61);
  offset_t longest = 0;
  for (index_t r = 0; r < long_rows.rows(); ++r)
    longest = std::max(longest, long_rows.row_nnz(r));
  ASSERT_GE(longest, 2 * 8 + 1);  // two full lane chunks and a tail
  const auto banded_rows = gen::banded<float>(250, 12, 0.8, 67);
  for (const int batch : {3, 33}) {
    check(short_rows, 16,
          {fmt::FormatKind::Ell, fmt::FormatKind::Coo, fmt::FormatKind::Dcsr},
          batch);
    check(long_rows, 25, {fmt::FormatKind::Dcsr}, batch);
    // Uniform banded rows in one bin: a sliced bin, whose 4-column passes
    // and per-column remainder must agree per column too.
    check(banded_rows, banded_rows.rows(), {fmt::FormatKind::Dcsr}, batch);
  }
  EXPECT_GT(sliced, 0);
}

TEST(Layouts, BuildersRejectUnsuitableBins) {
  const auto bins_of = [](const CsrMatrix<float>& a) {
    return binning::bin_matrix(a, a.rows());  // one bin covering everything
  };
  // CSR is never materialized.
  const auto uniform = gen::fixed_degree<float>(64, 64, 3, 41);
  const auto ubins = bins_of(uniform);
  const int ub = ubins.occupied_bins().front();
  EXPECT_THROW((void)fmt::build_bin_layout(
                   uniform, std::span<const index_t>(ubins.bin(ub)),
                   ubins.unit(), fmt::FormatKind::Csr, ub),
               std::invalid_argument);

  // ELL expansion blow-up: one 200-long row amid 199 single-entry rows.
  auto skew_rows = std::vector<std::vector<std::pair<index_t, float>>>(200);
  for (index_t c = 0; c < 200; ++c) skew_rows[0].push_back({c, 1.0f});
  for (std::size_t r = 1; r < 200; ++r)
    skew_rows[r].push_back({static_cast<index_t>(r), 1.0f});
  const auto skew = make_csr(200, skew_rows);
  const auto sbins = bins_of(skew);
  const int sb = sbins.occupied_bins().front();
  EXPECT_THROW((void)fmt::build_bin_layout(
                   skew, std::span<const index_t>(sbins.bin(sb)), sbins.unit(),
                   fmt::FormatKind::Ell, sb),
               std::length_error);

  // Dcsr span overflow: a row spanning more than 16 bits of columns.
  const auto dcsr_of = [&](const CsrMatrix<float>& a) {
    const auto bins = bins_of(a);
    const int b = bins.occupied_bins().front();
    return fmt::build_bin_layout(a, std::span<const index_t>(bins.bin(b)),
                                 bins.unit(), fmt::FormatKind::Dcsr, b);
  };
  const auto wide = make_csr(
      70000, {{{0, 1.0f}, {69999, 2.0f}}, {{1, 1.0f}, {2, 1.0f}}});
  EXPECT_THROW((void)dcsr_of(wide), std::length_error);
  // Every gap of {0, 40000, 65536} fits in 16 bits, but the offset of the
  // last entry from the row's base does not.
  const auto gaps_fit = make_csr(
      65537, {{{0, 1.0f}, {40000, 2.0f}, {65536, 3.0f}}});
  EXPECT_THROW((void)dcsr_of(gaps_fit), std::length_error);

  // A span of exactly kDcsrMaxSpan is the widest row that builds, and runs
  // exactly (small integers, so every sum is exact).
  const index_t top = fmt::kDcsrMaxSpan;
  const auto edge = make_csr(
      top + 1,
      {{{top, 3.0f}, {0, 1.0f}, {7, 2.0f}}, {{5, 1.0f}, {top, 4.0f}}});
  const auto layout = dcsr_of(edge);
  EXPECT_EQ(layout.dcsr.offsets[0], std::uint16_t{65535});
  std::vector<float> x(static_cast<std::size_t>(top) + 1, 0.0f);
  x[0] = 5.0f;
  x[5] = 6.0f;
  x[7] = 7.0f;
  x[static_cast<std::size_t>(top)] = 8.0f;
  std::vector<float> y(2, -1.0f);
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  backend->run_layout(edge, layout, std::span<const float>(x),
                      std::span<float>(y));
  EXPECT_EQ(y, (std::vector<float>{3 * 8 + 1 * 5 + 2 * 7, 1 * 6 + 4 * 8}));
}

TEST(Layouts, FormatBlindBackendThrowsLogicError) {
  const auto a = gen::fixed_degree<float>(64, 64, 3, 43);
  const auto bins = binning::bin_matrix(a, 8);
  const auto layout = fmt::build_bin_layout(
      a, std::span<const index_t>(bins.bin(bins.occupied_bins().front())),
      bins.unit(), fmt::FormatKind::Ell, bins.occupied_bins().front());
  const auto clsim_backend = exec::shared_backend(exec::BackendKind::Clsim);
  ASSERT_FALSE(clsim_backend->supports_formats());
  const auto x = random_vector<float>(64, 47);
  std::vector<float> y(64);
  EXPECT_THROW(
      clsim_backend->run_layout(a, layout, x, std::span<float>(y)),
      std::logic_error);
}

// --- estimator ------------------------------------------------------------

TEST(Estimator, PicksTheExpectedFormatPerRegime) {
  // Near-uniform short rows -> ELL.
  const auto uniform = gen::fixed_degree<float>(512, 512, 4, 53);
  const auto ubins = binning::bin_matrix(uniform, 512);
  const auto uf = fmt::compute_bin_features(
      uniform, std::span<const index_t>(ubins.bin(ubins.occupied_bins().front())),
      ubins.unit());
  EXPECT_LE(uf.padding_ratio, 1.25);
  EXPECT_EQ(fmt::estimate_bin_format(uf), fmt::FormatKind::Ell);

  // Long banded rows (too wide for ELL, spans fit 16 bits) -> Dcsr.
  auto banded_rows = std::vector<std::vector<std::pair<index_t, float>>>(64);
  util::Xoshiro256 rng(59);
  for (std::size_t r = 0; r < banded_rows.size(); ++r) {
    const auto base = static_cast<index_t>(r * 4);
    const index_t len = 40 + static_cast<index_t>(rng.bounded(60));  // >64 max
    for (index_t k = 0; k < len; ++k)
      banded_rows[r].push_back({base + k, 1.0f});
  }
  const auto banded = make_csr(64 * 4 + 100, banded_rows);
  const auto bbins = binning::bin_matrix(banded, banded.rows());
  const auto bf = fmt::compute_bin_features(
      banded, std::span<const index_t>(bbins.bin(bbins.occupied_bins().front())),
      bbins.unit());
  EXPECT_GT(bf.max_len, 64);
  EXPECT_EQ(fmt::estimate_bin_format(bf), fmt::FormatKind::Dcsr);

  // Mostly-empty scatter -> COO.
  auto scatter_rows = std::vector<std::vector<std::pair<index_t, float>>>(100);
  scatter_rows[0] = {{0, 1.0f}, {90, 2.0f}, {17, 1.5f}, {55, 1.0f},
                     {3, 1.0f}, {70, 2.0f}, {44, 1.5f}, {61, 1.0f},
                     {8, 1.0f}, {29, 2.0f}};
  scatter_rows[50] = {{7, 3.0f}};
  const auto scatter = make_csr(100, scatter_rows);
  const auto sbins = binning::bin_matrix(scatter, scatter.rows());
  const auto sf = fmt::compute_bin_features(
      scatter, std::span<const index_t>(sbins.bin(sbins.occupied_bins().front())),
      sbins.unit());
  EXPECT_GT(sf.empty_rows * 2, sf.rows);
  EXPECT_EQ(fmt::estimate_bin_format(sf), fmt::FormatKind::Coo);

  // An empty bin stays CSR (nothing to transform).
  const fmt::BinFeatures empty;
  EXPECT_EQ(fmt::estimate_bin_format(empty), fmt::FormatKind::Csr);
}

// --- PlanLayouts (lazy amortized cache) -----------------------------------

TEST(PlanLayoutsCache, DefersUntilReuseAmortizesThenBuildsOnce) {
  const auto a = gen::fixed_degree<float>(300, 300, 4, 67);
  const auto bins = binning::bin_matrix(a, 30);
  const int b = bins.occupied_bins().front();
  fmt::PlanLayouts<float> layouts({.min_reuse = 3});

  // Below the threshold: acquire defers (returns null), counting deferrals.
  EXPECT_EQ(layouts.note_run(a), 1u);
  EXPECT_EQ(layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                            bins.unit(), fmt::FormatKind::Ell, b),
            nullptr);
  EXPECT_EQ(layouts.note_run(a), 2u);
  EXPECT_EQ(layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                            bins.unit(), fmt::FormatKind::Ell, b),
            nullptr);
  EXPECT_EQ(layouts.stats().builds, 0u);
  EXPECT_EQ(layouts.stats().deferrals, 2u);

  // At the threshold: built exactly once, then served from cache.
  EXPECT_EQ(layouts.note_run(a), 3u);
  const auto first = layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                                     bins.unit(), fmt::FormatKind::Ell, b);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->kind, fmt::FormatKind::Ell);
  const auto second = layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                                      bins.unit(), fmt::FormatKind::Ell, b);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(layouts.stats().builds, 1u);
  EXPECT_GE(layouts.stats().hits, 1u);

  // CSR never materializes, eager policy builds on first touch.
  EXPECT_EQ(layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                            bins.unit(), fmt::FormatKind::Csr, b),
            nullptr);
  fmt::PlanLayouts<float> eager({.min_reuse = 0});
  EXPECT_NE(eager.acquire(a, std::span<const index_t>(bins.bin(b)),
                          bins.unit(), fmt::FormatKind::Coo, b),
            nullptr);
}

TEST(PlanLayoutsCache, FailedBuildsAreNegativelyCached) {
  // One long row amid short ones: the ELL builder rejects the bin; the
  // cache must attempt the build exactly once and remember the failure.
  auto rows = std::vector<std::vector<std::pair<index_t, float>>>(200);
  for (index_t c = 0; c < 200; ++c) rows[0].push_back({c, 1.0f});
  for (std::size_t r = 1; r < 200; ++r)
    rows[r].push_back({static_cast<index_t>(r), 1.0f});
  const auto a = make_csr(200, rows);
  const auto bins = binning::bin_matrix(a, a.rows());
  const int b = bins.occupied_bins().front();
  fmt::PlanLayouts<float> layouts({.min_reuse = 0});
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(layouts.acquire(a, std::span<const index_t>(bins.bin(b)),
                              bins.unit(), fmt::FormatKind::Ell, b),
              nullptr);
  }
  EXPECT_EQ(layouts.stats().build_failures, 1u);
  EXPECT_EQ(layouts.stats().builds, 0u);
}

TEST(PlanLayoutsCache, DistinctInstancesNeverAliasEvenWithEqualStructure) {
  // Regression: slots used to key by the values-buffer address, so a freed
  // matrix's allocation handed to a later same-shape matrix aliased the
  // dead instance's slot and silently served a layout embedding the OLD
  // values. Slots now key by CsrMatrix::instance_id(), which is never
  // recycled, so distinct instances — same structure, possibly the same
  // reused buffer address — are provably disjoint.
  const auto a = gen::fixed_degree<float>(300, 300, 4, 67);
  auto b = a;  // identical structure, distinct instance; diverge the values
  for (auto& v : b.vals_mutable()) v *= 2.0f;
  const auto bins = binning::bin_matrix(a, 30);
  const int bin = bins.occupied_bins().front();
  const auto vspan = std::span<const index_t>(bins.bin(bin));

  fmt::PlanLayouts<float> layouts({.min_reuse = 2});
  EXPECT_EQ(layouts.note_run(a), 1u);
  EXPECT_EQ(layouts.note_run(a), 2u);
  const auto la =
      layouts.acquire(a, vspan, bins.unit(), fmt::FormatKind::Ell, bin);
  ASSERT_NE(la, nullptr);

  // b must not inherit a's reuse count, and before it amortizes acquire()
  // must defer — never hand back a's layout.
  EXPECT_EQ(layouts.note_run(b), 1u);
  EXPECT_EQ(layouts.acquire(b, vspan, bins.unit(), fmt::FormatKind::Ell, bin),
            nullptr);
  EXPECT_EQ(layouts.note_run(b), 2u);
  const auto lb =
      layouts.acquire(b, vspan, bins.unit(), fmt::FormatKind::Ell, bin);
  ASSERT_NE(lb, nullptr);
  EXPECT_NE(lb.get(), la.get());
  // The second build embeds b's values, not a's.
  ASSERT_EQ(la->ell.val.size(), lb->ell.val.size());
  for (std::size_t i = 0; i < la->ell.val.size(); ++i)
    ASSERT_FLOAT_EQ(lb->ell.val[i], 2.0f * la->ell.val[i]) << "entry " << i;
  EXPECT_EQ(layouts.stats().builds, 2u);

  // In-place mutation re-issues the instance id, so the now-stale layout
  // is unreachable through the mutated matrix too (fresh slot, deferred).
  for (auto& v : b.vals_mutable()) v += 1.0f;
  EXPECT_EQ(layouts.acquire(b, vspan, bins.unit(), fmt::FormatKind::Ell, bin),
            nullptr);
}

// --- end-to-end through the tuner -----------------------------------------

TEST(AutoFormats, NativeAutoPlanStampsFormatsAndStaysExact) {
  const auto a = gen::fixed_degree<double>(2000, 2000, 6, 71);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a)
                        .predictor(pred)
                        .backend(exec::BackendKind::Native)
                        .formats(fmt::FormatMode::Auto)
                        .build();
  // Near-uniform short rows: the estimator stamps ELL somewhere.
  EXPECT_TRUE(spmv.plan().uses_formats());
  ASSERT_NE(spmv.layouts(), nullptr);

  const auto x =
      random_vector<double>(static_cast<std::size_t>(a.cols()), 73);
  const auto exact = kernels::spmv_exact(a, std::span<const double>(x));
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  // Across the amortization threshold: early runs execute from CSR, later
  // ones through materialized layouts — all must agree with exact.
  for (int run = 0; run < 6; ++run) {
    spmv.run(std::span<const double>(x), std::span<double>(y));
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0))
          << "run " << run << " row " << i;
  }
  EXPECT_GE(spmv.layouts()->stats().builds, 1u);
  EXPECT_GE(spmv.layouts()->stats().deferrals, 1u);
}

TEST(AutoFormats, ClsimModeNeverStampsFormats) {
  // The clsim backend is format-blind; Auto mode on it must leave every
  // bin CSR (so the differential suite's reference side stays pure CSR).
  const auto a = gen::fixed_degree<float>(1000, 1000, 5, 79);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a)
                        .predictor(pred)
                        .formats(fmt::FormatMode::Auto)
                        .build();
  EXPECT_FALSE(spmv.plan().uses_formats());
  EXPECT_EQ(spmv.layouts(), nullptr);
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 83);
  const auto exact = kernels::spmv_exact(a, std::span<const float>(x));
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(std::span<const float>(x), std::span<float>(y));
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], exact[i], 2e-4 * (std::abs(exact[i]) + 1.0));
}

TEST(AutoFormats, ForcedFormatsOnClsimPlanFallBackToCsr) {
  // A plan hand-stamped with non-CSR formats but executed on a
  // format-blind backend: execute_plan must take the CSR path (formats are
  // an acceleration, never a requirement) and stay exact.
  const auto a = gen::fixed_degree<float>(800, 800, 4, 89);
  core::HeuristicPredictor pred;
  auto spmv = core::Tuner(a).predictor(pred).build();
  core::Plan plan = spmv.plan();
  for (auto& bp : plan.bin_kernels) bp.format = fmt::FormatKind::Ell;
  fmt::PlanLayouts<float> layouts({.min_reuse = 0});
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 97);
  const auto exact = kernels::spmv_exact(a, std::span<const float>(x));
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  const auto backend = exec::shared_backend(exec::BackendKind::Clsim);
  core::execute_plan(*backend, a, std::span<const float>(x),
                     std::span<float>(y), spmv.bins(), plan, &layouts);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], exact[i], 2e-4 * (std::abs(exact[i]) + 1.0));
  // The format-blind path never touched the layout cache.
  EXPECT_EQ(layouts.stats().builds, 0u);
}

TEST(AutoFormats, BatchedExecutePlanWithLayoutsMatchesExact) {
  const auto a = gen::fixed_degree<float>(900, 900, 5, 101);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a)
                        .predictor(pred)
                        .backend(exec::BackendKind::Native)
                        .formats(fmt::FormatMode::Auto)
                        .format_policy({.min_reuse = 0})
                        .build();
  ASSERT_TRUE(spmv.plan().uses_formats());
  constexpr int kBatch = 4;
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const auto x = random_vector<float>(n * kBatch, 103);
  std::vector<float> y(m * kBatch);
  spmv.run_spmm(std::span<const float>(x), std::span<float>(y), kBatch);
  for (int col = 0; col < kBatch; ++col) {
    const auto xc =
        std::span<const float>(x).subspan(static_cast<std::size_t>(col) * n, n);
    const auto exact = kernels::spmv_exact(a, xc);
    std::vector<float> single(m);
    spmv.run(xc, std::span<float>(single));
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(y[static_cast<std::size_t>(col) * m + i], single[i])
          << "col " << col << " row " << i << " not bit-identical to run()";
      ASSERT_NEAR(single[i], exact[i], 2e-4 * (std::abs(exact[i]) + 1.0))
          << "col " << col << " row " << i;
    }
  }
  EXPECT_GE(spmv.layouts()->stats().builds, 1u);
}

}  // namespace
