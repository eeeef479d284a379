// Correctness tests for the nine-kernel pool: every kernel must compute
// exactly the same y = A*x as Algorithm 1, over matrices spanning all row-
// length regimes, in full-matrix and per-bin execution, at several
// granularities.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "binning/binning.hpp"
#include "exec/backend.hpp"
#include "gen/generators.hpp"
#include "kernels/reference.hpp"
#include "kernels/registry.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;
using kernels::KernelId;

const exec::Backend& clsim() {
  return *exec::shared_backend(exec::BackendKind::Clsim);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Named test matrices spanning the regimes the kernels specialize for.
CsrMatrix<double> make_matrix(const std::string& name) {
  if (name == "diag") return gen::diagonal<double>(700);
  if (name == "banded") return gen::banded<double>(500, 4, 0.5, 1);
  if (name == "short_rows") return gen::fixed_degree<double>(900, 300, 3, 2);
  if (name == "power_law") return gen::power_law<double>(800, 800, 2.0, 400, 3);
  if (name == "long_rows") return gen::cfd_longrow<double>(150, 200, 4);
  if (name == "mixed")
    return gen::mixed_regime<double>(600, 600, 0.4, 0.4, 2, 30, 300, 16, 5);
  if (name == "empty_rows") {
    // Rows 0,2,4,... empty; odd rows short.
    CooMatrix<double> coo(101, 50);
    for (index_t r = 1; r < 101; r += 2) coo.add(r, r % 50, 2.0);
    return coo_to_csr(std::move(coo));
  }
  if (name == "single_long_row") {
    CooMatrix<double> coo(3, 5000);
    for (index_t c = 0; c < 5000; ++c) coo.add(1, c, 0.25);
    coo.add(0, 0, 1.0);
    return coo_to_csr(std::move(coo));
  }
  if (name == "tiny") {
    CooMatrix<double> coo(1, 1);
    coo.add(0, 0, 3.0);
    return coo_to_csr(std::move(coo));
  }
  throw std::invalid_argument("unknown test matrix " + name);
}

void expect_matches_exact(const CsrMatrix<double>& a,
                          std::span<const double> x,
                          std::span<const double> y) {
  const auto exact = kernels::spmv_exact(a, x);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale = std::abs(exact[i]) + 1.0;
    ASSERT_NEAR(y[i], exact[i], 1e-9 * scale) << "row " << i;
  }
}

// ---- reference kernels ---------------------------------------------------

TEST(Reference, SequentialMatchesExact) {
  const auto a = make_matrix("mixed");
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 11);
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  kernels::spmv_sequential(a, std::span<const double>(x), std::span<double>(y));
  expect_matches_exact(a, x, y);
}

TEST(Reference, OmpMatchesSequential) {
  const auto a = make_matrix("power_law");
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 12);
  std::vector<double> y_seq(static_cast<std::size_t>(a.rows()));
  std::vector<double> y_omp(static_cast<std::size_t>(a.rows()));
  kernels::spmv_sequential(a, std::span<const double>(x), std::span<double>(y_seq));
  kernels::spmv_omp_rows(a, std::span<const double>(x), std::span<double>(y_omp));
  for (std::size_t i = 0; i < y_seq.size(); ++i)
    ASSERT_DOUBLE_EQ(y_omp[i], y_seq[i]);
}

TEST(Reference, ShapeChecks) {
  const auto a = make_matrix("tiny");
  std::vector<double> bad_x(5), y(1), x(1), bad_y(9);
  EXPECT_THROW(kernels::spmv_sequential(a, std::span<const double>(bad_x), std::span<double>(y)),
               std::invalid_argument);
  EXPECT_THROW(kernels::spmv_sequential(a, std::span<const double>(x), std::span<double>(bad_y)),
               std::invalid_argument);
}

// ---- registry metadata ----------------------------------------------------

TEST(Registry, NinePoolKernels) {
  EXPECT_EQ(kernels::all_kernels().size(), 9u);
  EXPECT_EQ(kernels::kKernelCount, 9);
}

TEST(Registry, NamesRoundTrip) {
  for (KernelId id : kernels::all_kernels()) {
    EXPECT_EQ(kernels::kernel_from_name(kernels::kernel_name(id)), id);
  }
  EXPECT_THROW(kernels::kernel_from_name("bogus"), std::invalid_argument);
}

TEST(Registry, LanesPerRowAscending) {
  EXPECT_EQ(kernels::lanes_per_row(KernelId::Serial), 1);
  EXPECT_EQ(kernels::lanes_per_row(KernelId::Sub2), 2);
  EXPECT_EQ(kernels::lanes_per_row(KernelId::Sub128), 128);
  EXPECT_EQ(kernels::lanes_per_row(KernelId::Vector), 256);
  int prev = 0;
  for (KernelId id : kernels::all_kernels()) {
    EXPECT_GT(kernels::lanes_per_row(id), prev);
    prev = kernels::lanes_per_row(id);
  }
}

// ---- full-matrix correctness: kernel x matrix ------------------------------

using KernelMatrixCase = std::tuple<KernelId, std::string>;

class KernelCorrectness
    : public ::testing::TestWithParam<KernelMatrixCase> {};

TEST_P(KernelCorrectness, FullMatrixMatchesReference) {
  const auto [id, matrix_name] = GetParam();
  const auto a = make_matrix(matrix_name);
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 21);
  std::vector<double> y(static_cast<std::size_t>(a.rows()),
                        std::nan(""));
  clsim().run_full(id, a, std::span<const double>(x), std::span<double>(y));
  expect_matches_exact(a, x, y);
}

INSTANTIATE_TEST_SUITE_P(
    PoolByMatrix, KernelCorrectness,
    ::testing::Combine(
        ::testing::ValuesIn(kernels::all_kernels()),
        ::testing::Values("diag", "banded", "short_rows", "power_law",
                          "long_rows", "mixed", "empty_rows",
                          "single_long_row", "tiny")),
    [](const ::testing::TestParamInfo<KernelMatrixCase>& info) {
      return kernels::kernel_name(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

// ---- binned execution: composing per-bin launches covers the matrix -------

class BinnedKernelCorrectness
    : public ::testing::TestWithParam<std::tuple<KernelId, index_t>> {};

TEST_P(BinnedKernelCorrectness, PerBinLaunchesComposeFullSpmv) {
  const auto [id, unit] = GetParam();
  const auto a = make_matrix("mixed");
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 31);
  const auto bins = binning::bin_matrix(a, unit);

  std::vector<double> y(static_cast<std::size_t>(a.rows()), std::nan(""));
  for (int b : bins.occupied_bins()) {
    clsim().run_binned(id, a, std::span<const double>(x),
                       std::span<double>(y), bins.bin(b), unit);
  }
  expect_matches_exact(a, x, y);
}

INSTANTIATE_TEST_SUITE_P(
    PoolByUnit, BinnedKernelCorrectness,
    ::testing::Combine(::testing::ValuesIn(kernels::all_kernels()),
                       ::testing::Values(index_t{1}, index_t{10},
                                         index_t{100}, index_t{100000})),
    [](const ::testing::TestParamInfo<std::tuple<KernelId, index_t>>& info) {
      return kernels::kernel_name(std::get<0>(info.param)) + "_U" +
             std::to_string(std::get<1>(info.param));
    });

// ---- partial execution: rows outside the bin stay untouched ---------------

TEST(BinnedExecution, OnlyCoveredRowsWritten) {
  const auto a = make_matrix("mixed");
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 41);
  const auto bins = binning::bin_matrix(a, 10);
  const auto occupied = bins.occupied_bins();
  ASSERT_GE(occupied.size(), 2u);

  const double sentinel = -777.0;
  std::vector<double> y(static_cast<std::size_t>(a.rows()), sentinel);
  // Run only the first occupied bin.
  clsim().run_binned(KernelId::Sub8, a, std::span<const double>(x),
                     std::span<double>(y), bins.bin(occupied[0]), 10);

  // Rows of that bin are written; rows of other bins still hold sentinel.
  std::vector<bool> covered(static_cast<std::size_t>(a.rows()), false);
  for (index_t v : bins.bin(occupied[0])) {
    for (index_t r = v * 10; r < std::min<index_t>(v * 10 + 10, a.rows()); ++r)
      covered[static_cast<std::size_t>(r)] = true;
  }
  const auto exact = kernels::spmv_exact(a, std::span<const double>(x));
  for (index_t r = 0; r < a.rows(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (covered[i]) {
      EXPECT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0));
    } else {
      EXPECT_EQ(y[i], sentinel) << "row " << r << " touched unexpectedly";
    }
  }
}

TEST(BinnedExecution, EmptyBinIsNoOp) {
  const auto a = make_matrix("tiny");
  std::vector<double> x(1, 1.0), y(1, -5.0);
  const std::vector<index_t> empty;
  clsim().run_binned(KernelId::Vector, a, std::span<const double>(x),
                     std::span<double>(y), empty, 10);
  EXPECT_EQ(y[0], -5.0);
}

// ---- float path ------------------------------------------------------------

TEST(FloatKernels, AllKernelsMatchDoubleReference) {
  const auto ad = make_matrix("mixed");
  const auto af = convert_values<float>(ad);
  const auto xd = random_vector(static_cast<std::size_t>(ad.cols()), 51);
  std::vector<float> xf(xd.begin(), xd.end());
  const auto exact = kernels::spmv_exact(ad, std::span<const double>(xd));

  for (KernelId id : kernels::all_kernels()) {
    std::vector<float> y(static_cast<std::size_t>(af.rows()));
    clsim().run_full(id, af, std::span<const float>(xf), std::span<float>(y));
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double scale = std::abs(exact[i]) + 1.0;
      ASSERT_NEAR(static_cast<double>(y[i]), exact[i], 2e-4 * scale)
          << kernels::kernel_name(id) << " row " << i;
    }
  }
}

}  // namespace
