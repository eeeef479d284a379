// Tests for the core framework: candidate pools, plans, the exhaustive
// oracle, predictors, and AutoSpmv execution correctness.
#include <gtest/gtest.h>

#include <cmath>

#include "core/auto_spmv.hpp"
#include "core/candidates.hpp"
#include "core/exhaustive.hpp"
#include "core/plan.hpp"
#include "core/predictor.hpp"
#include "core/tuner.hpp"
#include "gen/generators.hpp"
#include "kernels/reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;
using namespace spmv::core;

const exec::Backend& clsim_backend() {
  return *exec::shared_backend(exec::BackendKind::Clsim);
}

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void expect_matches_exact(const CsrMatrix<float>& a,
                          std::span<const float> x,
                          std::span<const float> y) {
  const auto exact = kernels::spmv_exact(a, x);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i],
                2e-4 * (std::abs(exact[i]) + 1.0))
        << "row " << i;
  }
}

TEST(Candidates, DefaultPoolsMatchPaper) {
  const auto pools = default_pools();
  EXPECT_EQ(pools.units.size(), 16u);
  EXPECT_EQ(pools.kernel_pool.size(), 9u);
  EXPECT_FALSE(pools.include_single_bin);
}

TEST(Candidates, IndexLookups) {
  const auto pools = default_pools();
  EXPECT_EQ(pools.unit_index(10), 0);
  EXPECT_EQ(pools.unit_index(1000000), 15);
  EXPECT_EQ(pools.unit_index(37), -1);
  EXPECT_EQ(pools.kernel_index(kernels::KernelId::Serial), 0);
  EXPECT_EQ(pools.kernel_index(kernels::KernelId::Vector), 8);
}

TEST(Candidates, ClassNames) {
  auto pools = small_pools();
  pools.include_single_bin = true;
  const auto unit_names = pools.unit_class_names();
  ASSERT_EQ(unit_names.size(), pools.units.size() + 1);
  EXPECT_EQ(unit_names.front(), "U10");
  EXPECT_EQ(unit_names.back(), "single-bin");
  const auto kernel_names = pools.kernel_class_names();
  EXPECT_EQ(kernel_names.front(), "serial");
}

TEST(Plan, KernelForAndToString) {
  Plan plan;
  plan.unit = 100;
  plan.bin_kernels = {{0, kernels::KernelId::Serial},
                      {7, kernels::KernelId::Vector}};
  EXPECT_EQ(plan.kernel_for(7), kernels::KernelId::Vector);
  EXPECT_THROW((void)plan.kernel_for(3), std::out_of_range);
  const auto text = plan.to_string();
  EXPECT_NE(text.find("U=100"), std::string::npos);
  EXPECT_NE(text.find("bin7:vector"), std::string::npos);
}

TEST(ExecutePlan, UnitMismatchThrows) {
  const auto a = gen::diagonal<float>(100);
  const auto x = random_vector(100, 1);
  std::vector<float> y(100);
  Plan plan;
  plan.unit = 10;
  const auto bins = binning::bin_matrix(a, 20);
  EXPECT_THROW(execute_plan(clsim_backend(), a, std::span<const float>(x),
                            std::span<float>(y), bins, plan),
               std::invalid_argument);
}

TEST(Exhaustive, FindsValidPlanAndExecutesCorrectly) {
  const auto a =
      gen::mixed_regime<float>(3000, 3000, 0.5, 0.3, 3, 40, 300, 32, 9);
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 2);

  auto pools = small_pools();
  ExhaustiveOptions opts;
  opts.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.05};
  const auto tuned =
      exhaustive_tune(clsim_backend(), a, std::span<const float>(x), pools,
                      opts);

  EXPECT_GE(pools.unit_index(tuned.best_plan.unit), 0);
  EXPECT_FALSE(tuned.best_plan.bin_kernels.empty());
  EXPECT_GT(tuned.best_s, 0.0);
  EXPECT_EQ(tuned.per_unit.size(), pools.units.size());

  // The winning plan must still be a correct SpMV.
  const auto bins = bins_for_plan(a, tuned.best_plan);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  execute_plan(clsim_backend(), a, std::span<const float>(x),
               std::span<float>(y), bins, tuned.best_plan);
  expect_matches_exact(a, x, y);
}

TEST(Exhaustive, BestIsNoWorseThanAnyMeasuredUnit) {
  const auto a = gen::power_law<float>(2000, 2000, 2.0, 300, 10);
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 3);
  ExhaustiveOptions opts;
  opts.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.05};
  const auto tuned = exhaustive_tune(
      clsim_backend(), a, std::span<const float>(x), small_pools(), opts);
  double best_total = std::numeric_limits<double>::infinity();
  for (const auto& ur : tuned.per_unit)
    best_total = std::min(best_total, ur.total_s);
  // The chosen plan is within the tie tolerance of the per-unit argmin
  // (ties break toward coarser granularity).
  bool found = false;
  for (const auto& ur : tuned.per_unit) {
    if (!ur.single_bin && ur.unit == tuned.best_plan.unit &&
        ur.total_s <= best_total * (1.0 + opts.tie_tolerance) + 1e-12) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Exhaustive, SingleBinIncludedWhenEnabled) {
  const auto a = gen::diagonal<float>(2000);
  const auto x = random_vector(2000, 4);
  auto pools = small_pools();
  pools.include_single_bin = true;
  ExhaustiveOptions opts;
  opts.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.02};
  const auto tuned = exhaustive_tune(
      clsim_backend(), a, std::span<const float>(x), pools, opts);
  EXPECT_EQ(tuned.per_unit.size(), pools.units.size() + 1);
  EXPECT_TRUE(tuned.per_unit.back().single_bin);
  ASSERT_EQ(tuned.per_unit.back().bin_kernels.size(), 1u);
  EXPECT_EQ(tuned.per_unit.back().bin_kernels[0].bin_id, 0);
}

TEST(Exhaustive, EmptyPoolThrows) {
  const auto a = gen::diagonal<float>(10);
  const auto x = random_vector(10, 5);
  CandidatePools empty;
  EXPECT_THROW(exhaustive_tune(clsim_backend(), a, std::span<const float>(x),
                               empty),
               std::invalid_argument);
}

TEST(Heuristic, UnitScalesWithMatrixSize) {
  HeuristicPredictor pred;
  RowStats small;
  small.rows = 1000;
  small.avg_nnz = 5;
  RowStats huge;
  huge.rows = 50'000'000;
  huge.avg_nnz = 5;
  const auto u_small = pred.predict_unit(small);
  const auto u_huge = pred.predict_unit(huge);
  EXPECT_FALSE(u_small.single_bin);
  EXPECT_LT(u_small.unit, u_huge.unit);
}

TEST(Heuristic, KernelWidthTracksBinId) {
  HeuristicPredictor pred;
  RowStats stats;
  stats.rows = 10000;
  stats.avg_nnz = 10.0;
  const auto short_kernel = pred.predict_kernel(stats, 100, 1);
  const auto long_kernel = pred.predict_kernel(stats, 100, 90);
  EXPECT_LT(kernels::lanes_per_row(short_kernel),
            kernels::lanes_per_row(long_kernel));
}

TEST(Heuristic, OverflowBinPrefersWideKernel) {
  HeuristicPredictor pred;
  RowStats stats;
  stats.rows = 1000;
  stats.avg_nnz = 800.0;  // very long rows
  const auto k = pred.predict_kernel(stats, 10, 99);
  EXPECT_GE(kernels::lanes_per_row(k), 128);
}

// Property: AutoSpmv with the heuristic predictor computes a correct SpMV
// on every matrix family.
class AutoSpmvCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(AutoSpmvCorrectness, MatchesReference) {
  CsrMatrix<float> a = [&] {
    switch (GetParam()) {
      case 0: return gen::diagonal<float>(3000);
      case 1: return gen::fixed_degree<float>(2500, 800, 4, 6);
      case 2: return gen::power_law<float>(2000, 2000, 2.0, 400, 7);
      case 3: return gen::cfd_longrow<float>(300, 200, 8);
      default:
        return gen::mixed_regime<float>(1500, 1500, 0.4, 0.4, 2, 30, 300, 16,
                                        9);
    }
  }();
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 10);
  HeuristicPredictor pred;
  const auto spmv = Tuner(a).predictor(pred).build();
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y));
  expect_matches_exact(a, x, y);

  // The plan covers every occupied bin.
  EXPECT_EQ(spmv.plan().bin_kernels.size(),
            spmv.bins().occupied_bins().size());
  EXPECT_EQ(spmv.stats().rows, a.rows());
}

INSTANTIATE_TEST_SUITE_P(Families, AutoSpmvCorrectness,
                         ::testing::Range(0, 5));

TEST(AutoSpmv, ExternalPlanConstructor) {
  const auto a = gen::banded<float>(2000, 4, 0.5, 11);
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 12);
  Plan plan;
  plan.unit = 100;
  const auto bins = binning::bin_matrix(a, 100);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Sub4});
  const auto spmv = Tuner(a).plan(plan).build();
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y));
  expect_matches_exact(a, x, y);
  EXPECT_EQ(spmv.plan().unit, 100);
}

TEST(AutoSpmv, RepeatedRunsAreStable) {
  const auto a = gen::power_law<float>(1000, 1000, 2.0, 200, 13);
  const auto x = random_vector(static_cast<std::size_t>(a.cols()), 14);
  HeuristicPredictor pred;
  const auto spmv = Tuner(a).predictor(pred).build();
  std::vector<float> y1(static_cast<std::size_t>(a.rows()));
  std::vector<float> y2(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y1));
  spmv.run(x, std::span<float>(y2));
  EXPECT_EQ(y1, y2);
}

}  // namespace
