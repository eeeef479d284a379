// spmv::iter — solver-loop serving. The randomized suites here (ctest
// label `fuzz`) are the value-mutation property tests: arbitrary
// update_values sequences must never invalidate a session's plan, bins, or
// materialized layouts (zero re-binning / planning passes, layouts
// value-refreshed instead of rebuilt), while every product stays correct
// against the exact reference for the mutated values. Deterministic tests
// cover DenseBlock, session validation, warm starts, the latency-feedback
// bandit path, SpMM provenance persistence, and the serve-layer SpMM
// request type.
//
// Seeding follows the suite protocol: SPMV_TEST_SEED overrides the base
// seed and failure messages carry the per-case seed for replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adapt/bandit.hpp"
#include "adapt/plan_store.hpp"
#include "binning/binning.hpp"
#include "core/exhaustive.hpp"
#include "core/plan_io.hpp"
#include "core/predictor.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "fmt/plan_layouts.hpp"
#include "gen/generators.hpp"
#include "iter/dense_block.hpp"
#include "iter/session.hpp"
#include "kernels/reference.hpp"
#include "serve/fingerprint.hpp"
#include "serve/service.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;

std::uint64_t base_seed() {
  if (const char* s = std::getenv("SPMV_TEST_SEED"); s != nullptr && *s != '\0')
    return std::strtoull(s, nullptr, 10);
  return 0x17E2A7EULL;
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string ctx(std::uint64_t base, std::uint64_t seed,
                const std::string& what) {
  return what + " (seed " + std::to_string(seed) +
         "; replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
}

/// A random square-ish CSR matrix with mixed row lengths (some empty, an
/// occasional long row) so the heuristic plan spans several bins and the
/// fmt estimator has material to stamp non-CSR layouts on.
CsrMatrix<double> random_csr(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto rows = static_cast<index_t>(16 + rng.bounded(200));
  const auto cols = static_cast<index_t>(16 + rng.bounded(200));
  CooMatrix<double> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    index_t len = static_cast<index_t>(rng.bounded(6));
    if (rng.uniform() < 0.05)
      len = static_cast<index_t>(1 + rng.bounded(
          static_cast<std::uint64_t>(cols)));
    len = std::min(len, cols);
    for (index_t k = 0; k < len; ++k)
      coo.add(r, static_cast<index_t>(rng.bounded(
                  static_cast<std::uint64_t>(cols))),
              rng.uniform(-1.0, 1.0));
  }
  return coo_to_csr(std::move(coo));
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_close(std::span<const double> y, std::span<const double> exact,
                  const std::string& where) {
  ASSERT_EQ(y.size(), exact.size()) << where;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale = std::abs(exact[i]) + 1.0;
    ASSERT_NEAR(y[i], exact[i], 1e-9 * scale) << where << ", row " << i;
  }
}

TEST(DenseBlock, LayoutAndValidation) {
  iter::DenseBlock<float> b(5, 3, 2.0f);
  EXPECT_EQ(b.length(), 5);
  EXPECT_EQ(b.width(), 3);
  EXPECT_EQ(b.size(), 15u);
  b.column(1)[4] = 7.0f;
  EXPECT_EQ(b.data()[1 * 5 + 4], 7.0f);
  EXPECT_EQ(b.data()[0], 2.0f);
  EXPECT_THROW((void)b.column(3), std::out_of_range);
  EXPECT_THROW(iter::DenseBlock<float>(4, 0), std::invalid_argument);
  EXPECT_THROW(iter::DenseBlock<float>(-1, 2), std::invalid_argument);

  iter::DenseBlock<float> c(2, 1, 9.0f);
  swap(b, c);
  EXPECT_EQ(b.length(), 2);
  EXPECT_EQ(c.data()[1 * 5 + 4], 7.0f);
}

TEST(IterSession, ValidatesInputsAndLifecycle) {
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::fixed_degree<double>(32, 48, 3, 7));
  const core::HeuristicPredictor pred;
  EXPECT_THROW(iter::IterativeSession<double>(nullptr, pred),
               std::invalid_argument);

  iter::IterativeSession<double> s(a, pred);
  std::vector<double> x(48), y(32);
  EXPECT_THROW(s.step(), std::logic_error);  // seed() first
  // rows != cols: the feedback loop cannot close.
  EXPECT_THROW(s.seed(std::span<const double>(x)), std::invalid_argument);
  EXPECT_THROW(s.run(std::span<const double>(x),
                     std::span<double>(y).subspan(0, 31)),
               std::invalid_argument);
  EXPECT_THROW(s.run_block(std::span<const double>(x), std::span<double>(y),
                           0),
               std::invalid_argument);
  EXPECT_THROW(s.update_values(std::span<const double>(x)),
               std::invalid_argument);  // wrong nnz count
  EXPECT_THROW(s.replace_matrix(nullptr), std::invalid_argument);

  // A well-formed run matches the reference.
  const auto xv = random_vec(48, 11);
  const auto exact = kernels::spmv_exact(*a, std::span<const double>(xv));
  s.run(std::span<const double>(xv), std::span<double>(y));
  expect_close(y, exact, "iter run");
  EXPECT_EQ(s.stats().iterations, 1u);
  EXPECT_EQ(s.stats().planning_passes, 1u);
}

/// The fuzz property: arbitrary value-mutation sequences keep the plan,
/// bins, and layouts — SessionStats must show exactly one planning pass
/// and zero structure rebinds no matter how many update_values land, and
/// every product must match the exact reference for the values in effect.
TEST(IterSession, FuzzUpdateValuesNeverInvalidatesPlanOrLayouts) {
  const std::uint64_t base = base_seed();
  constexpr int kCases = 12;
  constexpr int kMutations = 8;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        util::SplitMix64(base + static_cast<std::uint64_t>(i)).next();
    auto a0 = std::make_shared<const CsrMatrix<double>>(random_csr(seed));
    const std::string where = ctx(base, seed, "fuzz update_values");
    util::Xoshiro256 rng(seed ^ 0xF00DULL);

    // Half the corpus runs --format auto (layouts in play, built on the
    // first run so refreshes are observable); half stays CSR.
    iter::SessionOptions opts;
    if (i % 2 == 0) opts.format = fmt::FormatMode::Auto;
    const core::HeuristicPredictor pred;
    iter::IterativeSession<double> session(a0, pred, opts);
    const core::Plan plan0 = session.plan();

    // Reference copy whose values shadow the session's.
    CsrMatrix<double> ref = *a0;
    const auto x = random_vec(static_cast<std::size_t>(a0->cols()),
                              seed ^ 0x5EEDULL);
    std::vector<double> y(static_cast<std::size_t>(a0->rows()));
    for (int mu = 0; mu < kMutations; ++mu) {
      const auto vals = random_vec(ref.vals().size(), rng.next());
      session.update_values(std::span<const double>(vals));
      ref.update_values(std::span<const double>(vals));
      session.run(std::span<const double>(x), std::span<double>(y));
      const auto exact =
          kernels::spmv_exact(ref, std::span<const double>(x));
      expect_close(y, exact,
                   where + ", mutation " + std::to_string(mu));
      if (::testing::Test::HasFatalFailure()) return;
    }

    const iter::SessionStats st = session.stats();
    EXPECT_EQ(st.planning_passes, 1u) << where << ": mutation re-planned";
    EXPECT_EQ(st.structure_rebinds, 0u) << where << ": mutation re-binned";
    EXPECT_EQ(st.value_updates, static_cast<std::uint64_t>(kMutations))
        << where;
    // The plan survived verbatim (same unit, same kernels, same formats).
    EXPECT_EQ(session.plan().to_string(), plan0.to_string()) << where;
  }
}

/// Deterministic session-level refresh accounting: a uniform short-row
/// matrix on the native backend with --format auto materializes an ELL
/// layout (the estimator's sweet spot), so update_values must report
/// layout refreshes through SessionStats — the layouts rode along, they
/// were not dropped and rebuilt.
TEST(IterSession, UpdateValuesRefreshesMaterializedLayouts) {
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::fixed_degree<double>(2000, 70000, 6, 2));
  const core::HeuristicPredictor pred;
  iter::SessionOptions opts;
  opts.format = fmt::FormatMode::Auto;
  iter::IterativeSession<double> session(a, pred, opts);
  ASSERT_TRUE(session.plan().uses_formats())
      << "estimator no longer stamps ELL on the uniform corpus: "
      << session.plan().to_string();

  const auto x = random_vec(static_cast<std::size_t>(a->cols()), 99);
  std::vector<double> y(static_cast<std::size_t>(a->rows()));
  session.run(std::span<const double>(x), std::span<double>(y));  // builds
  session.update_values(
      std::span<const double>(random_vec(a->vals().size(), 100)));
  EXPECT_GT(session.stats().layout_refreshes, 0u)
      << "mutation did not value-refresh the materialized layouts";
  EXPECT_EQ(session.stats().planning_passes, 1u);

  // Post-refresh execution is exact for the new values.
  CsrMatrix<double> ref = *session.matrix();
  session.run(std::span<const double>(x), std::span<double>(y));
  expect_close(y, kernels::spmv_exact(ref, std::span<const double>(x)),
               "post-refresh run");
}

/// A session builds its layouts on its first run: after one step() of a
/// banded --format auto session every Dcsr bin ran from its layout (none
/// deferred to CSR), and SessionStats reports the builds and their cost,
/// which the first run's execution time includes.
TEST(IterSession, FirstStepBuildsTheLayouts) {
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(3000, 6, 0.7, 23));
  const core::HeuristicPredictor pred;
  iter::SessionOptions opts;
  opts.format = fmt::FormatMode::Auto;
  iter::IterativeSession<double> session(a, pred, opts);
  ASSERT_TRUE(session.plan().uses_formats()) << session.plan().to_string();
  EXPECT_EQ(session.stats().layout_builds, 0u);  // nothing built before a run

  session.seed(std::span<const double>(random_vec(3000, 5)));
  const std::vector<double> x(session.iterate().begin(),
                              session.iterate().end());
  const auto y = session.step();
  expect_close(y, kernels::spmv_exact(*a, std::span<const double>(x)),
               "first step");
  const iter::SessionStats st = session.stats();
  EXPECT_GT(st.layout_builds, 0u);
  EXPECT_EQ(st.layout_deferrals, 0u);
  EXPECT_GT(st.layout_build_s, 0.0);
  EXPECT_GE(st.exec_total_s, st.layout_build_s);

  (void)session.step();  // later steps reuse them
  EXPECT_EQ(session.stats().layout_builds, st.layout_builds);
  EXPECT_EQ(session.stats().layout_deferrals, 0u);
}

/// The layout-cache half of the property, asserted directly against
/// fmt::PlanLayouts: refresh_values must re-key the slot and replace the
/// payload values WITHOUT new builds — LayoutStats::builds stays flat
/// while value_refreshes counts — and post-refresh execution must be exact
/// for the new values.
TEST(IterSession, FuzzRefreshValuesReusesLayoutsWithoutRebuilds) {
  const std::uint64_t base = base_seed();
  constexpr int kCases = 12;
  const core::HeuristicPredictor pred;
  int exercised = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        util::SplitMix64(base + 7000 + static_cast<std::uint64_t>(i)).next();
    const auto a = random_csr(seed);
    const std::string where = ctx(base, seed, "fuzz refresh_values");
    const auto rt = core::Tuner(a)
                        .predictor(pred)
                        .backend(exec::BackendKind::Native)
                        .formats(fmt::FormatMode::Auto)
                        .format_policy({.min_reuse = 0})
                        .build();
    if (rt.layouts() == nullptr) continue;  // all-CSR plan: nothing to test
    const auto x = random_vec(static_cast<std::size_t>(a.cols()),
                              seed ^ 0xABCDULL);
    std::vector<double> y(static_cast<std::size_t>(a.rows()));
    rt.run(std::span<const double>(x), std::span<double>(y));  // builds
    const fmt::LayoutStats before = rt.layouts()->stats();
    if (before.builds == 0) continue;  // estimator kept everything CSR
    exercised += 1;

    CsrMatrix<double> mutated = a;
    const auto vals = random_vec(a.vals().size(), seed ^ 0x600DULL);
    mutated.update_values(std::span<const double>(vals));
    const std::uint64_t refreshed =
        rt.layouts()->refresh_values(mutated, a.instance_id());
    EXPECT_GT(refreshed, 0u) << where;

    core::execute_plan(rt.backend(), mutated, std::span<const double>(x),
                       std::span<double>(y), rt.bins(), rt.plan(), nullptr,
                       rt.layouts());
    const auto exact =
        kernels::spmv_exact(mutated, std::span<const double>(x));
    expect_close(y, exact, where);
    const fmt::LayoutStats after = rt.layouts()->stats();
    EXPECT_EQ(after.builds, before.builds)
        << where << ": refresh triggered a rebuild";
    EXPECT_EQ(after.value_refreshes, before.value_refreshes + refreshed)
        << where;
    // A refresh against a matrix the cache has never seen is a no-op.
    EXPECT_EQ(rt.layouts()->refresh_values(mutated, a.instance_id()), 0u)
        << where << ": stale instance id still resolved";
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(exercised, 0) << "corpus never materialized a layout; the "
                             "property was vacuous (base seed "
                          << base << ")";
}

/// replace_matrix: a structurally identical replacement takes the cheap
/// value path (no rebind); a structural change forces exactly one re-bin +
/// re-plan and subsequent products follow the new structure.
TEST(IterSession, ReplaceMatrixStructuralDelta) {
  const std::uint64_t base = base_seed();
  const std::uint64_t seed = util::SplitMix64(base + 9001).next();
  auto a = std::make_shared<const CsrMatrix<double>>(random_csr(seed));
  const core::HeuristicPredictor pred;
  iter::IterativeSession<double> session(a, pred);

  // Same structure, new values: fingerprint match, no rebind.
  auto same = std::make_shared<CsrMatrix<double>>(*a);
  same->update_values(random_vec(a->vals().size(), seed ^ 1));
  session.replace_matrix(same);
  EXPECT_EQ(session.stats().structure_rebinds, 0u);
  EXPECT_EQ(session.stats().value_updates, 1u);
  EXPECT_EQ(session.stats().planning_passes, 1u);

  const auto x = random_vec(static_cast<std::size_t>(same->cols()),
                            seed ^ 2);
  std::vector<double> y(static_cast<std::size_t>(same->rows()));
  session.run(std::span<const double>(x), std::span<double>(y));
  expect_close(y, kernels::spmv_exact(*same, std::span<const double>(x)),
               ctx(base, seed, "replace same-structure"));

  // Different structure: one rebind, one extra planning pass.
  auto other =
      std::make_shared<const CsrMatrix<double>>(random_csr(seed ^ 0xD1FFULL));
  session.replace_matrix(other);
  EXPECT_EQ(session.stats().structure_rebinds, 1u);
  EXPECT_EQ(session.stats().planning_passes, 2u);
  const auto x2 = random_vec(static_cast<std::size_t>(other->cols()),
                             seed ^ 3);
  std::vector<double> y2(static_cast<std::size_t>(other->rows()));
  session.run(std::span<const double>(x2), std::span<double>(y2));
  expect_close(y2, kernels::spmv_exact(*other, std::span<const double>(x2)),
               ctx(base, seed, "replace new-structure"));
}

/// Regression: replace_matrix used to take the value path on
/// serve::Fingerprint equality, and the fingerprint samples row_ptr without
/// ever reading col_idx. Same row_ptr with every column shifted by one
/// collided, the session kept its layouts, and nearly every row came back
/// wrong (19,961 of 20,000 rows at 20k rows; every row's columns shift, so
/// the size only changes the count). Only an identical structure may take
/// the value path.
TEST(IterSession, ReplaceMatrixWithShiftedColumnsRebinds) {
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(2000, 8, 0.7, 11));
  std::vector<index_t> shifted(a->col_idx().begin(), a->col_idx().end());
  for (index_t& c : shifted) c = (c + 1) % a->cols();
  const auto b = std::make_shared<const CsrMatrix<double>>(
      a->rows(), a->cols(),
      std::vector<offset_t>(a->row_ptr().begin(), a->row_ptr().end()),
      std::move(shifted),
      std::vector<double>(a->vals().begin(), a->vals().end()));
  ASSERT_EQ(serve::fingerprint_of(*a), serve::fingerprint_of(*b))
      << "the fingerprint now reads columns; pick a colliding pair";

  const core::HeuristicPredictor pred;
  iter::SessionOptions opts;
  opts.format = fmt::FormatMode::Auto;
  iter::IterativeSession<double> session(a, pred, opts);
  const auto x = random_vec(static_cast<std::size_t>(a->cols()), 5);
  std::vector<double> y(static_cast<std::size_t>(a->rows()));
  session.run(std::span<const double>(x), std::span<double>(y));  // builds

  session.replace_matrix(b);
  EXPECT_EQ(session.stats().structure_rebinds, 1u);
  EXPECT_EQ(session.stats().value_updates, 0u);
  session.run(std::span<const double>(x), std::span<double>(y));
  expect_close(y, kernels::spmv_exact(*b, std::span<const double>(x)),
               "shifted-column replacement");

  // Equal arrays on another block still take the value path, and the
  // values move onto the session's block.
  const auto copy = std::make_shared<const CsrMatrix<double>>(
      b->rows(), b->cols(),
      std::vector<offset_t>(b->row_ptr().begin(), b->row_ptr().end()),
      std::vector<index_t>(b->col_idx().begin(), b->col_idx().end()),
      random_vec(b->vals().size(), 6));
  const auto block = session.matrix()->structure_id();
  session.replace_matrix(copy);
  EXPECT_EQ(session.stats().structure_rebinds, 1u);
  EXPECT_EQ(session.stats().value_updates, 1u);
  EXPECT_EQ(session.matrix()->structure_id(), block);
  session.run(std::span<const double>(x), std::span<double>(y));
  expect_close(y, kernels::spmv_exact(*copy, std::span<const double>(x)),
               "equal-structure replacement");
}

/// The structure-sharing contract of update_values: the live matrix keeps
/// the same row_ptr/col_idx buffers (no structure byte copied), every
/// product is bit-identical to a fresh session planned on a deep copy
/// carrying the same values, and every steady-state update writes into a
/// retired state's recycled value arrays. The first two updates allocate
/// the CSR values: the caller's original matrix is not the session's to
/// recycle, and the first update's array is still live during the second.
TEST(IterSession, UpdateValuesSharesStructureAndRecyclesValueBuffers) {
  // Built per iteration, so each matrix dies soon after its last
  // OpenMP launch (tsan matches its libgomp suppressions on that
  // launch's stack, which a long history would evict).
  const auto make = [](std::size_t m) {
    switch (m) {
      case 0: return gen::banded<double>(2000, 4, 0.7, 21);  // dcsr bins
      case 1: return gen::fixed_degree<double>(2000, 70000, 6, 2);  // ELL
      default: return random_csr(util::SplitMix64(base_seed() + 31).next());
    }
  };
  const core::HeuristicPredictor pred;
  iter::SessionOptions opts;
  opts.format = fmt::FormatMode::Auto;
  for (std::size_t m = 0; m < 3; ++m) {
    const std::string where = "corpus matrix " + std::to_string(m);
    const auto a = std::make_shared<const CsrMatrix<double>>(make(m));
    iter::IterativeSession<double> session(a, pred, opts);
    const offset_t* row_ptr = session.matrix()->row_ptr().data();
    const index_t* col_idx = session.matrix()->col_idx().data();
    const auto x = random_vec(static_cast<std::size_t>(a->cols()), 40 + m);
    std::vector<double> y(static_cast<std::size_t>(a->rows()));
    std::vector<double> y_fresh(y.size());
    session.run(std::span<const double>(x), std::span<double>(y));  // builds

    std::uint64_t recycled = 0;
    for (int u = 0; u < 3; ++u) {
      const auto vals = random_vec(a->vals().size(), 100 * m + u);
      session.update_values(std::span<const double>(vals));
      EXPECT_EQ(session.matrix()->row_ptr().data(), row_ptr) << where;
      EXPECT_EQ(session.matrix()->col_idx().data(), col_idx) << where;
      const std::uint64_t now = session.stats().recycled_value_buffers;
      if (u >= 2) {
        EXPECT_GT(now, recycled) << where << ", update " << u;
      }
      recycled = now;

      const auto deep = std::make_shared<const CsrMatrix<double>>(
          a->rows(), a->cols(),
          std::vector<offset_t>(a->row_ptr().begin(), a->row_ptr().end()),
          std::vector<index_t>(a->col_idx().begin(), a->col_idx().end()),
          vals);
      iter::IterativeSession<double> fresh(deep, pred, opts);
      ASSERT_EQ(fresh.plan().to_string(), session.plan().to_string()) << where;
      session.run(std::span<const double>(x), std::span<double>(y));
      fresh.run(std::span<const double>(x), std::span<double>(y_fresh));
      for (std::size_t r = 0; r < y.size(); ++r)
        ASSERT_EQ(y[r], y_fresh[r]) << where << ", update " << u << ", row "
                                    << r;
    }
    EXPECT_EQ(session.stats().planning_passes, 1u) << where;
    EXPECT_EQ(session.stats().structure_rebinds, 0u) << where;
  }
}

/// Latency-feedback tuning end to end on the bandit: alternate
/// next_variant()/feedback() with rigged wall times where exactly one
/// challenger kernel is 100x faster. The tuner must promote to it through
/// the shared min_samples + hysteresis machinery, counting l_trials /
/// l_promotions while the shadow-trial counters stay at zero — the "no
/// shadow launches" contract.
TEST(IterSession, LatencyFeedbackPromotesWithoutShadowLaunches) {
  const auto a = gen::fixed_degree<double>(4000, 4000, 16, 3);
  const serve::Fingerprint key = serve::fingerprint_of(a);
  core::Plan plan;
  plan.unit = 100;
  const auto bins = binning::bin_matrix(a, plan.unit);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Serial});

  adapt::AdaptOptions opts;
  opts.min_samples = 2;
  opts.hysteresis = 1.05;
  opts.hot_bins = 2;
  opts.seed = base_seed();
  adapt::BanditTuner<double> tuner(opts);

  const auto nnz = static_cast<std::int64_t>(a.nnz());
  core::Plan live = plan;
  int incumbent_iters = 0;
  int challenger_iters = 0;
  for (int it = 0; it < 600; ++it) {
    const auto v = tuner.next_variant(key, live, bins, a);
    ASSERT_GE(v.bin, 0);
    (v.challenger ? challenger_iters : incumbent_iters) += 1;
    if (!v.challenger) {
      EXPECT_EQ(v.kernel, v.incumbent);
    }
    // Rigged reward: Sub16 is the only fast kernel on every bin.
    const double seconds =
        v.kernel == kernels::KernelId::Sub16 ? 1e-4 : 1e-2;
    auto promo = tuner.feedback(key, v, seconds, nnz);
    if (promo.has_value()) {
      EXPECT_EQ(promo->level, 1);
      EXPECT_GT(promo->plan.revision, live.revision);
      live = promo->plan;
    }
  }

  EXPECT_GT(incumbent_iters, 0);
  EXPECT_GT(challenger_iters, 0);
  const prof::AdaptStats st = tuner.stats();
  EXPECT_EQ(st.trials, 0u) << "latency path ran a shadow launch";
  EXPECT_GT(st.l_trials, 0u);
  EXPECT_GE(st.l_promotions, 1u);
  EXPECT_EQ(st.promotions, st.l_promotions);
  // Every hot bin converged to the rigged winner.
  int promoted_bins = 0;
  for (const auto& bp : live.bin_kernels)
    if (bp.kernel == kernels::KernelId::Sub16) promoted_bins += 1;
  EXPECT_GE(promoted_bins, 1);
}

/// Warm start + SpMM width provenance through the PlanStore: a promoted
/// plan stamped with the serving width round-trips plan_io and a restarted
/// session adopts it with zero planning passes.
TEST(IterSession, WarmStartAndSpmmWidthProvenance) {
  ScopedFile store_file("iter_warm_store.tmp.json");
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::fixed_degree<double>(64, 64, 4, 5));
  const core::HeuristicPredictor pred;

  // plan_io round-trips the provenance field (0 = unset stays absent).
  core::Plan p;
  p.unit = 10;
  p.spmm_width = 8;
  const core::Plan back = core::plan_from_json(core::plan_to_json(p));
  EXPECT_EQ(back.spmm_width, 8);
  core::Plan unset;
  EXPECT_EQ(core::plan_from_json(core::plan_to_json(unset)).spmm_width, 0);
  EXPECT_NE(p.to_string().find("spmm=8"), std::string::npos);

  {
    adapt::PlanStore store(store_file.path);
    iter::SessionOptions opts;
    opts.plan_store = &store;
    iter::IterativeSession<double> first(a, pred, opts);
    EXPECT_EQ(first.stats().planning_passes, 1u);
    EXPECT_EQ(first.stats().warm_starts, 0u);
    first.flush();
  }
  {
    adapt::PlanStore store(store_file.path);
    iter::SessionOptions opts;
    opts.plan_store = &store;
    opts.spmm_width = 4;
    iter::IterativeSession<double> warmed(a, pred, opts);
    EXPECT_EQ(warmed.stats().planning_passes, 0u)
        << "restart re-ran the predictor";
    EXPECT_EQ(warmed.stats().warm_starts, 1u);
    std::vector<double> x0(64 * 4, 1.0);
    warmed.seed(std::span<const double>(x0));
    (void)warmed.step();
    EXPECT_EQ(warmed.stats().iterations, 1u);
  }
}

/// A stored plan that fails to build is erased and the session plans again
/// at construction, instead of every session over that store throwing; the
/// flushed store then holds the new plan.
TEST(IterSession, UnbuildableStoredPlanIsErasedAndReplanned) {
  ScopedFile store_file("iter_unbuildable_store.tmp.json");
  const auto a = std::make_shared<const CsrMatrix<double>>(
      gen::fixed_degree<double>(64, 64, 4, 5));
  const auto key = serve::fingerprint_of(*a);
  const core::HeuristicPredictor pred;
  {
    adapt::PlanStore store(store_file.path);
    store.load();
    adapt::StoredPlan bad;
    bad.plan.unit = 0;  // binning rejects a unit below 1
    bad.plan.backend = exec::BackendKind::Native;
    store.put(key, bad);
    iter::SessionOptions opts;
    opts.plan_store = &store;
    iter::IterativeSession<double> session(a, pred, opts);
    EXPECT_EQ(session.stats().warm_starts, 0u);
    EXPECT_EQ(session.stats().planning_passes, 1u);
    EXPECT_EQ(store.stats().erased, 1u);
    session.flush();
  }
  adapt::PlanStore reread(store_file.path);
  EXPECT_EQ(reread.load().loaded, 1u);
  const auto got = reread.lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(got->plan.unit, 1);
}

/// serve-layer SpMM request type: run_spmm through the service is
/// bit-identical to per-column submits against the same cached runtime.
TEST(IterSession, ServiceSpmmRequestMatchesPerColumnSubmits) {
  const std::uint64_t seed = util::SplitMix64(base_seed() + 31337).next();
  const auto a =
      std::make_shared<const CsrMatrix<float>>(convert_values<float>(
          random_csr(seed)));
  const core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.workers = 2;
  serve::SpmvService<float> service(pred, opts);

  constexpr int kWidth = 5;
  const auto n = static_cast<std::size_t>(a->cols());
  const auto m = static_cast<std::size_t>(a->rows());
  std::vector<float> xb(n * kWidth);
  util::Xoshiro256 rng(seed ^ 0xB10CULL);
  for (auto& v : xb) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  EXPECT_THROW((void)service.run_spmm(a, xb, 0), std::invalid_argument);
  EXPECT_THROW((void)service.run_spmm(a, xb, 3), std::invalid_argument);

  const std::vector<float> yb = service.run_spmm(a, xb, kWidth);
  ASSERT_EQ(yb.size(), m * kWidth);
  for (int c = 0; c < kWidth; ++c) {
    const std::vector<float> col(xb.begin() + static_cast<std::ptrdiff_t>(
                                                  static_cast<std::size_t>(c) * n),
                                 xb.begin() + static_cast<std::ptrdiff_t>(
                                                  (static_cast<std::size_t>(c) + 1) * n));
    const std::vector<float> yc = service.run(a, col);
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_EQ(yb[static_cast<std::size_t>(c) * m + r], yc[r])
          << "column " << c << ", row " << r << " (seed " << seed << ")";
  }
  service.shutdown();
}

}  // namespace
