// End-to-end integration tests: the full paper pipeline (train -> persist
// -> load -> predict -> execute) and a downstream application (conjugate
// gradient) built on AutoSpmv.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "baseline/csr_adaptive.hpp"
#include "baseline/merge_spmv.hpp"
#include "core/auto_spmv.hpp"
#include "core/model_io.hpp"
#include "core/tuner.hpp"
#include "core/trainer.hpp"
#include "gen/generators.hpp"
#include "gen/representative.hpp"
#include "kernels/reference.hpp"
#include "sparse/convert.hpp"
#include "sparse/mm_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;
using namespace spmv::core;

TEST(Integration, TrainPersistPredictExecute) {
  // 1. Train a small model offline.
  TrainerOptions opts;
  opts.pools = small_pools();
  opts.tune.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.02};
  gen::CorpusOptions copts;
  copts.count = 10;
  copts.min_rows = 500;
  copts.max_rows = 2500;
  const auto model = train_model(gen::sample_corpus(copts), opts, nullptr);

  // 2. Persist and reload (the deployment path).
  std::stringstream ss;
  save_model(ss, model);
  ModelPredictor pred(load_model(ss));

  // 3. Auto-tune an unseen matrix and check the SpMV is exact.
  const auto a =
      gen::mixed_regime<float>(4000, 4000, 0.5, 0.3, 3, 30, 250, 32, 99);
  const auto spmv = Tuner(a).predictor(pred).build();
  util::Xoshiro256 rng(1);
  std::vector<float> x(static_cast<std::size_t>(a.cols()));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y));

  const auto exact = kernels::spmv_exact(a, std::span<const float>(x));
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i],
                2e-4 * (std::abs(exact[i]) + 1.0));
  }
}

TEST(Integration, AllStrategiesAgreeOnRepresentativeMatrix) {
  // Shrink a representative matrix and check auto, CSR-Adaptive, and the
  // merge kernel all agree with the reference.
  auto info = gen::representative_catalogue()[3];  // crankseg_2-like
  info.scale = 0.05;
  const auto a = gen::make_representative<double>(info, 5);

  util::Xoshiro256 rng(2);
  std::vector<double> x(static_cast<std::size_t>(a.cols()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto exact = kernels::spmv_exact(a, std::span<const double>(x));

  auto check = [&](std::span<const double> y, const char* what) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0))
          << what << " row " << i;
    }
  };

  HeuristicPredictor pred;
  const auto auto_spmv = Tuner(a).predictor(pred).build();
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  auto_spmv.run(x, std::span<double>(y));
  check(y, "auto");

  baseline::CsrAdaptive<double> adaptive(a, clsim::default_engine());
  adaptive.run(x, std::span<double>(y));
  check(y, "csr-adaptive");

  baseline::spmv_merge(a, std::span<const double>(x), std::span<double>(y));
  check(y, "merge");
}

// Conjugate gradient on a symmetric positive-definite matrix, with every
// A*p product going through AutoSpmv — the downstream-solver use case from
// the paper's introduction.
TEST(Integration, ConjugateGradientConverges) {
  const index_t n = 3000;
  // SPD matrix: strictly diagonally dominant symmetric banded matrix.
  CooMatrix<double> coo(n, n);
  util::Xoshiro256 rng(3);
  for (index_t i = 0; i < n; ++i) {
    double off_sum = 0.0;
    for (index_t d = 1; d <= 3; ++d) {
      if (i + d < n) {
        const double v = -rng.uniform(0.1, 1.0);
        coo.add(i, i + d, v);
        coo.add(i + d, i, v);
        off_sum += 2.0 * std::abs(v);
      }
    }
    coo.add(i, i, off_sum + 1.0 + rng.uniform());
  }
  // Symmetrize accounting: compute row sums after coalescing.
  auto a = coo_to_csr(std::move(coo));
  {
    // Ensure strict diagonal dominance post-assembly (raise the diagonal).
    auto vals = a.vals_mutable();
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    for (index_t i = 0; i < n; ++i) {
      double off = 0.0;
      std::size_t diag = SIZE_MAX;
      for (offset_t j = row_ptr[static_cast<std::size_t>(i)];
           j < row_ptr[static_cast<std::size_t>(i) + 1]; ++j) {
        if (col_idx[static_cast<std::size_t>(j)] == i) {
          diag = static_cast<std::size_t>(j);
        } else {
          off += std::abs(vals[static_cast<std::size_t>(j)]);
        }
      }
      ASSERT_NE(diag, SIZE_MAX);
      vals[diag] = off + 1.0;
    }
  }

  HeuristicPredictor pred;
  const auto spmv = Tuner(a).predictor(pred).build();

  // Solve A x = b for a known x*.
  std::vector<double> x_star(static_cast<std::size_t>(n));
  for (auto& v : x_star) v = rng.uniform(-1.0, 1.0);
  std::vector<double> b(static_cast<std::size_t>(n));
  spmv.run(x_star, std::span<double>(b));

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> r = b, p = b, ap(static_cast<std::size_t>(n));
  auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  double rr = dot(r, r);
  const double b_norm = std::sqrt(dot(b, b));
  int iters = 0;
  for (; iters < 500 && std::sqrt(rr) > 1e-10 * b_norm; ++iters) {
    spmv.run(p, std::span<double>(ap));
    const double alpha = rr / dot(p, ap);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
  }
  EXPECT_LT(iters, 500);
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    max_err = std::max(max_err, std::abs(x[i] - x_star[i]));
  EXPECT_LT(max_err, 1e-6);
}

TEST(Integration, MatrixMarketToAutoSpmv) {
  // Write a generated matrix to Matrix Market, read it back, auto-tune it.
  const auto orig = gen::power_law<double>(800, 800, 2.0, 200, 7);
  std::stringstream ss;
  write_matrix_market(ss, csr_to_coo(orig));
  const auto a = coo_to_csr(read_matrix_market<double>(ss));
  EXPECT_EQ(a.nnz(), orig.nnz());

  util::Xoshiro256 rng(4);
  std::vector<double> x(static_cast<std::size_t>(a.cols()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  HeuristicPredictor pred;
  const auto spmv = Tuner(a).predictor(pred).build();
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<double>(y));
  const auto exact = kernels::spmv_exact(orig, std::span<const double>(x));
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0));
  }
}

}  // namespace
