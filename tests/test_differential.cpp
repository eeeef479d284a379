// Randomized differential testing of the kernel pool: ~200 seeded random
// matrices spanning dimensions, density, row-length skew, empty rows, and
// singleton rows, each executed through every pool kernel (full-matrix,
// binned dispatch at a random granularity, and the batched variants) and
// compared against the exact serial reference. Both scalar types run.
//
// Execution goes through the spmv::exec backend seam. SPMV_TEST_BACKEND in
// the environment selects which backend(s) the sweep targets: "clsim",
// "native", or unset/empty for both — CI runs a dedicated native leg so a
// lowering bug in either backend cannot hide behind the other.
//
// Determinism and replay: every matrix derives from a base seed
// (SPMV_TEST_SEED in the environment overrides the built-in default — CI
// runs one pass with a fixed seed and one with the run id) and every
// assertion prints the per-matrix generator seed, so any failure replays
// locally with SPMV_TEST_SEED=<base> and the reported index.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "binning/binning.hpp"
#include "core/auto_spmv.hpp"
#include "core/predictor.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "fmt/estimate.hpp"
#include "fmt/layout.hpp"
#include "gen/corpus.hpp"
#include "gen/generators.hpp"
#include "gen/representative.hpp"
#include "iter/session.hpp"
#include "kernels/reference.hpp"
#include "kernels/registry.hpp"
#include "prof/counters.hpp"
#include "prof/profile.hpp"
#include "shard/sharded_service.hpp"
#include "sparse/convert.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace spmv;
using kernels::KernelId;

constexpr int kMatrices = 200;

std::uint64_t base_seed() {
  if (const char* s = std::getenv("SPMV_TEST_SEED"); s != nullptr && *s != '\0')
    return std::strtoull(s, nullptr, 10);
  return 0xA11CE5EEDULL;
}

/// Backends under test, from SPMV_TEST_BACKEND ("clsim", "native", or
/// unset/empty for both). An unknown name is a hard failure — a CI leg
/// that silently fell back to the default would test nothing.
std::vector<std::shared_ptr<const exec::Backend>> test_backends() {
  std::vector<std::shared_ptr<const exec::Backend>> out;
  const char* s = std::getenv("SPMV_TEST_BACKEND");
  if (s == nullptr || *s == '\0') {
    for (int k = 0; k < exec::kBackendCount; ++k)
      out.push_back(exec::shared_backend(static_cast<exec::BackendKind>(k)));
    return out;
  }
  out.push_back(exec::shared_backend(exec::backend_from_name(s)));
  return out;
}

/// SPMV_TEST_FORMAT gates the per-bin layout sweep: "csr" skips it, "auto"
/// or unset runs it. CI's fuzz leg exports SPMV_TEST_FORMAT=auto so the
/// format coverage cannot be silently disabled there; an unknown name is a
/// hard failure (format_mode_from_name throws).
bool formats_enabled() {
  const char* s = std::getenv("SPMV_TEST_FORMAT");
  if (s == nullptr || *s == '\0') return true;
  return fmt::format_mode_from_name(s) == fmt::FormatMode::Auto;
}

/// The covered actual row ids of a materialized layout (each payload
/// carries its own copy).
std::span<const index_t> layout_rows(const fmt::BinLayout<double>& l) {
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      return l.ell.rows;
    case fmt::FormatKind::Coo:
      return l.coo.rows;
    default:
      return l.dcsr.rows;
  }
}

/// Per-matrix seed: decorrelate the base so adjacent indices do not share
/// low-bit structure.
std::uint64_t matrix_seed(std::uint64_t base, int index) {
  return util::SplitMix64(base + static_cast<std::uint64_t>(index)).next();
}

/// One random CSR matrix. The profile draw picks a row-length regime —
/// singleton rows, short-with-empties, uniform up to near-dense, or a
/// long-tail skew — and an independent draw sprinkles extra empty rows, so
/// the suite hits the boundary shapes (empty rows, rows of length 1 and
/// cols, 1xN / Nx1 matrices) that hand-picked fixtures tend to miss.
CsrMatrix<double> random_csr(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto rows = static_cast<index_t>(1 + rng.bounded(240));
  const auto cols = static_cast<index_t>(1 + rng.bounded(240));
  const int profile = static_cast<int>(rng.bounded(4));
  const double empty_p = rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.0, 0.4);

  CooMatrix<double> coo(rows, cols);
  std::vector<index_t> pool(static_cast<std::size_t>(cols));
  std::iota(pool.begin(), pool.end(), index_t{0});
  for (index_t r = 0; r < rows; ++r) {
    index_t len = 0;
    if (rng.uniform() >= empty_p) {
      switch (profile) {
        case 0:  // singleton rows
          len = 1;
          break;
        case 1:  // short rows, some naturally empty
          len = static_cast<index_t>(rng.bounded(5));
          break;
        case 2:  // uniform, up to near-dense
          len = static_cast<index_t>(1 + rng.bounded(
              static_cast<std::uint64_t>(cols)));
          break;
        default:  // skew: mostly short, occasionally a very long row
          len = static_cast<index_t>(1 + rng.bounded(4));
          if (rng.uniform() < 0.05)
            len = static_cast<index_t>(
                1 + rng.bounded(static_cast<std::uint64_t>(cols)));
          break;
      }
    }
    len = std::min(len, cols);
    // Partial Fisher-Yates: `len` distinct columns per row.
    for (index_t k = 0; k < len; ++k) {
      const auto j = k + static_cast<index_t>(rng.bounded(
          static_cast<std::uint64_t>(cols - k)));
      std::swap(pool[static_cast<std::size_t>(k)],
                pool[static_cast<std::size_t>(j)]);
      coo.add(r, pool[static_cast<std::size_t>(k)], rng.uniform(-1.0, 1.0));
    }
  }
  return coo_to_csr(std::move(coo));
}

std::vector<double> random_x(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Replay hint attached to every assertion in the suite.
std::string ctx(std::uint64_t base, int index, std::uint64_t seed,
                const std::string& what) {
  return what + " (matrix " + std::to_string(index) + ", generator seed " +
         std::to_string(seed) +
         "; replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
}

/// The double-built corpus in the requested scalar type.
template <typename T>
CsrMatrix<T> as_type(const CsrMatrix<double>& ad) {
  if constexpr (std::is_same_v<T, double>)
    return ad;
  else
    return convert_values<T>(ad);
}

template <typename T>
void expect_close(std::span<const T> y, std::span<const double> exact,
                  const std::string& where) {
  const double tol = std::is_same_v<T, float> ? 2e-4 : 1e-9;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale = std::abs(exact[i]) + 1.0;
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i], tol * scale)
        << where << ", row " << i;
  }
}

/// The full differential sweep for one scalar type over one matrix and one
/// backend: every kernel full-matrix, every kernel composed from per-bin
/// launches at a random granularity, and the batched dispatch at a random
/// width.
template <typename T>
void differential_one(const exec::Backend& backend,
                      const CsrMatrix<double>& ad, std::uint64_t base,
                      int index, std::uint64_t seed) {
  const std::string bname = exec::backend_name(backend.kind()) + "/";
  const auto a = as_type<T>(ad);
  const auto xd =
      random_x(static_cast<std::size_t>(ad.cols()), seed ^ 0x9E3779B9ULL);
  const std::vector<T> x(xd.begin(), xd.end());
  const auto exact = kernels::spmv_exact(ad, std::span<const double>(xd));
  const auto m = static_cast<std::size_t>(a.rows());

  for (KernelId id : kernels::all_kernels()) {
    std::vector<T> y(m, T(-12345));
    backend.run_full(id, a, std::span<const T>(x), std::span<T>(y));
    expect_close<T>(y, exact,
                    ctx(base, index, seed,
                        bname + "full " + kernels::kernel_name(id)));
  }

  // Binned dispatch: per-bin launches must compose the full product for
  // any granularity, including units larger than the matrix.
  util::Xoshiro256 pick(seed ^ 0xB1A5ULL);
  const index_t units[] = {1, 3, 10, 37, 100, 1000, 100000};
  const index_t unit = units[pick.bounded(std::size(units))];
  const auto bins = binning::bin_matrix(a, unit);
  for (KernelId id : kernels::all_kernels()) {
    std::vector<T> y(m, T(-12345));
    for (int b : bins.occupied_bins())
      backend.run_binned(id, a, std::span<const T>(x), std::span<T>(y),
                         bins.bin(b), unit);
    expect_close<T>(y, exact,
                    ctx(base, index, seed,
                        bname + "binned U=" + std::to_string(unit) + " " +
                            kernels::kernel_name(id)));
  }

  // SpMM dispatch: `width` input vectors column-major; every column must
  // equal its own single-vector run_binned composition bit for bit.
  const int width = 1 + static_cast<int>(pick.bounded(4));
  const auto n = static_cast<std::size_t>(a.cols());
  std::vector<T> xb(static_cast<std::size_t>(width) * n);
  for (int b = 0; b < width; ++b) {
    const auto col = random_x(n, seed + 1000 + static_cast<std::uint64_t>(b));
    for (std::size_t c = 0; c < n; ++c)
      xb[static_cast<std::size_t>(b) * n + c] = static_cast<T>(col[c]);
  }
  const KernelId bid =
      kernels::all_kernels()[pick.bounded(kernels::all_kernels().size())];
  std::vector<T> yb(static_cast<std::size_t>(width) * m, T(-12345));
  for (int b : bins.occupied_bins())
    backend.run_spmm(bid, a, std::span<const T>(xb), std::span<T>(yb), width,
                     bins.bin(b), unit);
  for (int b = 0; b < width; ++b) {
    const auto off = static_cast<std::size_t>(b);
    std::vector<T> y(m, T(-12345));
    for (int bin : bins.occupied_bins())
      backend.run_binned(bid, a, std::span<const T>(xb).subspan(off * n, n),
                         std::span<T>(y), bins.bin(bin), unit);
    ASSERT_EQ(std::memcmp(yb.data() + off * m, y.data(), m * sizeof(T)), 0)
        << ctx(base, index, seed,
               bname + "spmm[" + std::to_string(b) + "/" +
                   std::to_string(width) + "] " + kernels::kernel_name(bid) +
                   " not bit-identical to run_binned");
  }
}

/// Row statistics as planning computed them before they became an integer
/// reduction: a serial Welford pass, one division per row.
RowStats welford_row_stats(const CsrMatrix<float>& a) {
  RowStats s;
  s.rows = a.rows();
  s.cols = a.cols();
  s.nnz = a.nnz();
  util::RunningStats rs;
  for (index_t i = 0; i < a.rows(); ++i)
    rs.add(static_cast<double>(a.row_nnz(i)));
  s.avg_nnz = rs.mean();
  s.var_nnz = rs.variance();
  s.min_nnz = static_cast<offset_t>(rs.min());
  s.max_nnz = static_cast<offset_t>(rs.max());
  return s;
}

/// A bin's format features as planning computed them before they became a
/// reduction: one serial scan of the bin's rows.
fmt::BinFeatures serial_bin_features(const CsrMatrix<float>& a,
                                     std::span<const index_t> vrows,
                                     index_t unit) {
  fmt::BinFeatures f;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (const index_t v : vrows) {
    for (index_t k = 0; k < unit; ++k) {
      const std::int64_t r = static_cast<std::int64_t>(v) * unit + k;
      if (r >= a.rows()) break;
      f.rows += 1;
      const auto row = static_cast<std::size_t>(r);
      const auto beg = static_cast<std::size_t>(rp[row]);
      const auto end = static_cast<std::size_t>(rp[row + 1]);
      const auto len = static_cast<offset_t>(end - beg);
      f.nnz += len;
      f.max_len = std::max(f.max_len, len);
      if (len == 0) {
        f.empty_rows += 1;
        continue;
      }
      index_t lo = ci[beg];
      index_t hi = lo;
      for (std::size_t j = beg + 1; j < end; ++j) {
        lo = std::min(lo, ci[j]);
        hi = std::max(hi, ci[j]);
      }
      f.max_row_span = std::max(f.max_row_span, hi - lo);
    }
  }
  if (f.rows > 0 && f.nnz > 0) {
    f.avg_len = static_cast<double>(f.nnz) / static_cast<double>(f.rows);
    f.padding_ratio = static_cast<double>(f.rows) *
                      static_cast<double>(f.max_len) /
                      static_cast<double>(f.nnz);
  }
  return f;
}

/// plan_matrix on `a` gives the plan the serial reference statistics and
/// feature scan give: the same unit, single_bin, and per-bin kernel and
/// format. Integer statistics match exactly; the mean and variance, now
/// rounded from exact integer sums instead of accumulated, match to 1e-12.
void expect_same_plan(const CsrMatrix<float>& a, const std::string& where) {
  const core::HeuristicPredictor pred;
  const auto backend = exec::shared_backend(exec::BackendKind::Native);
  const core::PlannedMatrix got =
      core::plan_matrix(a, pred, *backend, fmt::FormatMode::Auto);

  const RowStats ref = welford_row_stats(a);
  EXPECT_EQ(got.stats.rows, ref.rows) << where;
  EXPECT_EQ(got.stats.cols, ref.cols) << where;
  EXPECT_EQ(got.stats.nnz, ref.nnz) << where;
  EXPECT_EQ(got.stats.min_nnz, ref.min_nnz) << where;
  EXPECT_EQ(got.stats.max_nnz, ref.max_nnz) << where;
  EXPECT_NEAR(got.stats.avg_nnz, ref.avg_nnz, 1e-12 * ref.avg_nnz) << where;
  EXPECT_NEAR(got.stats.var_nnz, ref.var_nnz, 1e-12 * ref.var_nnz) << where;

  const auto choice = pred.predict_unit(ref);
  ASSERT_EQ(got.plan.unit, choice.unit) << where;
  ASSERT_EQ(got.plan.single_bin, choice.single_bin) << where;
  const auto bins = core::bins_for_plan(a, got.plan);
  ASSERT_EQ(got.plan.bin_kernels.size(), bins.occupied_bins().size())
      << where;
  for (const core::BinPlan& bp : got.plan.bin_kernels) {
    const auto vrows = std::span<const index_t>(bins.bin(bp.bin_id));
    EXPECT_EQ(bp.kernel, pred.predict_kernel(ref, choice.unit, bp.bin_id))
        << where << ", bin " << bp.bin_id;
    const fmt::BinFeatures want =
        serial_bin_features(a, vrows, got.plan.unit);
    const fmt::BinFeatures have =
        fmt::compute_bin_features(a, vrows, got.plan.unit);
    EXPECT_EQ(have.rows, want.rows) << where << ", bin " << bp.bin_id;
    EXPECT_EQ(have.nnz, want.nnz) << where << ", bin " << bp.bin_id;
    EXPECT_EQ(have.empty_rows, want.empty_rows) << where;
    EXPECT_EQ(have.max_len, want.max_len) << where;
    EXPECT_EQ(have.max_row_span, want.max_row_span) << where;
    EXPECT_EQ(have.avg_len, want.avg_len) << where;
    EXPECT_EQ(have.padding_ratio, want.padding_ratio) << where;
    EXPECT_EQ(bp.format, fmt::estimate_bin_format(want))
        << where << ", bin " << bp.bin_id;
  }
}

/// Planning features are integer reductions (parallel on large matrices)
/// and must not change a plan: the 16 representative analogues (capped at
/// 20k rows; crankseg_2 then still plans in parallel), 60 corpus matrices
/// drawn from SPMV_TEST_SEED, and one banded matrix above the parallel
/// bound.
TEST(Differential, PlansMatchSerialReferenceFeatures) {
  for (auto info : gen::representative_catalogue()) {
    info.scale *= std::min(1.0, 20000.0 / (static_cast<double>(
                                               info.paper_rows) *
                                           info.scale));
    expect_same_plan(gen::make_representative<float>(info, 3),
                     "representative " + info.name);
  }
  const std::uint64_t base = base_seed();
  gen::CorpusOptions opts;
  opts.count = 60;
  opts.seed = base;
  const auto specs = gen::sample_corpus(opts);
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_same_plan(gen::make_corpus_matrix<float>(specs[i]),
                     "corpus matrix " + std::to_string(i) + " (" +
                         gen::family_name(specs[i].family) +
                         "; replay with SPMV_TEST_SEED=" +
                         std::to_string(base) + ")");
  const auto big = gen::banded<float>(250000, 10, 0.9, base);
  ASSERT_TRUE(plans_in_parallel(big));
  expect_same_plan(big, "banded above the parallel bound");
}

TEST(Differential, RandomMatricesAllKernelsAllDispatchPaths) {
  const std::uint64_t base = base_seed();
  const auto backends = test_backends();
  std::printf("differential suite base seed: %llu, backends:",
              static_cast<unsigned long long>(base));
  for (const auto& b : backends)
    std::printf(" %s", exec::backend_cname(b->kind()));
  std::printf("\n");
  for (int i = 0; i < kMatrices; ++i) {
    const std::uint64_t seed = matrix_seed(base, i);
    const auto a = random_csr(seed);
    for (const auto& backend : backends) {
      // Alternate scalar types across the corpus; both stay covered for
      // any base seed.
      if (i % 2 == 0) {
        differential_one<double>(*backend, a, base, i, seed);
      } else {
        differential_one<float>(*backend, a, base, i, seed);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Per-bin physical layouts (spmv::fmt) against the exact reference: for
/// each random matrix, every non-CSR layout the builder accepts for every
/// occupied bin is materialized and executed on every format-capable
/// backend — single-vector and batched — and must reproduce the exact
/// product on the bin's covered rows while leaving the rest of y untouched
/// (the composition contract execute_plan relies on). Builder rejections
/// (std::length_error) are legitimate — the lazy layer negative-caches
/// them — but any other failure mode is a bug.
TEST(Differential, FormatLayoutsComposeExactly) {
  if (!formats_enabled()) GTEST_SKIP() << "SPMV_TEST_FORMAT=csr";
  std::vector<std::shared_ptr<const exec::Backend>> backends;
  for (const auto& b : test_backends())
    if (b->supports_formats()) backends.push_back(b);
  if (backends.empty())
    GTEST_SKIP() << "no format-capable backend selected";

  const std::uint64_t base = base_seed();
  constexpr int kFormatMatrices = 60;
  constexpr double kSentinel = -12345.0;
  for (int i = 0; i < kFormatMatrices; ++i) {
    const std::uint64_t seed = matrix_seed(base, 200000 + i);
    const auto a = random_csr(seed);
    const auto m = static_cast<std::size_t>(a.rows());
    const auto x =
        random_x(static_cast<std::size_t>(a.cols()), seed ^ 0x5EEDULL);
    const auto exact = kernels::spmv_exact(a, std::span<const double>(x));

    util::Xoshiro256 pick(seed ^ 0xF0F0ULL);
    const index_t units[] = {1, 3, 10, 37, 100, 1000};
    const index_t unit = units[pick.bounded(std::size(units))];
    const auto bins = binning::bin_matrix(a, unit);
    const int batch = 2 + static_cast<int>(pick.bounded(3));
    std::vector<double> xb(static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(a.cols()));
    std::vector<std::vector<double>> exact_b(
        static_cast<std::size_t>(batch));
    for (int b = 0; b < batch; ++b) {
      const auto col = random_x(static_cast<std::size_t>(a.cols()),
                                seed + 2000 + static_cast<std::uint64_t>(b));
      std::copy(col.begin(), col.end(),
                xb.begin() + static_cast<std::ptrdiff_t>(
                                 static_cast<std::size_t>(b) * col.size()));
      exact_b[static_cast<std::size_t>(b)] =
          kernels::spmv_exact(a, std::span<const double>(col));
    }

    for (const auto& backend : backends) {
      const std::string bname = exec::backend_name(backend->kind()) + "/";
      for (const int b : bins.occupied_bins()) {
        const auto vspan = std::span<const index_t>(bins.bin(b));
        for (const fmt::FormatKind kind : fmt::all_formats()) {
          if (kind == fmt::FormatKind::Csr) continue;
          fmt::BinLayout<double> layout;
          try {
            layout = fmt::build_bin_layout(a, vspan, bins.unit(), kind, b);
          } catch (const std::length_error&) {
            continue;  // unsuitable bin: the builder's documented refusal
          }
          const std::string where =
              ctx(base, 200000 + i, seed,
                  bname + "layout U=" + std::to_string(unit) + " bin " +
                      std::to_string(b) + " " + fmt::format_name(kind));
          std::vector<bool> covered(m, false);
          for (const index_t r : layout_rows(layout))
            covered[static_cast<std::size_t>(r)] = true;

          std::vector<double> y(m, kSentinel);
          backend->run_layout(a, layout, std::span<const double>(x),
                              std::span<double>(y));
          for (std::size_t r = 0; r < m; ++r) {
            if (covered[r]) {
              const double scale = std::abs(exact[r]) + 1.0;
              ASSERT_NEAR(y[r], exact[r], 1e-9 * scale)
                  << where << ", row " << r;
            } else {
              ASSERT_EQ(y[r], kSentinel)
                  << where << ", uncovered row " << r << " was touched";
            }
          }

          std::vector<double> yb(static_cast<std::size_t>(batch) * m,
                                 kSentinel);
          backend->run_layout_batch(a, layout, std::span<const double>(xb),
                                    std::span<double>(yb), batch);
          for (int bc = 0; bc < batch; ++bc) {
            const auto col =
                std::span<const double>(yb).subspan(
                    static_cast<std::size_t>(bc) * m, m);
            const auto& ex = exact_b[static_cast<std::size_t>(bc)];
            for (std::size_t r = 0; r < m; ++r) {
              if (covered[r]) {
                const double scale = std::abs(ex[r]) + 1.0;
                ASSERT_NEAR(col[r], ex[r], 1e-9 * scale)
                    << where << ", batch col " << bc << ", row " << r;
              } else {
                ASSERT_EQ(col[r], kSentinel)
                    << where << ", batch col " << bc << ", uncovered row "
                    << r << " was touched";
              }
            }
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

/// Sharded serving vs unsharded execution over the randomized corpus: for
/// each matrix, a ShardedService at a random K must (a) track the exact
/// reference within kernel tolerance and (b) assemble each shard's output
/// rows BIT-identically to a standalone runtime built from that shard's own
/// sub-matrix and plan — the scatter-gather path may transport results but
/// never touch them. Serving runs native plans only, so this runs on the
/// native backend whatever SPMV_TEST_BACKEND selects; with formats enabled,
/// half the corpus also plans with --format auto so per-bin layouts ride
/// through the sharded path.
TEST(Differential, ShardedScatterGatherMatchesStandaloneShards) {
  const std::uint64_t base = base_seed();
  const bool formats = formats_enabled();
  const core::HeuristicPredictor pred;
  constexpr int kShardMatrices = 24;
  for (int i = 0; i < kShardMatrices; ++i) {
    const std::uint64_t seed = matrix_seed(base, 300000 + i);
    const auto ad = random_csr(seed);
    const auto a = std::make_shared<const CsrMatrix<float>>(as_type<float>(ad));
    util::Xoshiro256 pick(seed ^ 0x5AA5ULL);
    const int shards = 2 + static_cast<int>(pick.bounded(3));  // 2..4
    const bool use_auto = formats && i % 2 == 1;

    const auto xd =
        random_x(static_cast<std::size_t>(ad.cols()), seed ^ 0x7E57ULL);
    const std::vector<float> x(xd.begin(), xd.end());
    const auto exact = kernels::spmv_exact(ad, std::span<const double>(xd));

    const std::string where =
        ctx(base, 300000 + i, seed,
            "native/sharded K=" + std::to_string(shards) +
                (use_auto ? " format=auto" : " format=csr"));
    shard::ShardedOptions opts;
    opts.partition.shards = shards;
    opts.format = use_auto ? fmt::FormatMode::Auto : fmt::FormatMode::Csr;
    shard::ShardedService<float> service(a, pred, opts);
    const std::vector<float> y = service.run("default", x);

    ASSERT_EQ(y.size(), static_cast<std::size_t>(a->rows())) << where;
    expect_close<float>(y, exact, where);

    const auto infos = service.shard_infos();
    for (const auto& info : infos) {
      const auto& sub =
          *service.shards().matrices[static_cast<std::size_t>(info.index)];
      EXPECT_EQ(info.plan.backend, exec::BackendKind::Native) << where;
      const auto rt = core::Tuner<float>(sub).plan(info.plan).build();
      std::vector<float> ys(static_cast<std::size_t>(sub.rows()));
      rt.run(std::span<const float>(x), std::span<float>(ys));
      for (std::size_t r = 0; r < ys.size(); ++r) {
        ASSERT_EQ(y[static_cast<std::size_t>(info.range.row_begin) + r],
                  ys[r])
            << where << ", shard " << info.index << " local row " << r
            << " not bit-identical";
      }
      if (::testing::Test::HasFatalFailure()) break;
    }
    service.shutdown();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Degenerate shapes the random generator only sometimes produces get one
/// guaranteed pass each: all-empty, single row, single column.
TEST(Differential, DegenerateShapesEverySeed) {
  const std::uint64_t base = base_seed();
  const auto backends = test_backends();
  const struct {
    index_t rows, cols;
    bool empty;
  } shapes[] = {{17, 9, true}, {1, 200, false}, {200, 1, false}};
  int index = 0;
  for (const auto& sh : shapes) {
    const std::uint64_t seed = matrix_seed(base, 100000 + index);
    util::Xoshiro256 rng(seed);
    CooMatrix<double> coo(sh.rows, sh.cols);
    if (!sh.empty) {
      for (index_t r = 0; r < sh.rows; ++r)
        for (index_t c = 0; c < sh.cols; ++c)
          if (rng.uniform() < 0.3) coo.add(r, c, rng.uniform(-1.0, 1.0));
    }
    const auto a = coo_to_csr(std::move(coo));
    const auto x = random_x(static_cast<std::size_t>(a.cols()), seed);
    const auto exact = kernels::spmv_exact(a, std::span<const double>(x));
    for (const auto& backend : backends) {
      for (KernelId id : kernels::all_kernels()) {
        std::vector<double> y(static_cast<std::size_t>(a.rows()), -12345.0);
        backend->run_full(id, a, std::span<const double>(x),
                          std::span<double>(y));
        expect_close<double>(
            y, exact,
            ctx(base, 100000 + index, seed,
                exec::backend_name(backend->kind()) + "/degenerate " +
                    kernels::kernel_name(id)));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    index += 1;
  }
}

/// The true-SpMM sweep for one scalar type over one matrix, one backend,
/// and one format mode: Y = A·X through run_spmm must be BIT-identical,
/// per output column, to `width` single-vector run() calls on the same
/// runtime (same plan, same materialized layouts) — the contract
/// core::execute_plan_spmm documents. Widths cross the native register-
/// tile width and the kMaxNativeBatch cap.
template <typename T>
void spmm_differential_one(const exec::Backend& backend,
                           const CsrMatrix<double>& ad, bool use_auto,
                           std::uint64_t base, int index,
                           std::uint64_t seed) {
  const std::string bname = exec::backend_name(backend.kind()) +
                            (use_auto ? "/auto/" : "/csr/");
  const auto a = as_type<T>(ad);
  const core::HeuristicPredictor pred;
  // Eager layouts: both paths must execute the same physical formats, so
  // the sweep never hands the amortization policy a way to diverge them.
  const auto rt = core::Tuner(a)
                      .predictor(pred)
                      .backend(backend.kind())
                      .formats(use_auto ? fmt::FormatMode::Auto
                                        : fmt::FormatMode::Csr)
                      .format_policy({.min_reuse = 0})
                      .build();
  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  for (const int width : {1, 3, 8, 32, 64}) {
    const auto w = static_cast<std::size_t>(width);
    std::vector<T> xb(n * w);
    for (std::size_t c = 0; c < w; ++c) {
      const auto col = random_x(n, seed + 3000 + c * 17 +
                                       static_cast<std::uint64_t>(width));
      for (std::size_t j = 0; j < n; ++j)
        xb[c * n + j] = static_cast<T>(col[j]);
    }
    std::vector<T> yb(m * w, T(-12345));
    rt.run_spmm(std::span<const T>(xb), std::span<T>(yb), width);
    std::vector<T> yref(m, T(-54321));
    for (std::size_t c = 0; c < w; ++c) {
      rt.run(std::span<const T>(xb).subspan(c * n, n), std::span<T>(yref));
      for (std::size_t r = 0; r < m; ++r) {
        ASSERT_EQ(yb[c * m + r], yref[r])
            << ctx(base, index, seed,
                   bname + "spmm width=" + std::to_string(width)) +
                   ", column " + std::to_string(c) + ", row " +
                   std::to_string(r) + " not bit-identical";
      }
    }
  }
}

TEST(Differential, SpmmBitIdenticalToPerColumnRuns) {
  const std::uint64_t base = base_seed();
  const auto backends = test_backends();
  const bool formats = formats_enabled();
  constexpr int kSpmmMatrices = 40;
  for (int i = 0; i < kSpmmMatrices; ++i) {
    const std::uint64_t seed = matrix_seed(base, 400000 + i);
    const auto ad = random_csr(seed);
    for (const auto& backend : backends) {
      for (const bool use_auto : {false, true}) {
        if (use_auto && (!formats || !backend->supports_formats())) continue;
        if (i % 2 == 0)
          spmm_differential_one<double>(*backend, ad, use_auto, base,
                                        400000 + i, seed);
        else
          spmm_differential_one<float>(*backend, ad, use_auto, base,
                                       400000 + i, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// spmm.fallback_columns regression: a plan with one Vector bin and one
/// Serial bin. Clsim has no batched Vector, so it must count exactly
/// `width` fallback columns per Vector launch (its Serial bin runs
/// batched), and the profiled execute_plan_spmm must attribute exactly
/// that delta to the run; native blocks every shape and counts nothing.
TEST(Differential, SpmmFallbackColumnsCounted) {
  const std::uint64_t base = base_seed();
  const std::uint64_t seed = matrix_seed(base, 500000);
  // Row lengths 1..60 at unit 1 occupy several bins: the first runs
  // Vector, every other one Serial.
  const auto a = gen::power_law<double>(600, 600, 2.0, 60, seed);
  const prof::ScopedEnable counters_on;
  constexpr int kWidth = 4;
  const auto x = random_x(static_cast<std::size_t>(a.cols()) * kWidth,
                          seed ^ 0xFA11ULL);
  const auto bins = binning::bin_matrix(a, 1);
  ASSERT_GE(bins.occupied_bins().size(), 2u);
  core::Plan plan;
  for (const int b : bins.occupied_bins())
    plan.bin_kernels.push_back(
        {b, plan.bin_kernels.empty() ? KernelId::Vector : KernelId::Serial});
  constexpr std::uint64_t kVectorLaunches = 1;
  for (const auto& backend : test_backends()) {
    const std::string where =
        ctx(base, 500000, seed,
            exec::backend_name(backend->kind()) + "/spmm-fallback");
    const auto rt = core::Tuner(a).plan(plan).backend(backend->kind()).build();
    std::vector<double> y(static_cast<std::size_t>(a.rows()) * kWidth);
    prof::RunProfile profile;
    const std::uint64_t before = prof::spmm_fallback_columns();
    rt.run_spmm(std::span<const double>(x), std::span<double>(y), kWidth,
                &profile);
    const std::uint64_t delta = prof::spmm_fallback_columns() - before;
    const std::uint64_t expected =
        backend->kind() == exec::BackendKind::Clsim
            ? kWidth * kVectorLaunches
            : 0;
    EXPECT_EQ(delta, expected) << where;
    EXPECT_EQ(profile.spmm_fallback_columns, delta)
        << where << ": profiled delta disagrees with the counter";
  }
}

/// 200 iterations of normalized (block) power iteration through an
/// IterativeSession, bit-compared every step against a hand-rolled loop
/// that runs the per-column single-vector reference with the identical
/// normalization. The session serves width 2, so the solver loop rides the
/// true-SpMM path while the hand loop exercises the bit-identity contract
/// column by column. Sessions run native plans only, so this runs on the
/// native backend whatever SPMV_TEST_BACKEND selects.
TEST(Differential, PowerIterationSessionBitIdenticalToHandRolledLoop) {
  const std::uint64_t base = base_seed();
  const std::uint64_t seed = matrix_seed(base, 600000);
  util::Xoshiro256 rng(seed);
  constexpr index_t kN = 96;
  constexpr int kWidth = 2;
  constexpr int kIters = 200;
  CooMatrix<double> coo(kN, kN);
  for (index_t r = 0; r < kN; ++r) {
    coo.add(r, r, 1.0 + rng.uniform());  // dominant diagonal keeps it tame
    for (index_t c = 0; c < kN; ++c)
      if (c != r && rng.uniform() < 0.06)
        coo.add(r, c, rng.uniform(-1.0, 1.0));
  }
  const auto a =
      std::make_shared<const CsrMatrix<double>>(coo_to_csr(std::move(coo)));
  const auto n = static_cast<std::size_t>(kN);
  const core::HeuristicPredictor pred;

  const std::string where = ctx(base, 600000, seed, "native/power-iteration");
  iter::SessionOptions sopts;
  sopts.spmm_width = kWidth;
  iter::IterativeSession<double> session(a, pred, sopts);
  // The hand loop plans through the same predictor on the same backend
  // kind, so both sides execute the same plan.
  const auto rt = core::Tuner(*a)
                      .predictor(pred)
                      .backend(exec::BackendKind::Native)
                      .build();

  std::vector<double> x0(n * kWidth);
  for (std::size_t i = 0; i < x0.size(); ++i)
    x0[i] = 1.0 + 0.001 * static_cast<double>(i % 7);
  session.seed(std::span<const double>(x0));
  std::vector<double> hx = x0;
  std::vector<double> hy(n * kWidth);

  for (int it = 0; it < kIters; ++it) {
    (void)session.step();
    const std::span<double> iterate = session.iterate();
    for (int c = 0; c < kWidth; ++c) {
      const auto off = static_cast<std::size_t>(c) * n;
      rt.run(std::span<const double>(hx).subspan(off, n),
             std::span<double>(hy).subspan(off, n));
    }
    // Identical per-column inf-norm normalization on both sides; the
    // comparison is AFTER normalizing, so drift cannot hide in scale.
    for (int c = 0; c < kWidth; ++c) {
      const auto off = static_cast<std::size_t>(c) * n;
      double snorm = 0.0;
      double hnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        snorm = std::max(snorm, std::abs(iterate[off + i]));
        hnorm = std::max(hnorm, std::abs(hy[off + i]));
      }
      ASSERT_NE(hnorm, 0.0) << where << ": iterate collapsed to zero";
      for (std::size_t i = 0; i < n; ++i) {
        iterate[off + i] /= snorm;
        hy[off + i] /= hnorm;
        ASSERT_EQ(iterate[off + i], hy[off + i])
            << where << ", iteration " << it << ", column " << c
            << ", row " << i << " not bit-identical";
      }
    }
    hx.swap(hy);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const auto st = session.stats();
  EXPECT_EQ(st.iterations, static_cast<std::uint64_t>(kIters)) << where;
}

}  // namespace
