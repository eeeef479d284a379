// Tests for the spmv::exec backend seam itself: name round-trips, the
// shared-instance contract of shared_backend()/wrap_engine(), ExecContext
// validation, batch argument validation at the interface layer, numeric
// clsim-vs-native parity on a few structured matrices (the full random
// corpus lives in test_differential), and the native work list's bits
// against per-bin launches.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "autospmv.hpp"
#include "kernels/reference.hpp"
#include "util/threads.hpp"

namespace {

using namespace spmv;
using kernels::KernelId;

template <typename T>
std::vector<T> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

// --- Names and registry ---------------------------------------------------

TEST(ExecNames, RoundTripAndStableStrings) {
  ASSERT_EQ(exec::all_backends().size(),
            static_cast<std::size_t>(exec::kBackendCount));
  for (auto kind : exec::all_backends()) {
    const auto name = exec::backend_name(kind);
    EXPECT_EQ(exec::backend_from_name(name), kind);
    const auto parsed = exec::try_backend_from_name(name);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    // cname points at a static string equal to the allocating name.
    EXPECT_EQ(name, exec::backend_cname(kind));
  }
  EXPECT_EQ(exec::backend_name(exec::BackendKind::Clsim), "clsim");
  EXPECT_EQ(exec::backend_name(exec::BackendKind::Native), "native");
}

TEST(ExecNames, UnknownNamesThrowOrReturnNullopt) {
  EXPECT_THROW((void)exec::backend_from_name("turbo"), std::invalid_argument);
  EXPECT_THROW((void)exec::backend_from_name(""), std::invalid_argument);
  EXPECT_FALSE(exec::try_backend_from_name("turbo").has_value());
  EXPECT_FALSE(exec::try_backend_from_name("").has_value());
  EXPECT_FALSE(exec::try_backend_from_name("Clsim").has_value());  // exact
}

// --- Shared instances -----------------------------------------------------

TEST(ExecShared, SharedBackendReturnsProcessWideSingletons) {
  for (auto kind : exec::all_backends()) {
    const auto a = exec::shared_backend(kind);
    const auto b = exec::shared_backend(kind);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get()) << exec::backend_name(kind);
    EXPECT_EQ(a->kind(), kind);
    EXPECT_STREQ(a->name(), exec::backend_cname(kind));
  }
  EXPECT_NE(exec::shared_backend(exec::BackendKind::Clsim).get(),
            exec::shared_backend(exec::BackendKind::Native).get());
}

TEST(ExecShared, WrapEngineShortCircuitsTheDefaultEngine) {
  const auto wrapped = exec::wrap_engine(clsim::default_engine());
  EXPECT_EQ(wrapped.get(),
            exec::shared_backend(exec::BackendKind::Clsim).get());
  EXPECT_EQ(wrapped->engine(), &clsim::default_engine());

  // A caller-owned engine gets its own wrapper bound to that engine.
  clsim::Engine own;
  const auto own_wrapped = exec::wrap_engine(own);
  EXPECT_NE(own_wrapped.get(), wrapped.get());
  EXPECT_EQ(own_wrapped->engine(), &own);

  // The native backend never touches clsim.
  EXPECT_EQ(exec::shared_backend(exec::BackendKind::Native)->engine(),
            nullptr);
}

TEST(ExecContext, NullBackendThrowsDefaultIsClsim) {
  EXPECT_THROW(exec::ExecContext(nullptr), std::invalid_argument);
  const exec::ExecContext ctx;
  EXPECT_EQ(ctx.kind(), exec::BackendKind::Clsim);
  EXPECT_EQ(&ctx.backend(),
            exec::shared_backend(exec::BackendKind::Clsim).get());
}

// --- Interface-layer validation -------------------------------------------

TEST(ExecValidation, BatchExtentsAndWidthChecked) {
  const auto a = gen::diagonal<float>(64);
  const auto bins = binning::bin_matrix(a, 8);
  const auto vrows = bins.bin(bins.occupied_bins().front());
  std::vector<float> x(64 * 2), y(64 * 2);
  for (auto kind : exec::all_backends()) {
    const auto backend = exec::shared_backend(kind);
    EXPECT_THROW(backend->run_spmm(KernelId::Serial, a,
                                   std::span<const float>(x),
                                   std::span<float>(y), 0, vrows, 8),
                 std::invalid_argument)
        << exec::backend_name(kind);
    EXPECT_THROW(backend->run_spmm(KernelId::Serial, a,
                                   std::span<const float>(x),
                                   std::span<float>(y), 3, vrows, 8),
                 std::invalid_argument)
        << exec::backend_name(kind);
  }
}

// --- Numeric parity -------------------------------------------------------

/// clsim and native must agree (to scalar-type tolerance against the exact
/// reference) on structured matrices; the full 200-matrix random corpus is
/// covered by test_differential.
TEST(ExecParity, BackendsAgreeOnStructuredMatrices) {
  const CsrMatrix<double> mats[] = {
      gen::fixed_degree<double>(500, 500, 3, 5),
      gen::power_law<double>(400, 400, 2.0, 60, 7),
      gen::fem_blocks<double>(40, 8, 40, 0.3, 9),
  };
  for (const auto& a : mats) {
    const auto x =
        random_vector<double>(static_cast<std::size_t>(a.cols()), 11);
    const auto exact = kernels::spmv_exact(a, std::span<const double>(x));
    const auto bins = binning::bin_matrix(a, 32);
    for (auto kind : exec::all_backends()) {
      const auto backend = exec::shared_backend(kind);
      for (KernelId id : kernels::all_kernels()) {
        std::vector<double> y(static_cast<std::size_t>(a.rows()), -1.0);
        for (int b : bins.occupied_bins())
          backend->run_binned(id, a, std::span<const double>(x),
                              std::span<double>(y), bins.bin(b), 32);
        for (std::size_t i = 0; i < y.size(); ++i)
          ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0))
              << exec::backend_name(kind) << "/"
              << kernels::kernel_name(id) << " row " << i;
      }
    }
  }
}

// --- Native work list ------------------------------------------------------

/// Rows of six lengths (0, 8, 14, 20, 26, 32) around the diagonal, so at
/// U = 1 every length is a bin of equal rows: empty rows for a zeroing-only
/// COO bin, and equal lengths for sliced Dcsr.
template <typename T>
CsrMatrix<T> six_lengths(index_t n) {
  std::vector<offset_t> rp{0};
  std::vector<index_t> ci;
  std::vector<T> v;
  util::Xoshiro256 rng(23);
  for (index_t r = 0; r < n; ++r) {
    const index_t len = (r % 6) * 6 + (r % 6 == 0 ? 0 : 2);
    const index_t first = std::clamp<index_t>(r - len / 2, 0, n - len);
    for (index_t k = 0; k < len; ++k) {
      ci.push_back(first + k);
      v.push_back(static_cast<T>(rng.uniform(-1.0, 1.0)));
    }
    rp.push_back(static_cast<offset_t>(ci.size()));
  }
  return CsrMatrix<T>(n, n, std::move(rp), std::move(ci), std::move(v));
}

template <typename T>
void work_list_matches_per_bin_launches() {
  // About 140k nonzeros plus rows: enough work for a team of four.
  const auto a = six_lengths<T>(8000);
  const auto bins = binning::bin_matrix(a, 1);
  const auto& backend = *exec::shared_backend(exec::BackendKind::Native);
  core::Plan plan;
  plan.backend = exec::BackendKind::Native;
  const fmt::FormatKind formats[] = {fmt::FormatKind::Coo,
                                     fmt::FormatKind::Ell,
                                     fmt::FormatKind::Dcsr,
                                     fmt::FormatKind::Csr};
  const KernelId kernels[] = {KernelId::Serial, KernelId::Sub4,
                              KernelId::Vector};
  int i = 0;
  for (const int b : bins.occupied_bins()) {
    plan.bin_kernels.push_back({b, kernels[i % 3], formats[i % 4]});
    ++i;
  }
  fmt::PlanLayouts<T> layouts({.min_reuse = 0});
  // Every bin of the plan resolves to the format it asks for, and the Dcsr
  // bin is sliced.
  bool sliced = false;
  for (const core::BinPlan& bp : plan.bin_kernels) {
    if (bp.format == fmt::FormatKind::Csr) continue;
    const auto l = layouts.acquire(a, bins.bin(bp.bin_id), 1, bp.format,
                                   bp.bin_id);
    ASSERT_NE(l, nullptr) << fmt::format_name(bp.format);
    if (l->kind == fmt::FormatKind::Dcsr)
      sliced = sliced || l->dcsr.slice == fmt::kDcsrSlice;
  }
  ASSERT_TRUE(sliced);

  const auto m = static_cast<std::size_t>(a.rows());
  const auto n = static_cast<std::size_t>(a.cols());
  const int budget = util::thread_budget();
  for (const int width : {1, 8}) {
    const auto w = static_cast<std::size_t>(width);
    const auto x = random_vector<T>(n * w, 31 + w);
    // Reference: one launch per bin, each run whole on one thread.
    std::vector<T> ref(m * w, T(-7));
    util::set_thread_budget(1);
    for (const core::BinPlan& bp : plan.bin_kernels) {
      const auto& vrows = bins.bin(bp.bin_id);
      if (bp.format == fmt::FormatKind::Csr) {
        backend.run_spmm(bp.kernel, a, std::span<const T>(x),
                         std::span<T>(ref), width, vrows, 1);
      } else {
        const auto l = layouts.acquire(a, vrows, 1, bp.format, bp.bin_id);
        backend.run_layout_batch(a, *l, std::span<const T>(x),
                                 std::span<T>(ref), width);
      }
    }
    // The plan as one work list, cut for a team of four.
    util::set_thread_budget(4);
    std::vector<T> y(m * w, T(-9));
    core::execute_plan_spmm(backend, a, std::span<const T>(x),
                            std::span<T>(y), width, bins, plan, nullptr,
                            &layouts);
    EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(T)), 0)
        << "width " << width;
  }
  util::set_thread_budget(budget);
}

TEST(NativeWorkList, PlanRunMatchesPerBinLaunchesBitForBit) {
  work_list_matches_per_bin_launches<float>();
  work_list_matches_per_bin_launches<double>();
}

TEST(NativeWorkList, BadTasksThrowBeforeAnyWork) {
  const auto a = gen::diagonal<float>(64);
  const auto bins = binning::bin_matrix(a, 8);
  std::vector<float> x(64, 1.0f), y(64, 0.0f);
  const auto& backend = *exec::shared_backend(exec::BackendKind::Native);
  exec::BinTask<float> bad;
  bad.kernel = static_cast<KernelId>(kernels::kKernelCount);
  bad.vrows = bins.bin(bins.occupied_bins().front());
  bad.unit = 8;
  const std::span<const exec::BinTask<float>> tasks(&bad, 1);
  EXPECT_THROW(backend.run_bins(a, tasks, std::span<const float>(x),
                                std::span<float>(y), 1),
               std::invalid_argument);
  EXPECT_THROW(backend.run_bins(a, {}, std::span<const float>(x),
                                std::span<float>(y), 2),
               std::invalid_argument);
}

TEST(ThreadBudget, SetOnOneThreadGovernsOnlyThatThread) {
  const int before = util::thread_budget();
  int inside = 0;
  std::thread t([&] {
    util::set_thread_budget(1);
    inside = util::thread_budget();
  });
  t.join();
  EXPECT_EQ(inside, 1);
  EXPECT_EQ(util::thread_budget(), before);
  EXPECT_EQ(util::thread_share(8, 3), 2);
  EXPECT_EQ(util::thread_share(2, 4), 1);
}

TEST(ThreadBudget, SharedThreadsSplitByBusyWorkers) {
  util::SharedThreads pool(4);
  const int before = util::thread_budget();
  {
    // A lone worker gets the whole total.
    const util::SharedThreads::Lease alone(pool);
    EXPECT_EQ(alone.threads(), 4);
    EXPECT_EQ(util::thread_budget(), 4);
  }
  util::set_thread_budget(before);
  // A second worker that arrives while the first holds every thread waits
  // for them, then takes its half: it was one of two busy workers.
  auto first = std::make_unique<util::SharedThreads::Lease>(pool);
  std::atomic<int> second_threads{0};
  std::thread second([&] {
    const util::SharedThreads::Lease lease(pool);
    second_threads.store(lease.threads());
  });
  while (pool.busy() < 2) std::this_thread::yield();
  EXPECT_EQ(second_threads.load(), 0);
  first.reset();
  second.join();
  EXPECT_EQ(second_threads.load(), 2);
  EXPECT_EQ(pool.busy(), 0);
}

}  // namespace
