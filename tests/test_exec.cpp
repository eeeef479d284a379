// Tests for the spmv::exec backend seam itself: name round-trips, the
// shared-instance contract of shared_backend()/wrap_engine(), ExecContext
// validation, batch argument validation at the interface layer, numeric
// clsim-vs-native parity on a few structured matrices (the full random
// corpus lives in test_differential).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "autospmv.hpp"
#include "kernels/reference.hpp"

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

}  // namespace
