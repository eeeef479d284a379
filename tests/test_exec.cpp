// Tests for the spmv::exec backend seam itself: name round-trips, the
// shared-instance contract of shared_backend(), argument validation of
// every public form at the interface layer, the one-hook contract (each
// single-bin form reaches do_run_bins as one task), numeric
// clsim-vs-native parity on a few structured matrices (the full random
// corpus lives in test_differential), and the native work list's bits
// against per-bin launches.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
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
  // The clsim instance drives the process-wide engine; the native backend
  // never touches clsim.
  EXPECT_EQ(exec::shared_backend(exec::BackendKind::Clsim)->engine(),
            &clsim::default_engine());
  EXPECT_EQ(exec::shared_backend(exec::BackendKind::Native)->engine(),
            nullptr);
}

TEST(ExecShared, TunerDefaultsToTheSharedClsimBackend) {
  const auto a = gen::diagonal<float>(64);
  const core::HeuristicPredictor pred;
  const auto rt = core::Tuner(a).predictor(pred).build();
  EXPECT_EQ(rt.backend().kind(), exec::BackendKind::Clsim);
  EXPECT_EQ(&rt.backend(),
            exec::shared_backend(exec::BackendKind::Clsim).get());
  EXPECT_EQ(rt.plan().backend, exec::BackendKind::Clsim);
}

// --- Interface-layer validation -------------------------------------------

/// One bin of a 64-row diagonal at U = 8 and its ELL layout: the operands
/// every public form is driven with below.
struct OneBin {
  CsrMatrix<float> a = gen::diagonal<float>(64);
  binning::BinSet bins = binning::bin_matrix(a, 8);
  int bin = bins.occupied_bins().front();
  std::span<const index_t> vrows = bins.bin(bin);
  fmt::PlanLayouts<float> layouts{{.min_reuse = 0}};
  std::shared_ptr<const fmt::BinLayout<float>> layout =
      layouts.acquire(a, vrows, 8, fmt::FormatKind::Ell, bin);
};

/// A public form driven over (x, y, width); forms without a width ignore it.
using Form = std::function<void(const exec::Backend&, std::span<const float>,
                                std::span<float>, int)>;

struct NamedForm {
  const char* name;
  bool has_width;
  Form run;
};

std::vector<NamedForm> public_forms(const OneBin& o) {
  return {
      {"run_binned", false,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int) {
         b.run_binned(KernelId::Serial, o.a, x, y, o.vrows, 8);
       }},
      {"run_full", false,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int) {
         b.run_full(KernelId::Serial, o.a, x, y);
       }},
      {"run_spmm", true,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int w) {
         b.run_spmm(KernelId::Serial, o.a, x, y, w, o.vrows, 8);
       }},
      {"run_layout", false,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int) { b.run_layout(o.a, *o.layout, x, y); }},
      {"run_layout_batch", true,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int w) {
         b.run_layout_batch(o.a, *o.layout, x, y, w);
       }},
      {"run_bins", true,
       [&o](const exec::Backend& b, std::span<const float> x,
            std::span<float> y, int w) {
         const exec::BinTask<float> task{KernelId::Serial, o.vrows, 8};
         b.run_bins(o.a, std::span<const exec::BinTask<float>>(&task, 1), x,
                    y, w);
       }},
  };
}

/// Every public form x {width 0, short x, short y} on both backends: each
/// is rejected with std::invalid_argument before any kernel writes y.
TEST(ExecValidation, BatchExtentsAndWidthChecked) {
  const OneBin o;
  ASSERT_NE(o.layout, nullptr);
  for (auto kind : exec::all_backends()) {
    const auto backend = exec::shared_backend(kind);
    for (const NamedForm& f : public_forms(o)) {
      const int w = f.has_width ? 2 : 1;
      const std::size_t n = 64 * static_cast<std::size_t>(w);
      const std::vector<float> x(n), x_short(n - 1);
      std::vector<float> y(n), y_short(n - 1);
      const std::string where = exec::backend_name(kind) + "/" + f.name;
      if (f.has_width) {
        EXPECT_THROW(f.run(*backend, x, y, 0), std::invalid_argument)
            << where << " width 0";
      }
      EXPECT_THROW(f.run(*backend, x_short, y, w), std::invalid_argument)
          << where << " short x";
      EXPECT_THROW(f.run(*backend, x, y_short, w), std::invalid_argument)
          << where << " short y";
    }
  }
}

// --- The one run hook -----------------------------------------------------

/// A backend that overrides only the run hook and records what reaches it.
class RecordingBackend final : public exec::Backend {
 public:
  struct Call {
    KernelId kernel;
    const index_t* vrows_data;
    std::vector<index_t> vrows;
    index_t unit;
    const fmt::BinLayout<float>* layout;
    const float* x;
    const float* y;
    int width;
  };

  explicit RecordingBackend(bool formats) : formats_(formats) {}

  [[nodiscard]] exec::BackendKind kind() const override {
    return exec::BackendKind::Native;
  }
  [[nodiscard]] bool supports_formats() const override { return formats_; }

  mutable std::vector<std::vector<Call>> calls;
  mutable int double_calls = 0;

 protected:
  void do_run_bins(const CsrMatrix<float>&,
                   std::span<const exec::BinTask<float>> tasks,
                   std::span<const float> x, std::span<float> y,
                   int width) const override {
    std::vector<Call>& call = calls.emplace_back();
    for (const exec::BinTask<float>& t : tasks)
      call.push_back({t.kernel, t.vrows.data(),
                      {t.vrows.begin(), t.vrows.end()}, t.unit, t.layout,
                      x.data(), y.data(), width});
  }
  void do_run_bins(const CsrMatrix<double>&,
                   std::span<const exec::BinTask<double>>,
                   std::span<const double>, std::span<double>,
                   int) const override {
    double_calls += 1;
  }

 private:
  bool formats_;
};

TEST(ExecOneHook, EveryPublicFormArrivesAsOneTask) {
  const OneBin o;
  ASSERT_NE(o.layout, nullptr);
  const RecordingBackend be(true);
  std::vector<float> x1(64), y1(64), x3(64 * 3), y3(64 * 3);
  const std::span<const float> cx1(x1), cx3(x3);
  be.run_binned(KernelId::Sub4, o.a, cx1, std::span<float>(y1), o.vrows, 8);
  be.run_full(KernelId::Vector, o.a, cx1, std::span<float>(y1));
  be.run_spmm(KernelId::Sub16, o.a, cx3, std::span<float>(y3), 3, o.vrows, 8);
  be.run_layout(o.a, *o.layout, cx1, std::span<float>(y1));
  be.run_layout_batch(o.a, *o.layout, cx3, std::span<float>(y3), 3);
  ASSERT_EQ(be.calls.size(), 5u);
  for (const auto& call : be.calls) ASSERT_EQ(call.size(), 1u);

  const auto& binned = be.calls[0][0];
  EXPECT_EQ(binned.kernel, KernelId::Sub4);
  EXPECT_EQ(binned.vrows_data, o.vrows.data());  // the caller's rows
  EXPECT_EQ(binned.vrows.size(), o.vrows.size());
  EXPECT_EQ(binned.unit, 8);
  EXPECT_EQ(binned.layout, nullptr);
  EXPECT_EQ(binned.x, x1.data());
  EXPECT_EQ(binned.y, y1.data());
  EXPECT_EQ(binned.width, 1);

  // run_full: every row, as one bin of granularity 1.
  const auto& full = be.calls[1][0];
  EXPECT_EQ(full.kernel, KernelId::Vector);
  ASSERT_EQ(full.vrows.size(), 64u);
  for (std::size_t i = 0; i < full.vrows.size(); ++i)
    EXPECT_EQ(full.vrows[i], static_cast<index_t>(i));
  EXPECT_EQ(full.unit, 1);
  EXPECT_EQ(full.layout, nullptr);
  EXPECT_EQ(full.width, 1);

  const auto& spmm = be.calls[2][0];
  EXPECT_EQ(spmm.kernel, KernelId::Sub16);
  EXPECT_EQ(spmm.vrows_data, o.vrows.data());
  EXPECT_EQ(spmm.unit, 8);
  EXPECT_EQ(spmm.layout, nullptr);
  EXPECT_EQ(spmm.x, x3.data());
  EXPECT_EQ(spmm.y, y3.data());
  EXPECT_EQ(spmm.width, 3);

  const auto& layout = be.calls[3][0];
  EXPECT_EQ(layout.layout, o.layout.get());
  EXPECT_EQ(layout.width, 1);
  const auto& layout_batch = be.calls[4][0];
  EXPECT_EQ(layout_batch.layout, o.layout.get());
  EXPECT_EQ(layout_batch.width, 3);

  // The double forms reach the double hook.
  const auto ad = gen::diagonal<double>(64);
  std::vector<double> xd(64), yd(64);
  be.run_full(KernelId::Serial, ad, std::span<const double>(xd),
              std::span<double>(yd));
  EXPECT_EQ(be.double_calls, 1);
  EXPECT_EQ(be.calls.size(), 5u);
}

TEST(ExecOneHook, LayoutTaskOnACsrOnlyBackendThrowsBeforeTheHook) {
  const OneBin o;
  ASSERT_NE(o.layout, nullptr);
  const RecordingBackend be(false);
  std::vector<float> x(64 * 2), y(64 * 2);
  const std::span<const float> cx1(x.data(), 64), cx2(x);
  const std::span<float> y1(y.data(), 64), y2(y);
  EXPECT_THROW(be.run_layout(o.a, *o.layout, cx1, y1), std::logic_error);
  EXPECT_THROW(be.run_layout_batch(o.a, *o.layout, cx2, y2, 2),
               std::logic_error);
  // A layout anywhere in a plan's list rejects the whole list.
  exec::BinTask<float> tasks[2] = {{KernelId::Serial, o.vrows, 8},
                                   {KernelId::Serial, o.vrows, 8}};
  tasks[1].layout = o.layout.get();
  EXPECT_THROW(be.run_bins(o.a, std::span<const exec::BinTask<float>>(tasks),
                           cx1, y1, 1),
               std::logic_error);
  EXPECT_TRUE(be.calls.empty());
  // The CSR forms still reach the hook.
  be.run_binned(KernelId::Serial, o.a, cx1, y1, o.vrows, 8);
  EXPECT_EQ(be.calls.size(), 1u);
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
