#include "probe.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "binning/binning.hpp"
#include "clsim/engine.hpp"
#include "core/exhaustive.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "fmt/layout.hpp"
#include "runtime.hpp"
#include "serve/plan_cache.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

using spmv::index_t;
namespace core = spmv::core;

namespace {

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now()) * 1e3;
}

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(time_ms(f));
  return percentile(std::move(t), 50);
}

}  // namespace

std::vector<Scalar> positive_vector(std::size_t n, std::uint64_t seed) {
  spmv::util::Xoshiro256 rng(seed);
  std::vector<Scalar> v(n);
  for (Scalar& e : v) e = static_cast<Scalar>(rng.uniform(0.5, 1.5));
  return v;
}

PlanProbe probe_plan(const spmv::CsrMatrix<Scalar>& a,
                     const core::Predictor& pred, int reps) {
  PlanProbe p;
  auto& rec = SpanRecorder::instance();
  const std::uint64_t op = rec.next_op();
  ScopedSpan root("probe.plan", op);

  spmv::RowStats stats;
  {
    ScopedSpan s("sparse.compute_row_stats", op);
    p.features_ms = time_ms([&] { stats = spmv::compute_row_stats(a); });
  }
  core::Predictor::UnitChoice choice;
  {
    ScopedSpan s("core.predict_unit", op);
    p.predict_ms = time_ms([&] { choice = pred.predict_unit(stats); });
  }
  spmv::binning::BinSet bins;
  {
    ScopedSpan s("binning.bin_matrix", op);
    p.binning_ms = time_ms([&] {
      bins = choice.single_bin ? spmv::binning::single_bin(a, choice.unit)
                               : spmv::binning::bin_matrix(a, choice.unit);
    });
  }
  {
    ScopedSpan s("core.predict_kernel", op);
    p.predict_ms += time_ms([&] {
      for (const int b : bins.occupied_bins())
        (void)pred.predict_kernel(stats, choice.unit, b);
    });
  }

  const auto t0 = Clock::now();
  std::optional<core::AutoSpmv<Scalar>> rt;
  {
    ScopedSpan s("core.Tuner.build", op);
    rt.emplace(core::Tuner<Scalar>(a)
                   .predictor(pred)
                   .backend(spmv::exec::BackendKind::Native)
                   .formats(spmv::fmt::FormatMode::Auto)
                   .build());
  }
  p.build_ms = seconds_between(t0, Clock::now()) * 1e3;
  const core::Plan& plan = rt->plan();
  const spmv::binning::BinSet& pbins = rt->bins();

  // The plan's non-CSR bins, built the way the lazy layout cache builds
  // them; a bin that build_bin_layout rejects runs from CSR, as
  // execute_plan does.
  std::map<int, spmv::fmt::BinLayout<Scalar>> layouts;
  for (const core::BinPlan& bp : plan.bin_kernels) {
    if (bp.format == spmv::fmt::FormatKind::Csr) continue;
    ScopedSpan s("fmt.build_bin_layout", op);
    p.layout_build_ms += time_ms([&] {
      try {
        layouts.emplace(bp.bin_id, spmv::fmt::build_bin_layout(
                                       a, pbins.bin(bp.bin_id), plan.unit,
                                       bp.format, bp.bin_id));
      } catch (const std::length_error&) {
      }
    });
  }
  for (const auto& [id, l] : layouts)
    p.layout_mb += static_cast<double>(l.bytes) / 1e6;

  const auto& backend =
      *spmv::exec::shared_backend(spmv::exec::BackendKind::Native);
  const auto x = positive_vector(static_cast<std::size_t>(a.cols()), 7);
  std::vector<Scalar> y(static_cast<std::size_t>(a.rows()));
  const auto run_plan = [&] {
    core::execute_plan(backend, a, std::span<const Scalar>(x),
                       std::span<Scalar>(y), pbins, plan, rt->layouts());
  };
  // The default amortisation policy materialises layouts on the third run
  // of a matrix instance; warm past it so the timed runs use them.
  for (int i = 0; i < 4; ++i) run_plan();
  {
    ScopedSpan s("core.execute_plan", op);
    p.plan_exec_ms = median_ms(reps, run_plan);
  }

  double hot = 0.0;
  for (const core::BinPlan& bp : plan.bin_kernels) {
    const auto& vrows = pbins.bin(bp.bin_id);
    const auto it = layouts.find(bp.bin_id);
    const std::size_t cols = distinct_columns(a, vrows, plan.unit);
    double ms = 0.0;
    if (it != layouts.end()) {
      ScopedSpan s("exec.run_layout", op);
      ms = median_ms(reps, [&] {
        backend.run_layout(a, it->second, std::span<const Scalar>(x),
                           std::span<Scalar>(y));
      });
      p.bytes_mb += layout_bytes(it->second, cols, 1) / 1e6;
    } else {
      ScopedSpan s("exec.run_binned", op);
      ms = median_ms(reps, [&] {
        backend.run_binned(bp.kernel, a, std::span<const Scalar>(x),
                           std::span<Scalar>(y), vrows, plan.unit);
      });
      p.bytes_mb += csr_bin_bytes(a, vrows, plan.unit, cols, 1) / 1e6;
    }
    p.kernel_ms += ms;
    hot = std::max(hot, ms);
  }
  p.bins = static_cast<double>(plan.bin_kernels.size());
  p.hot_bin_share = p.kernel_ms > 0.0 ? hot / p.kernel_ms : 0.0;

  constexpr int kWidth = 8;
  std::vector<Scalar> xs;
  for (int c = 0; c < kWidth; ++c) xs.insert(xs.end(), x.begin(), x.end());
  std::vector<Scalar> ys(y.size() * kWidth);
  {
    ScopedSpan s("core.execute_plan_spmm", op);
    p.spmm_ms_per_col =
        median_ms(reps, [&] {
          core::execute_plan_spmm(backend, a, std::span<const Scalar>(xs),
                                  std::span<Scalar>(ys), kWidth, pbins, plan,
                                  nullptr, rt->layouts());
        }) /
        kWidth;
  }
  return p;
}

PlanProbe mean_probe(std::span<const PlanProbe> probes) {
  static constexpr double PlanProbe::*kFields[] = {
      &PlanProbe::features_ms,     &PlanProbe::predict_ms,
      &PlanProbe::binning_ms,      &PlanProbe::build_ms,
      &PlanProbe::layout_build_ms, &PlanProbe::layout_mb,
      &PlanProbe::plan_exec_ms,    &PlanProbe::kernel_ms,
      &PlanProbe::bins,            &PlanProbe::hot_bin_share,
      &PlanProbe::spmm_ms_per_col, &PlanProbe::bytes_mb};
  PlanProbe m;
  if (probes.empty()) return m;
  for (const PlanProbe& p : probes)
    for (const auto f : kFields) m.*f += p.*f;
  for (const auto f : kFields) m.*f /= static_cast<double>(probes.size());
  return m;
}

CacheProbe probe_cache(std::span<const CsrPtr> mats,
                       const core::Predictor& pred) {
  CacheProbe c;
  if (mats.empty()) return c;
  auto& rec = SpanRecorder::instance();
  spmv::serve::PlanCache<Scalar> cache(
      pred, spmv::clsim::default_engine(), 16, nullptr,
      spmv::exec::BackendKind::Native, spmv::fmt::FormatMode::Auto);
  for (const CsrPtr& m : mats) {
    const std::uint64_t op = rec.next_op();
    ScopedSpan root("probe.plan_cache", op);
    {
      ScopedSpan s("serve.PlanCache.get.miss", op);
      c.miss_ms += time_ms([&] { (void)cache.get(m); });
    }
    ScopedSpan s("serve.PlanCache.get.hit", op);
    c.hit_us += median_ms(9, [&] { (void)cache.get(m); }) * 1e3;
  }
  c.miss_ms /= static_cast<double>(mats.size());
  c.hit_us /= static_cast<double>(mats.size());
  return c;
}

}  // namespace perfbench
