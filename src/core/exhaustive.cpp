#include "core/exhaustive.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "clsim/engine.hpp"
#include "fmt/plan_layouts.hpp"
#include "prof/counters.hpp"

namespace spmv::core {

template <typename T>
binning::BinSet bins_for_plan(const CsrMatrix<T>& a, const Plan& plan) {
  return plan.single_bin ? binning::single_bin(a, plan.unit)
                         : binning::bin_matrix(a, plan.unit);
}

namespace {

/// Resolve one bin's materialized layout, or null for the CSR path. Only
/// consulted when the plan asks for a non-CSR format AND the backend can
/// execute layouts — otherwise the bin silently runs from the shared CSR
/// arrays (the ClsimBackend comparability guarantee).
template <typename T>
std::shared_ptr<const fmt::BinLayout<T>> resolve_layout(
    const exec::Backend& backend, fmt::PlanLayouts<T>* layouts,
    const CsrMatrix<T>& a, std::span<const index_t> vrows, index_t unit,
    const BinPlan& bp) {
  if (layouts == nullptr || bp.format == fmt::FormatKind::Csr ||
      !backend.supports_formats())
    return nullptr;
  return layouts->acquire(a, vrows, unit, bp.format, bp.bin_id);
}

/// Bump the layout cache's reuse counter once per whole-plan execution —
/// the amortization signal.
template <typename T>
void note_layout_run(fmt::PlanLayouts<T>* layouts, const CsrMatrix<T>& a,
                     const Plan& plan) {
  if (layouts != nullptr && plan.uses_formats()) (void)layouts->note_run(a);
}

}  // namespace

namespace {

/// Non-zeros covered by a bin's virtual rows at granularity `unit`.
template <typename T>
std::int64_t bin_nnz(const CsrMatrix<T>& a, std::span<const index_t> vrows,
                     index_t unit) {
  std::int64_t total = 0;
  const index_t rows = a.rows();
  for (index_t v : vrows) {
    const index_t lo = v * unit;
    const index_t hi = std::min<index_t>(lo + unit, rows);
    total += static_cast<std::int64_t>(a.row_ptr()[hi] - a.row_ptr()[lo]);
  }
  return total;
}

using EngineSnapshot =
    decltype(std::declval<const clsim::Engine&>().counters().snapshot());

/// The one bin loop behind execute_plan and execute_plan_spmm: resolve
/// every occupied bin to its layout or its planned kernel, then hand the
/// whole list to the backend at `width` columns (width 1 is the
/// single-vector case) — one parallel region on the native backend. A
/// non-null profile runs the bins one run_bins call each instead, so each
/// bin's wall time and workload can be recorded, and also records the
/// engine-counter delta and — for width > 1 — the fallback-column delta.
template <typename T>
void run_plan(const exec::Backend& backend, const CsrMatrix<T>& a,
              std::span<const T> x, std::span<T> y, int width,
              const binning::BinSet& bins, const Plan& plan,
              prof::RunProfile* profile, fmt::PlanLayouts<T>* layouts) {
  if (bins.unit() != plan.unit)
    throw std::invalid_argument("execute_plan: bins/plan unit mismatch");
  note_layout_run(layouts, a, plan);
  std::vector<exec::BinTask<T>> tasks;
  std::vector<const BinPlan*> planned;
  // Keeps each acquired layout alive across the run even if its cache
  // slot is evicted meanwhile.
  std::vector<std::shared_ptr<const fmt::BinLayout<T>>> held;
  tasks.reserve(plan.bin_kernels.size());
  for (const BinPlan& bp : plan.bin_kernels) {
    const auto& vrows = bins.bin(bp.bin_id);
    if (vrows.empty()) continue;
    auto layout = resolve_layout(backend, layouts, a, vrows, bins.unit(), bp);
    tasks.push_back({bp.kernel, vrows, bins.unit(), layout.get()});
    planned.push_back(&bp);
    if (layout != nullptr) held.push_back(std::move(layout));
  }
  if (profile == nullptr) {
    backend.run_bins(a, std::span<const exec::BinTask<T>>(tasks), x, y,
                     width);
    return;
  }
  // Engine counters only exist for backends that drive a clsim engine.
  const clsim::Engine* engine = backend.engine();
  std::optional<EngineSnapshot> before;
  if (engine != nullptr) before = engine->counters().snapshot();
  const std::uint64_t fallback_before = prof::spmm_fallback_columns();
  util::Timer total;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const exec::BinTask<T>& task = tasks[i];
    const BinPlan& bp = *planned[i];
    util::Timer t;
    backend.run_bins(a, std::span<const exec::BinTask<T>>(&task, 1), x, y,
                     width);
    std::string label = kernels::kernel_name(bp.kernel);
    if (task.layout != nullptr)
      label += std::string("+") + fmt::format_cname(bp.format);
    profile->add_bin_run(bp.bin_id, label,
                         static_cast<std::int64_t>(task.vrows.size()),
                         bins.rows_in_bin(bp.bin_id),
                         bin_nnz(a, task.vrows, bins.unit()), t.elapsed_s());
  }
  profile->runs += 1;
  profile->run_total_s += total.elapsed_s();
  if (width > 1)
    profile->spmm_fallback_columns +=
        prof::spmm_fallback_columns() - fallback_before;
  if (engine != nullptr)
    profile->merge_engine_delta(
        engine->counters().snapshot().delta_since(*before));
}

}  // namespace

template <typename T>
void execute_plan(const exec::Backend& backend, const CsrMatrix<T>& a,
                  std::span<const T> x, std::span<T> y,
                  const binning::BinSet& bins, const Plan& plan,
                  fmt::PlanLayouts<T>* layouts) {
  run_plan(backend, a, x, y, 1, bins, plan, nullptr, layouts);
}

template <typename T>
void execute_plan(const exec::Backend& backend, const CsrMatrix<T>& a,
                  std::span<const T> x, std::span<T> y,
                  const binning::BinSet& bins, const Plan& plan,
                  prof::RunProfile* profile, fmt::PlanLayouts<T>* layouts) {
  run_plan(backend, a, x, y, 1, bins, plan, profile, layouts);
}

template <typename T>
void execute_plan_spmm(const exec::Backend& backend, const CsrMatrix<T>& a,
                       std::span<const T> x, std::span<T> y, int width,
                       const binning::BinSet& bins, const Plan& plan,
                       prof::RunProfile* profile,
                       fmt::PlanLayouts<T>* layouts) {
  run_plan(backend, a, x, y, width, bins, plan, profile, layouts);
}

namespace {

/// Measure the best kernel for each occupied bin of `bins`.
template <typename T>
UnitResult tune_bins(const exec::Backend& backend, const CsrMatrix<T>& a,
                     std::span<const T> x, std::span<T> y,
                     const binning::BinSet& bins, bool single_bin,
                     const CandidatePools& pools,
                     const ExhaustiveOptions& opts) {
  UnitResult result;
  result.unit = bins.unit();
  result.single_bin = single_bin;
  for (int b : bins.occupied_bins()) {
    const auto& vrows = bins.bin(b);
    std::vector<double> times;
    times.reserve(pools.kernel_pool.size());
    double best_s = std::numeric_limits<double>::infinity();
    for (kernels::KernelId id : pools.kernel_pool) {
      const auto m = util::measure(
          [&] { backend.run_binned(id, a, x, y, vrows, bins.unit()); },
          opts.measure);
      times.push_back(m.best_s);
      best_s = std::min(best_s, m.best_s);
    }
    // Tie-break: first kernel (pool order = narrowest lanes) within
    // tolerance of the best.
    std::size_t pick = 0;
    while (times[pick] > best_s * (1.0 + opts.tie_tolerance)) ++pick;
    result.bin_kernels.push_back({b, pools.kernel_pool[pick]});
    result.bin_times_s.push_back(times[pick]);
    result.total_s += times[pick];
  }
  return result;
}

}  // namespace

template <typename T>
TuneResult exhaustive_tune(const exec::Backend& backend, const CsrMatrix<T>& a,
                           std::span<const T> x, const CandidatePools& pools,
                           const ExhaustiveOptions& opts) {
  if (pools.units.empty() || pools.kernel_pool.empty())
    throw std::invalid_argument("exhaustive_tune: empty candidate pool");
  std::vector<T> y(static_cast<std::size_t>(a.rows()));

  // Per-candidate cost: wall time spent binning + measuring each
  // granularity, and how many (bin, kernel) measurements that took.
  const auto record_candidate = [&](const UnitResult& ur, double wall_s) {
    if (opts.profile == nullptr) return;
    const std::string label =
        ur.single_bin ? "single-bin" : "U=" + std::to_string(ur.unit);
    opts.profile->add_candidate(
        label, wall_s,
        static_cast<std::int64_t>(ur.bin_kernels.size() *
                                  pools.kernel_pool.size()),
        ur.total_s);
  };

  TuneResult result;
  for (index_t unit : pools.units) {
    util::Timer wall;
    const auto bins = binning::bin_matrix(a, unit);
    result.per_unit.push_back(
        tune_bins(backend, a, x, std::span<T>(y), bins, false, pools, opts));
    record_candidate(result.per_unit.back(), wall.elapsed_s());
  }
  if (pools.include_single_bin) {
    util::Timer wall;
    const auto bins = binning::single_bin(a, index_t{1});
    result.per_unit.push_back(
        tune_bins(backend, a, x, std::span<T>(y), bins, true, pools, opts));
    record_candidate(result.per_unit.back(), wall.elapsed_s());
  }

  // Select the winner with deterministic tie-breaking: among candidates
  // within tolerance of the fastest, prefer the coarsest granularity
  // (cheapest binning); the single-bin strategy only wins outright.
  double best_total = std::numeric_limits<double>::infinity();
  for (const UnitResult& ur : result.per_unit)
    best_total = std::min(best_total, ur.total_s);
  const UnitResult* winner = nullptr;
  for (const UnitResult& ur : result.per_unit) {
    if (ur.total_s > best_total * (1.0 + opts.tie_tolerance)) continue;
    if (winner == nullptr) {
      winner = &ur;
      continue;
    }
    const bool prefer = (winner->single_bin && !ur.single_bin) ||
                        (!winner->single_bin && !ur.single_bin &&
                         ur.unit > winner->unit);
    if (prefer) winner = &ur;
  }
  result.best_plan.unit = winner->unit;
  result.best_plan.single_bin = winner->single_bin;
  result.best_plan.bin_kernels = winner->bin_kernels;
  result.best_plan.backend = backend.kind();

  // End-to-end time of the winning plan (per-bin sums ignore launch
  // overlap; the reported number is a real full execution).
  const auto bins = bins_for_plan(a, result.best_plan);
  const auto m = util::measure(
      [&] {
        execute_plan(backend, a, x, std::span<T>(y), bins, result.best_plan);
      },
      opts.measure);
  result.best_s = m.best_s;
  return result;
}

#define SPMV_EXHAUSTIVE_INSTANTIATE(T)                                       \
  template binning::BinSet bins_for_plan(const CsrMatrix<T>&, const Plan&);  \
  template void execute_plan(const exec::Backend&, const CsrMatrix<T>&,      \
                             std::span<const T>, std::span<T>,               \
                             const binning::BinSet&, const Plan&,            \
                             fmt::PlanLayouts<T>*);                          \
  template void execute_plan(const exec::Backend&, const CsrMatrix<T>&,      \
                             std::span<const T>, std::span<T>,               \
                             const binning::BinSet&, const Plan&,            \
                             prof::RunProfile*, fmt::PlanLayouts<T>*);       \
  template void execute_plan_spmm(const exec::Backend&, const CsrMatrix<T>&, \
                                  std::span<const T>, std::span<T>, int,     \
                                  const binning::BinSet&, const Plan&,       \
                                  prof::RunProfile*, fmt::PlanLayouts<T>*);  \
  template TuneResult exhaustive_tune(const exec::Backend&,                  \
                                      const CsrMatrix<T>&,                   \
                                      std::span<const T>,                    \
                                      const CandidatePools&,                 \
                                      const ExhaustiveOptions&);
SPMV_EXHAUSTIVE_INSTANTIATE(float)
SPMV_EXHAUSTIVE_INSTANTIATE(double)
#undef SPMV_EXHAUSTIVE_INSTANTIATE

}  // namespace spmv::core
