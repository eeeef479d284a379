// Exhaustive auto-tuning: measure every (binning granularity, per-bin
// kernel) candidate and report the best plan. This is the ground-truth
// oracle that (a) labels the training corpus and (b) bounds the achievable
// performance in the benches — exactly the measurement the paper's offline
// training stage performs.
//
// Execution goes through the exec::Backend seam, so plans can run (and be
// tuned) on either shared backend (exec::shared_backend).
#pragma once

#include <span>
#include <vector>

#include "binning/binning.hpp"
#include "core/candidates.hpp"
#include "core/plan.hpp"
#include "exec/backend.hpp"
#include "prof/profile.hpp"
#include "sparse/csr.hpp"
#include "util/timer.hpp"

namespace spmv::fmt {
template <typename T>
class PlanLayouts;
}  // namespace spmv::fmt

namespace spmv::core {

/// Build the BinSet a plan executes over.
template <typename T>
binning::BinSet bins_for_plan(const CsrMatrix<T>& a, const Plan& plan);

/// Execute `plan` (bins must come from bins_for_plan / match plan.unit):
/// per occupied bin, launch the planned kernel over that bin's rows on
/// `backend`. When the plan carries non-CSR bin formats, a `layouts` cache
/// resolves each such bin to a materialized layout — a bin whose layout is
/// not yet amortized (acquire() returns null), a null cache, or a backend
/// without format support all fall back to the CSR launch, so formats are
/// a pure acceleration, never a requirement.
template <typename T>
void execute_plan(const exec::Backend& backend, const CsrMatrix<T>& a,
                  std::span<const T> x, std::span<T> y,
                  const binning::BinSet& bins, const Plan& plan,
                  fmt::PlanLayouts<T>* layouts = nullptr);

/// Telemetry variant: additionally records per-bin kernel wall time and
/// bin workload (rows/NNZ) into `profile`, plus the engine-counter delta
/// when the backend drives a clsim engine (backend.engine() != nullptr).
/// A null profile behaves exactly like the plain overload. Bins executed
/// through a layout are labelled "<kernel>+<format>".
template <typename T>
void execute_plan(const exec::Backend& backend, const CsrMatrix<T>& a,
                  std::span<const T> x, std::span<T> y,
                  const binning::BinSet& bins, const Plan& plan,
                  prof::RunProfile* profile,
                  fmt::PlanLayouts<T>* layouts = nullptr);

/// SpMM through `plan`: Y = A·X for `width` dense right-hand sides
/// (column-major, kernels::batch_column layout, each a.cols() long; results
/// in the matching columns of `y`, each a.rows() long). The one
/// multi-vector path: every bin goes to the backend's run_bins at `width`
/// columns, and width 1 is exactly execute_plan. Per
/// output column the result is bit-identical to `width` single-vector
/// execute_plan runs. The profiled variant additionally records the
/// prof::spmm_fallback_columns delta this execution caused.
template <typename T>
void execute_plan_spmm(const exec::Backend& backend, const CsrMatrix<T>& a,
                       std::span<const T> x, std::span<T> y, int width,
                       const binning::BinSet& bins, const Plan& plan,
                       prof::RunProfile* profile = nullptr,
                       fmt::PlanLayouts<T>* layouts = nullptr);

/// Tuning result for one candidate granularity.
struct UnitResult {
  index_t unit = 1;
  bool single_bin = false;
  /// Best kernel per occupied bin and the summed best per-bin times.
  std::vector<BinPlan> bin_kernels;
  std::vector<double> bin_times_s;  ///< parallel to bin_kernels
  double total_s = 0.0;
};

struct TuneResult {
  Plan best_plan;
  double best_s = 0.0;             ///< end-to-end measured time of best_plan
  std::vector<UnitResult> per_unit;
};

struct ExhaustiveOptions {
  util::MeasureOptions measure{.warmup = 1, .reps = 3, .max_total_s = 1.0};
  /// Candidates within (1 + tie_tolerance) of the best measured time are
  /// treated as ties and broken deterministically: per bin, the
  /// narrowest-lane kernel wins; across granularities, the largest U wins
  /// (cheapest binning). Without this, near-equivalent candidates make the
  /// training labels measurement noise — on uniform matrices *every* U
  /// performs identically — and the model learns nothing.
  double tie_tolerance = 0.05;
  /// Optional telemetry sink: every candidate granularity appends a
  /// CandidateCost (wall time spent measuring it, number of per-bin kernel
  /// measurements, its best summed time).
  prof::RunProfile* profile = nullptr;
};

/// Measure every candidate in `pools` for matrix `a` with input vector `x`
/// on `backend`. The best plan is stamped with the backend's kind, so it
/// round-trips through plan_io carrying where it was tuned.
template <typename T>
TuneResult exhaustive_tune(const exec::Backend& backend, const CsrMatrix<T>& a,
                           std::span<const T> x, const CandidatePools& pools,
                           const ExhaustiveOptions& opts = {});

#define SPMV_EXHAUSTIVE_EXTERN(T)                                            \
  extern template binning::BinSet bins_for_plan(const CsrMatrix<T>&,         \
                                                const Plan&);                \
  extern template void execute_plan(const exec::Backend&,                    \
                                    const CsrMatrix<T>&, std::span<const T>, \
                                    std::span<T>, const binning::BinSet&,    \
                                    const Plan&, fmt::PlanLayouts<T>*);      \
  extern template void execute_plan(const exec::Backend&,                    \
                                    const CsrMatrix<T>&, std::span<const T>, \
                                    std::span<T>, const binning::BinSet&,    \
                                    const Plan&, prof::RunProfile*,          \
                                    fmt::PlanLayouts<T>*);                   \
  extern template void execute_plan_spmm(const exec::Backend&,               \
                                         const CsrMatrix<T>&,                \
                                         std::span<const T>, std::span<T>,   \
                                         int, const binning::BinSet&,        \
                                         const Plan&, prof::RunProfile*,     \
                                         fmt::PlanLayouts<T>*);              \
  extern template TuneResult exhaustive_tune(                                \
      const exec::Backend&, const CsrMatrix<T>&, std::span<const T>,         \
      const CandidatePools&, const ExhaustiveOptions&);
SPMV_EXHAUSTIVE_EXTERN(float)
SPMV_EXHAUSTIVE_EXTERN(double)
#undef SPMV_EXHAUSTIVE_EXTERN

}  // namespace spmv::core
