// AutoSpmv — the library's headline runtime type (paper Figure 3, black
// arrows): given a CSR matrix and a predictor, it extracts the Table-I
// features, selects a binning granularity, bins the matrix, selects a
// kernel per occupied bin, and executes SpMV through the plan.
//
// Construction goes through the spmv::core::Tuner builder (tuner.hpp),
// which also attaches telemetry:
//   auto model = spmv::core::load_model("model.txt");
//   spmv::core::ModelPredictor pred(std::move(model));
//   spmv::prof::RunProfile profile;
//   auto spmv = spmv::core::Tuner(a).predictor(pred).profile(&profile).build();
//   spmv.run(x, y);  // repeatedly; the plan is built once
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "binning/binning.hpp"
#include "core/exhaustive.hpp"
#include "exec/backend.hpp"
#include "core/plan.hpp"
#include "core/predictor.hpp"
#include "fmt/plan_layouts.hpp"
#include "prof/profile.hpp"
#include "sparse/csr.hpp"
#include "sparse/matrix_stats.hpp"

namespace spmv::core {

template <typename T>
class Tuner;

/// A predictor-driven plan with what planning computed on the way: the
/// bins the plan executes over and the matrix's row statistics.
struct PlannedMatrix {
  Plan plan;
  binning::BinSet bins;
  RowStats stats;
};

/// The predictor-driven planning pass (paper Figure 3): row statistics,
/// the stage-1 granularity (or `forced`), binning, the stage-2 kernel per
/// occupied bin and — under FormatMode::Auto on a format-capable backend —
/// the estimator's format per bin. The plan is stamped with the backend's
/// kind. Stage timings accumulate into `timing` when it is non-null.
template <typename T>
[[nodiscard]] PlannedMatrix plan_matrix(
    const CsrMatrix<T>& a, const Predictor& predictor,
    const exec::Backend& backend, fmt::FormatMode format_mode,
    std::optional<Predictor::UnitChoice> forced = std::nullopt,
    prof::PlanTiming* timing = nullptr);

template <typename T>
class AutoSpmv {
 public:
  /// y = A*x through the planned per-bin kernels. Records into the
  /// profile attached at build time, if any.
  void run(std::span<const T> x, std::span<T> y) const {
    run(x, y, profile_);
  }

  /// y = A*x, recording plan execution telemetry (per-bin kernel wall
  /// time, engine launch-counter deltas) into `profile`. A null profile
  /// skips all recording; repeated calls accumulate (see RunProfile).
  void run(std::span<const T> x, std::span<T> y,
           prof::RunProfile* profile) const;

  /// SpMM Y = A·X for `width` dense right-hand sides stored column-major
  /// in `x` (each a.cols() long; see kernels::batch_column), results in the
  /// matching columns of `y` (each a.rows() long). The plan and the CSR
  /// traversal are shared across the block; per output column the result
  /// is bit-identical to `width` run() calls (see core::execute_plan_spmm).
  void run_spmm(std::span<const T> x, std::span<T> y, int width) const {
    run_spmm(x, y, width, profile_);
  }

  /// SpMM recording telemetry into `profile` (one run() sample for the
  /// whole block, plus the prof::spmm_fallback_columns delta).
  void run_spmm(std::span<const T> x, std::span<T> y, int width,
                prof::RunProfile* profile) const;

  [[nodiscard]] const Plan& plan() const { return plan_; }
  [[nodiscard]] const binning::BinSet& bins() const { return bins_; }
  [[nodiscard]] const RowStats& stats() const { return stats_; }
  /// The execution backend runs go through; plan().backend matches its
  /// kind (the plan is stamped at construction).
  [[nodiscard]] const exec::Backend& backend() const { return *backend_; }
  /// Profile attached at build time (null when none).
  [[nodiscard]] prof::RunProfile* profile() const { return profile_; }
  /// The per-bin layout cache, or null when every bin executes from CSR
  /// (no non-CSR formats in the plan, or the backend cannot run layouts).
  /// Shared across copies of this runtime so reuse counts — the
  /// amortization signal — accumulate over the runtime's lifetime.
  [[nodiscard]] fmt::PlanLayouts<T>* layouts() const { return layouts_.get(); }

 private:
  friend class Tuner<T>;

  /// Full predictor-driven constructor: optionally records plan-stage
  /// timings into `profile`, honours a forced granularity choice (the
  /// Tuner's scheme/unit overrides), and — under FormatMode::Auto on a
  /// format-capable backend — stamps each bin with the estimator's format.
  AutoSpmv(const CsrMatrix<T>& a, const Predictor& predictor,
           exec::BackendKind backend, prof::RunProfile* profile,
           std::optional<Predictor::UnitChoice> forced,
           fmt::FormatMode format_mode, fmt::AmortizationPolicy format_policy);

  /// Full external-plan constructor (the plan's recorded per-bin formats
  /// are authoritative; format_mode only matters for predictor builds).
  AutoSpmv(const CsrMatrix<T>& a, Plan plan, exec::BackendKind backend,
           prof::RunProfile* profile, fmt::AmortizationPolicy format_policy);

  void describe_profile() const;
  void init_layouts(fmt::AmortizationPolicy policy);

  const CsrMatrix<T>& a_;
  /// The shared instance of the resolved kind (exec::shared_backend).
  std::shared_ptr<const exec::Backend> backend_;
  prof::RunProfile* profile_ = nullptr;
  RowStats stats_;
  Plan plan_;
  binning::BinSet bins_;
  std::shared_ptr<fmt::PlanLayouts<T>> layouts_;
};

extern template PlannedMatrix plan_matrix(
    const CsrMatrix<float>&, const Predictor&, const exec::Backend&,
    fmt::FormatMode, std::optional<Predictor::UnitChoice>, prof::PlanTiming*);
extern template PlannedMatrix plan_matrix(
    const CsrMatrix<double>&, const Predictor&, const exec::Backend&,
    fmt::FormatMode, std::optional<Predictor::UnitChoice>, prof::PlanTiming*);
extern template class AutoSpmv<float>;
extern template class AutoSpmv<double>;

}  // namespace spmv::core
