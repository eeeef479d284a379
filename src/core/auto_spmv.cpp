#include "core/auto_spmv.hpp"

#include <utility>

#include "fmt/estimate.hpp"
#include "trace/trace.hpp"

namespace spmv::core {

template <typename T>
PlannedMatrix plan_matrix(const CsrMatrix<T>& a, const Predictor& predictor,
                          const exec::Backend& backend,
                          fmt::FormatMode format_mode,
                          std::optional<Predictor::UnitChoice> forced,
                          prof::PlanTiming* timing) {
  PlannedMatrix out;
  {
    trace::TraceSpan span("plan-features", "plan");
    prof::ScopedTimer t(timing != nullptr ? &timing->features_s : nullptr);
    out.stats = compute_row_stats(a);
  }
  Predictor::UnitChoice choice;
  {
    trace::TraceSpan span("plan-predict-unit", "plan");
    prof::ScopedTimer t(timing != nullptr ? &timing->predict_s : nullptr);
    choice = forced.has_value() ? *forced : predictor.predict_unit(out.stats);
  }
  Plan& plan = out.plan;
  plan.unit = choice.unit;
  plan.single_bin = choice.single_bin;
  plan.backend = backend.kind();
  {
    trace::TraceSpan span("plan-binning", "plan");
    prof::ScopedTimer t(timing != nullptr ? &timing->binning_s : nullptr);
    out.bins = bins_for_plan(a, plan);
  }
  {
    trace::TraceSpan span("plan-predict-kernels", "plan");
    prof::ScopedTimer t(timing != nullptr ? &timing->predict_s : nullptr);
    for (int b : out.bins.occupied_bins()) {
      plan.bin_kernels.push_back(
          {b, predictor.predict_kernel(out.stats, plan.unit, b)});
    }
  }
  // Per-bin format estimation: only under the auto mode and only when the
  // backend can execute layouts — a CSR-only backend keeps a
  // CSR-everywhere plan, so differential comparisons stay meaningful.
  if (format_mode == fmt::FormatMode::Auto && backend.supports_formats()) {
    trace::TraceSpan span("plan-estimate-formats", "plan");
    prof::ScopedTimer t(timing != nullptr ? &timing->predict_s : nullptr);
    for (BinPlan& bp : plan.bin_kernels) {
      const auto f =
          fmt::compute_bin_features(a, out.bins.bin(bp.bin_id), plan.unit);
      bp.format = fmt::estimate_bin_format(f);
    }
  }
  return out;
}

template <typename T>
AutoSpmv<T>::AutoSpmv(const CsrMatrix<T>& a, const Predictor& predictor,
                      exec::BackendKind backend, prof::RunProfile* profile,
                      std::optional<Predictor::UnitChoice> forced,
                      fmt::FormatMode format_mode,
                      fmt::AmortizationPolicy format_policy)
    : a_(a), backend_(exec::shared_backend(backend)), profile_(profile) {
  PlannedMatrix p = plan_matrix(
      a, predictor, *backend_, format_mode, forced,
      profile != nullptr ? &profile->plan_timing : nullptr);
  stats_ = p.stats;
  plan_ = std::move(p.plan);
  bins_ = std::move(p.bins);
  init_layouts(format_policy);
  describe_profile();
}

template <typename T>
AutoSpmv<T>::AutoSpmv(const CsrMatrix<T>& a, Plan plan,
                      exec::BackendKind backend, prof::RunProfile* profile,
                      fmt::AmortizationPolicy format_policy)
    : a_(a),
      backend_(exec::shared_backend(backend)),
      profile_(profile),
      plan_(std::move(plan)) {
  plan_.normalize();  // external plans may violate the ascending invariant
  // The resolved kind is the truth (an explicit .backend() override beats
  // the plan's recorded kind); keep the plan consistent with it.
  plan_.backend = backend;
  prof::PlanTiming* pt = profile != nullptr ? &profile->plan_timing : nullptr;
  {
    trace::TraceSpan span("plan-features", "plan");
    prof::ScopedTimer t(pt != nullptr ? &pt->features_s : nullptr);
    stats_ = compute_row_stats(a);
  }
  {
    trace::TraceSpan span("plan-binning", "plan");
    prof::ScopedTimer t(pt != nullptr ? &pt->binning_s : nullptr);
    bins_ = bins_for_plan(a, plan_);
  }
  init_layouts(format_policy);
  describe_profile();
}

template <typename T>
void AutoSpmv<T>::init_layouts(fmt::AmortizationPolicy policy) {
  if (plan_.uses_formats() && backend_->supports_formats())
    layouts_ = std::make_shared<fmt::PlanLayouts<T>>(policy);
}

template <typename T>
void AutoSpmv<T>::describe_profile() const {
  if (profile_ == nullptr) return;
  profile_->rows = stats_.rows;
  profile_->cols = stats_.cols;
  profile_->nnz = stats_.nnz;
  profile_->plan = plan_.to_string();
}

template <typename T>
void AutoSpmv<T>::run(std::span<const T> x, std::span<T> y,
                      prof::RunProfile* profile) const {
  execute_plan(*backend_, a_, x, y, bins_, plan_, profile,
               layouts_.get());
}

template <typename T>
void AutoSpmv<T>::run_spmm(std::span<const T> x, std::span<T> y, int width,
                           prof::RunProfile* profile) const {
  execute_plan_spmm(*backend_, a_, x, y, width, bins_, plan_, profile,
                    layouts_.get());
}

template PlannedMatrix plan_matrix(const CsrMatrix<float>&, const Predictor&,
                                   const exec::Backend&, fmt::FormatMode,
                                   std::optional<Predictor::UnitChoice>,
                                   prof::PlanTiming*);
template PlannedMatrix plan_matrix(const CsrMatrix<double>&, const Predictor&,
                                   const exec::Backend&, fmt::FormatMode,
                                   std::optional<Predictor::UnitChoice>,
                                   prof::PlanTiming*);
template class AutoSpmv<float>;
template class AutoSpmv<double>;

}  // namespace spmv::core
