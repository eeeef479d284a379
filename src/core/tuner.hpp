// Tuner — the builder facade for constructing an auto-tuned SpMV runtime.
// Replaces the two overloaded AutoSpmv constructors with one fluent entry
// point that also carries the optional knobs (backend, binning scheme,
// forced granularity, telemetry sink):
//
//   spmv::prof::RunProfile profile;
//   auto spmv = spmv::core::Tuner(a)
//                   .predictor(pred)
//                   .backend(spmv::exec::BackendKind::Native)
//                   .scheme(binning::SchemeKind::Coarse)
//                   .profile(&profile)
//                   .build();
//   spmv.run(x, y);  // per-bin timings accumulate into `profile`
//
// Exactly one of predictor() or plan() must be set before build().
#pragma once

#include <optional>

#include "binning/schemes.hpp"
#include "core/auto_spmv.hpp"
#include "core/plan.hpp"
#include "core/predictor.hpp"
#include "exec/backend.hpp"
#include "prof/profile.hpp"
#include "sparse/csr.hpp"

namespace spmv::core {

template <typename T>
class Tuner {
 public:
  /// Start configuring a run over `a`. The matrix (and every reference
  /// passed below) must outlive the built AutoSpmv.
  explicit Tuner(const CsrMatrix<T>& a) : a_(&a) {}

  /// Strategy selector that chooses granularity and per-bin kernels.
  Tuner& predictor(const Predictor& p) {
    predictor_ = &p;
    return *this;
  }

  /// Execute on the shared instance of `kind` (exec::shared_backend).
  /// Overrides the plan's recorded backend. Resolution order at build():
  /// backend(kind) > plan().backend > clsim.
  Tuner& backend(exec::BackendKind kind) {
    backend_kind_ = kind;
    return *this;
  }

  /// Use an externally produced plan (e.g. the exhaustive tuner's oracle
  /// plan) instead of predicting one.
  Tuner& plan(Plan p) {
    plan_ = std::move(p);
    return *this;
  }

  /// Override the binning scheme the predictor would choose: Coarse keeps
  /// the predictor's granularity (the default), Fine forces granularity 1,
  /// SingleBin forces the paper's single-bin strategy. Hybrid needs
  /// per-part plans and is rejected at build() — use
  /// binning::apply_scheme directly for the ablation path.
  Tuner& scheme(binning::SchemeKind kind) {
    scheme_ = kind;
    return *this;
  }

  /// Force the coarse binning granularity U (kernels are still predicted
  /// per bin).
  Tuner& unit(index_t u) {
    unit_ = u;
    return *this;
  }

  /// Per-bin physical-format policy (the `--format csr|auto` knob). Csr —
  /// the default — pins every bin to the shared CSR arrays. Auto lets the
  /// fmt estimator stamp predictor-built plans with per-bin formats; it
  /// only takes effect when the resolved backend supports formats. A plan
  /// passed via plan() keeps its recorded formats either way.
  Tuner& formats(fmt::FormatMode mode) {
    format_mode_ = mode;
    return *this;
  }

  /// When bin layouts are materialized (see fmt::AmortizationPolicy);
  /// defaults to lazy amortized building. Tests and shadow trials set
  /// `.min_reuse = 0` to build on first touch.
  Tuner& format_policy(fmt::AmortizationPolicy policy) {
    format_policy_ = policy;
    return *this;
  }

  /// Telemetry sink: plan-stage timings are recorded at build() and every
  /// run() accumulates per-bin kernel timings and engine-counter deltas.
  /// Pass nullptr (the default) for a telemetry-free runtime.
  Tuner& profile(prof::RunProfile* p) {
    profile_ = p;
    return *this;
  }

  /// Validate the configuration and construct the runtime. Throws
  /// std::logic_error when neither predictor nor plan is set and
  /// std::invalid_argument for unsupported scheme combinations.
  [[nodiscard]] AutoSpmv<T> build() const;

 private:
  const CsrMatrix<T>* a_;
  const Predictor* predictor_ = nullptr;
  std::optional<exec::BackendKind> backend_kind_;
  std::optional<Plan> plan_;
  std::optional<binning::SchemeKind> scheme_;
  std::optional<index_t> unit_;
  fmt::FormatMode format_mode_ = fmt::FormatMode::Csr;
  fmt::AmortizationPolicy format_policy_;
  prof::RunProfile* profile_ = nullptr;
};

extern template class Tuner<float>;
extern template class Tuner<double>;

}  // namespace spmv::core
