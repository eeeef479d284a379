// exec::ClsimBackend — the reference Backend: dispatches every bin shape to
// the paper's lockstep work-group kernels (kernels/kernel_*.cpp) on a
// clsim::Engine. Wrapping the engine unchanged, it is behaviorally
// identical to the pre-exec code path, which is exactly what makes it the
// differential-testing anchor for every other backend.
#pragma once

#include "clsim/engine.hpp"
#include "exec/backend.hpp"

namespace spmv::exec {

class ClsimBackend final : public Backend {
 public:
  /// Dispatch on `engine`, which must outlive the backend. The shared
  /// instance (shared_backend(BackendKind::Clsim)) drives the process-wide
  /// clsim::default_engine(); HeteroAutoSpmv runs its throughput bins on
  /// an instance over its own engine.
  explicit ClsimBackend(const clsim::Engine& engine = clsim::default_engine())
      : engine_(&engine) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Clsim;
  }
  [[nodiscard]] const clsim::Engine* engine() const override {
    return engine_;
  }

 protected:
  void do_run_bins(const CsrMatrix<float>& a,
                   std::span<const BinTask<float>> tasks,
                   std::span<const float> x, std::span<float> y,
                   int width) const override;
  void do_run_bins(const CsrMatrix<double>& a,
                   std::span<const BinTask<double>> tasks,
                   std::span<const double> x, std::span<double> y,
                   int width) const override;

 private:
  const clsim::Engine* engine_;
};

}  // namespace spmv::exec
