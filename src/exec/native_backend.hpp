// exec::NativeBackend — lowers the pool's bin shapes to tight
// auto-vectorized C++ loops on the host CPU. Each bin launch partitions the
// bin's slots across OpenMP threads (dynamic row-range chunks, mirroring
// kernels::spmv_omp_rows); the kernel id selects the inner-loop
// organization of each row's dot product: Serial is a plain scalar loop,
// Sub<X> keeps X partial accumulators (the CPU analogue of X cooperating
// lanes — it unrolls the nonzero stream X-wide so the compiler can keep the
// partial sums in SIMD registers), Vector is an `omp simd` reduction over
// the whole row. SpMM launches share one CSR traversal across a tile of
// output columns, accumulating each column in its shape's single-vector
// order, so a width-N run is bit-identical to N single-vector runs.
//
// Results match ClsimBackend up to floating-point association order; the
// differential suite checks both against the exact reference under the
// usual tolerances.
#pragma once

#include "exec/backend.hpp"

namespace spmv::exec {

struct NativeOptions {
  /// Worker threads per launch; 0 = the OpenMP runtime default. Launches
  /// over small bins run inline regardless to avoid fork/join overhead.
  int threads = 0;
};

class NativeBackend final : public Backend {
 public:
  explicit NativeBackend(NativeOptions options = {}) : options_(options) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Native;
  }
  [[nodiscard]] const NativeOptions& options() const { return options_; }

  /// Native executes materialized bin layouts (spmv::fmt): ELL column-major
  /// walks, COO triple chunks, delta-decoded CSR — each scalar + batched.
  [[nodiscard]] bool supports_formats() const override { return true; }

 protected:
  void do_run_binned(kernels::KernelId id, const CsrMatrix<float>& a,
                     std::span<const float> x, std::span<float> y,
                     std::span<const index_t> vrows,
                     index_t unit) const override;
  void do_run_binned(kernels::KernelId id, const CsrMatrix<double>& a,
                     std::span<const double> x, std::span<double> y,
                     std::span<const index_t> vrows,
                     index_t unit) const override;
  void do_run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                   std::span<const float> x, std::span<float> y, int width,
                   std::span<const index_t> vrows,
                   index_t unit) const override;
  void do_run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                   std::span<const double> x, std::span<double> y, int width,
                   std::span<const index_t> vrows,
                   index_t unit) const override;
  void do_run_layout(const CsrMatrix<float>& a, const fmt::BinLayout<float>& l,
                     std::span<const float> x,
                     std::span<float> y) const override;
  void do_run_layout(const CsrMatrix<double>& a,
                     const fmt::BinLayout<double>& l,
                     std::span<const double> x,
                     std::span<double> y) const override;
  void do_run_layout_batch(const CsrMatrix<float>& a,
                           const fmt::BinLayout<float>& l,
                           std::span<const float> x, std::span<float> y,
                           int batch) const override;
  void do_run_layout_batch(const CsrMatrix<double>& a,
                           const fmt::BinLayout<double>& l,
                           std::span<const double> x, std::span<double> y,
                           int batch) const override;

 private:
  NativeOptions options_;
};

}  // namespace spmv::exec
