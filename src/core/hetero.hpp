// Heterogeneous bin scheduling — the paper's §VI future-work proposal:
// "schedule the execution of the small sized but high volume bins onto the
// throughput-oriented processors and the large sized but low volume bins
// onto the latency-oriented processors".
//
// HeteroAutoSpmv partitions a plan's occupied bins between two executors:
// the throughput device (the clsim work-group engine — the APU's GPU half)
// and the latency device (direct row-parallel CPU execution). Bins whose
// average row workload is below `gpu_row_threshold` keep their pool kernel
// on the throughput engine; the long-row bins run on the latency executor,
// which processes each covered row with a plain sequential inner loop
// (strong single-thread performance, no SIMT padding waste).
//
// The ablation bench (bench/ablation_hetero) measures this split against
// the homogeneous plan.
#pragma once

#include <span>

#include "clsim/engine.hpp"
#include "core/auto_spmv.hpp"

namespace spmv::core {

struct HeteroOptions {
  /// Bins with bin_id >= this (i.e. avg row length >= threshold) go to the
  /// latency-oriented executor.
  int gpu_row_threshold = 64;
  /// Threads for the latency executor; 0 = all hardware threads.
  int cpu_threads = 0;
};

template <typename T>
class HeteroAutoSpmv {
 public:
  /// Plan with `predictor`, then split bins by `options`.
  HeteroAutoSpmv(const CsrMatrix<T>& a, const Predictor& predictor,
                 const HeteroOptions& options = {},
                 const clsim::Engine& engine = clsim::default_engine());

  /// y = A*x: throughput-device bins via their pool kernels, latency-device
  /// bins via row-parallel CPU loops.
  void run(std::span<const T> x, std::span<T> y) const;

  [[nodiscard]] const Plan& plan() const { return plan_; }
  /// Bin ids assigned to the throughput (GPU-like) engine.
  [[nodiscard]] const std::vector<int>& gpu_bins() const { return gpu_bins_; }
  /// Bin ids assigned to the latency (CPU) executor.
  [[nodiscard]] const std::vector<int>& cpu_bins() const { return cpu_bins_; }

 private:
  const CsrMatrix<T>& a_;
  const clsim::Engine& engine_;
  HeteroOptions options_;
  Plan plan_;
  binning::BinSet bins_;
  std::vector<int> gpu_bins_;
  std::vector<int> cpu_bins_;
};

/// Latency-executor primitive: row-parallel CPU SpMV restricted to the
/// rows covered by `vrows` at granularity `unit` (rows outside untouched).
template <typename T>
void spmv_cpu_binned(const CsrMatrix<T>& a, std::span<const T> x,
                     std::span<T> y, std::span<const index_t> vrows,
                     index_t unit, int threads = 0);

extern template class HeteroAutoSpmv<float>;
extern template class HeteroAutoSpmv<double>;
extern template void spmv_cpu_binned(const CsrMatrix<float>&,
                                     std::span<const float>, std::span<float>,
                                     std::span<const index_t>, index_t, int);
extern template void spmv_cpu_binned(const CsrMatrix<double>&,
                                     std::span<const double>,
                                     std::span<double>,
                                     std::span<const index_t>, index_t, int);

}  // namespace spmv::core
