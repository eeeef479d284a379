// Layer probes of the traced run: standalone calls into the planning
// (sparse / core / binning / fmt) and kernel (exec) layers' public
// functions on one workload matrix, timed from the benchmark's own code and
// recorded as spans. Nothing here runs in an untraced run.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bytes_model.hpp"
#include "core/predictor.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using CsrPtr = std::shared_ptr<const spmv::CsrMatrix<Scalar>>;

/// One matrix's planning and kernel ledger. Times are medians over the
/// probe's repetitions.
struct PlanProbe {
  double features_ms = 0.0;    ///< compute_row_stats
  double predict_ms = 0.0;     ///< predict_unit + predict_kernel per bin
  double binning_ms = 0.0;     ///< binning::bin_matrix (or single_bin)
  double build_ms = 0.0;       ///< core::Tuner::build()
  double layout_build_ms = 0.0;  ///< fmt::build_bin_layout, non-CSR bins
  double layout_mb = 0.0;        ///< sum of BinLayout::bytes, 1e6 B
  double plan_exec_ms = 0.0;   ///< one core::execute_plan
  double kernel_ms = 0.0;      ///< sum of per-bin run_binned / run_layout
  double bins = 0.0;           ///< occupied bins
  double hot_bin_share = 0.0;  ///< slowest bin / kernel_ms
  double spmm_ms_per_col = 0.0;  ///< execute_plan_spmm at width 8, / 8
  double bytes_mb = 0.0;       ///< computed bytes of one product, 1e6 B
};

/// Plans `a` through the public planning calls and times the plan's
/// execution whole and bin by bin on the native backend.
PlanProbe probe_plan(const spmv::CsrMatrix<Scalar>& a,
                     const spmv::core::Predictor& pred, int reps);

/// Field-wise mean over matrices.
PlanProbe mean_probe(std::span<const PlanProbe> probes);

struct CacheProbe {
  double hit_us = 0.0;   ///< PlanCache::get of a cached structure
  double miss_ms = 0.0;  ///< PlanCache::get that plans
};

/// PlanCache::get on a standalone cache (native backend, auto formats):
/// each matrix once cold, then repeatedly warm; means over matrices.
CacheProbe probe_cache(std::span<const CsrPtr> mats,
                       const spmv::core::Predictor& pred);

/// Positive pseudo-random values in [0.5, 1.5): with the generators'
/// positive matrix values no product cancels, so a relative tolerance
/// checks every output entry tightly.
std::vector<Scalar> positive_vector(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
