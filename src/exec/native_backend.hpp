// exec::NativeBackend — lowers the pool's bin shapes to tight
// auto-vectorized C++ loops on the host CPU.
//
// Execution is one work list per call. run_bins (a whole plan, from
// core::execute_plan) cuts every bin into items of about equal work —
// runs of slots of a CSR bin, packed rows of an ELL bin, chunks of a COO
// bin, whole sort windows of a sliced Dcsr bin — and runs them all in one
// OpenMP parallel region under dynamic scheduling. The region's team is
// at most the calling thread's budget (util/threads.hpp), so two busy
// serve workers with two threads each never open more than four threads
// between them, and one thread per 32k units of work (nonzeros plus
// rows) at most, so a small list runs inline instead of waking a team.
// Bins cover disjoint rows, so no barrier separates them. The work list
// is the backend's one run hook (do_run_bins): the single-bin entries
// (run_binned, run_spmm, run_layout*) reach it as a list of one bin.
//
// The kernel id selects the inner-loop organization of each row's dot
// product: Serial is a plain scalar loop, Sub<X> keeps X partial
// accumulators (the CPU analogue of X cooperating lanes — it unrolls the
// nonzero stream X-wide so the compiler can keep the partial sums in SIMD
// registers), Vector is an `omp simd` reduction over the whole row. SpMM
// shares one CSR traversal across a tile of output columns, accumulating
// each column in its shape's single-vector order. Every row is computed
// whole by one item in that order, so neither the cut nor the width
// changes a bit: a plan run is bit-identical to per-bin launches, and a
// width-N run to N single-vector runs.
//
// Results match ClsimBackend up to floating-point association order; the
// differential suite checks both against the exact reference under the
// usual tolerances.
#pragma once

#include "exec/backend.hpp"

namespace spmv::exec {

class NativeBackend final : public Backend {
 public:
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::Native;
  }

  /// Native executes materialized bin layouts (spmv::fmt): ELL column-major
  /// walks, COO triple chunks, delta-decoded CSR — each scalar + batched.
  [[nodiscard]] bool supports_formats() const override { return true; }

 protected:
  void do_run_bins(const CsrMatrix<float>& a,
                   std::span<const BinTask<float>> tasks,
                   std::span<const float> x, std::span<float> y,
                   int width) const override;
  void do_run_bins(const CsrMatrix<double>& a,
                   std::span<const BinTask<double>> tasks,
                   std::span<const double> x, std::span<double> y,
                   int width) const override;
};

}  // namespace spmv::exec
