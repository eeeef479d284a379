// spmv::iter::IterativeSession — solver-loop serving (power iteration, CG,
// Jacobi sweeps): the same matrix multiplied hundreds of times back-to-back
// with the output feeding back as the next input. Three things distinguish
// it from the request/response SpmvService:
//
// 1. Latency-driven tuning. Every iteration IS a measurement, so when
//    SessionOptions::adapt is set the session never runs shadow launches —
//    it asks adapt::BanditTuner::next_variant() which plan to execute this
//    iteration (the incumbent, or a one-bin kernel challenger), times the
//    real launch, and reports it through feedback(). Promotions converge on
//    the oracle plan from serving latencies alone (adapt.trials stays 0;
//    adapt.l_trials / adapt.l_promotions count this path), and each
//    promoted plan is stamped with the serving block width
//    (Plan::spmm_width) so its provenance survives the PlanStore.
//
// 2. Value mutation without re-planning. update_values() installs new
//    non-zero values for the unchanged structure: plans are
//    value-independent, so the session keeps its plan, bins, and bandit
//    arm state. The new matrix shares the old one's structure block
//    (CsrMatrix::with_values) and materialized bin layouts share their
//    structure arrays too (fmt::PlanLayouts::refresh_values), so an update
//    is one parallel write of the values — no structure byte copied,
//    nothing re-sorted, zero binning or planning passes (SessionStats).
//    A retired state's value arrays return to a one-deep spare when the
//    last in-flight launch drops them, and the next update writes into
//    those already-touched pages (SessionStats::recycled_value_buffers).
//    replace_matrix() is the general form: only an identical structure
//    (the same block, or equal row_ptr and col_idx) takes the value path;
//    anything else re-bins and re-plans (SessionStats::structure_rebinds).
//
// 3. Block iterates. SessionOptions::spmm_width > 1 iterates a column-major
//    block of vectors through the true-SpMM path (core::execute_plan_spmm,
//    one CSR traversal for the whole block) — e.g. subspace/block power
//    iteration. seed()/step()/iterate() manage the feedback buffers; run()
//    / run_block() serve caller-owned vectors through the same timed,
//    tuning-fed path.
//
// Concurrency: execution state (matrix, plan, bins, layouts) lives in an
// immutable snapshot swapped atomically under a mutex — run()/run_block()
// read a snapshot and never block each other or a concurrent
// update_values()/promotion (in-flight launches keep the old matrix and
// layouts alive via shared_ptr). step() additionally serializes on the
// iterate buffers. Attach a PlanStore and the session warm-starts from it
// (SessionStats::warm_starts, planning_passes == 0) and writes its final
// plan back at flush()/destruction.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "adapt/bandit.hpp"
#include "adapt/plan_store.hpp"
#include "binning/binning.hpp"
#include "core/plan.hpp"
#include "core/predictor.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "fmt/plan_layouts.hpp"
#include "iter/dense_block.hpp"
#include "prof/profile.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"
#include "sparse/value_pool.hpp"

namespace spmv::iter {

struct SessionOptions {
  /// Dense right-hand-side columns per iteration (the block width). 1
  /// iterates a single vector; >1 routes through the true-SpMM path.
  int spmm_width = 1;
  /// Kept only because perfbench (perfbench/src/workloads.cpp) sets it:
  /// any value but Native throws std::invalid_argument at construction.
  exec::BackendKind backend = exec::BackendKind::Native;
  /// Per-bin format mode for fresh predictor-driven plans (`--format`).
  /// The session builds a plan's bin layouts on its first run: a session
  /// exists to be reused, so it pays for its layouts once, up front.
  fmt::FormatMode format = fmt::FormatMode::Csr;
  /// Optional telemetry sink: flush()/destruction folds the tuner's
  /// AdaptStats into profile->adapt; executions record per-bin timings
  /// continuously. Must outlive the session.
  prof::RunProfile* profile = nullptr;
  /// Optional persistent plan store: loaded (exactly once, by the session)
  /// at construction for warm start, written through on promotion, flushed
  /// at flush()/destruction. Must outlive the session; do not pre-load it.
  adapt::PlanStore* plan_store = nullptr;
  /// Enable latency-feedback tuning (see file comment). trial_fraction is
  /// ignored on this path — every iteration feeds the arms.
  std::optional<adapt::AdaptOptions> adapt;
};

/// Counters for the session's own lifecycle (the tuner's arm accounting is
/// prof::AdaptStats, merged into SessionOptions::profile at flush()).
struct SessionStats {
  std::uint64_t iterations = 0;        ///< timed executions (any width)
  std::uint64_t promotions = 0;        ///< latency-feedback plans applied
  std::uint64_t value_updates = 0;     ///< update_values / same-structure swaps
  std::uint64_t layout_refreshes = 0;  ///< bin layouts value-refreshed
  /// Value arrays (CSR or layout) written into a retired one's buffer
  /// instead of a fresh allocation.
  std::uint64_t recycled_value_buffers = 0;
  std::uint64_t structure_rebinds = 0; ///< replace_matrix re-bin + re-plan
  std::uint64_t planning_passes = 0;   ///< predictor-driven plan builds
  std::uint64_t warm_starts = 0;       ///< plans adopted from the store
  /// Bin layouts built and the wall time they took, from the session's
  /// fmt::LayoutStats (summed over structure rebinds). The first run of a
  /// plan builds its layouts.
  std::uint64_t layout_builds = 0;
  double layout_build_s = 0.0;
  /// Bins run from CSR because their layout was not built yet
  /// (fmt::LayoutStats::deferrals).
  std::uint64_t layout_deferrals = 0;
  /// Wall time inside timed executions, the first run's layout builds
  /// included.
  double exec_total_s = 0.0;
};

template <typename T>
class IterativeSession {
 public:
  /// Plan for `a` (warm-started from the store when possible, else through
  /// `predictor`) and stand ready to iterate. The predictor must outlive
  /// the session; the matrix is shared (update_values/replace_matrix swap
  /// it without invalidating in-flight runs).
  IterativeSession(std::shared_ptr<const CsrMatrix<T>> a,
                   const core::Predictor& predictor,
                   SessionOptions opts = {});

  /// flush() (logging, never throwing) — see flush().
  ~IterativeSession();

  IterativeSession(const IterativeSession&) = delete;
  IterativeSession& operator=(const IterativeSession&) = delete;

  /// One timed y = A·x iteration through the current plan (and, when
  /// tuning, this iteration's latency variant). Thread-safe; concurrent
  /// calls proceed in parallel on the same state snapshot.
  void run(std::span<const T> x, std::span<T> y);

  /// Block variant: Y = A·X for `width` column-major vectors through the
  /// true-SpMM path. run(x, y) == run_block(x, y, 1).
  void run_block(std::span<const T> x, std::span<T> y, int width);

  /// Seed the feedback iterate with `x0` (rows == cols required;
  /// spmm_width columns of a.cols() entries, column-major).
  void seed(std::span<const T> x0);

  /// One solver step: iterate <- A·iterate (whole block), returning a view
  /// of the new iterate. Callers normalize between steps via iterate().
  /// Serialized against other step() calls; safe alongside run() and
  /// update_values().
  std::span<const T> step();

  /// Mutable view of the current iterate block (rows*spmm_width entries),
  /// e.g. for per-step normalization. Not synchronized against a
  /// concurrent step() — interleave them from one thread.
  [[nodiscard]] std::span<T> iterate();

  /// Install new non-zero values for the unchanged structure (nnz()
  /// entries in CSR order, else std::invalid_argument). Keeps the plan,
  /// bins, and bandit state; value-refreshes materialized layouts. Runs
  /// already in flight finish against the old values.
  void update_values(std::span<const T> new_vals);

  /// Swap in a replacement matrix. One with an identical structure — the
  /// same structure block (O(1)), or equal row_ptr and col_idx, whose
  /// values then move onto the session's block — takes the update_values
  /// path with zero re-binning; any other re-bins and re-plans
  /// (warm-started from the store when it knows the new structure).
  void replace_matrix(std::shared_ptr<const CsrMatrix<T>> a);

  /// Write the current plan through to the store (stamped with the serving
  /// width) and flush it; fold tuner stats into the profile. Idempotent
  /// per accumulated delta; the destructor calls it, logging failures.
  void flush();

  [[nodiscard]] SessionStats stats() const;
  /// Snapshot of the current plan (copy — the live one may be promoted
  /// concurrently).
  [[nodiscard]] core::Plan plan() const;
  [[nodiscard]] std::shared_ptr<const CsrMatrix<T>> matrix() const;
  /// Tuner arm accounting (zeros when adapt is off).
  [[nodiscard]] prof::AdaptStats adapt_stats() const;

 private:
  /// Immutable execution snapshot; run() holds a shared_ptr across the
  /// launch so swaps never invalidate in-flight work.
  struct State {
    std::shared_ptr<const CsrMatrix<T>> a;
    serve::Fingerprint key;
    core::Plan plan;
    std::shared_ptr<const binning::BinSet> bins;
    std::shared_ptr<fmt::PlanLayouts<T>> layouts;  ///< null when CSR-only
  };

  [[nodiscard]] std::shared_ptr<const State> snapshot() const;
  [[nodiscard]] std::shared_ptr<State> build_state(
      std::shared_ptr<const CsrMatrix<T>> a);
  void execute(const std::shared_ptr<const State>& st, std::span<const T> x,
               std::span<T> y, int width);
  /// `m` behind a deleter that retires its values to values_pool_.
  [[nodiscard]] std::shared_ptr<const CsrMatrix<T>> own(CsrMatrix<T> m) const;
  /// A matrix on `structure`'s block holding a parallel copy of `vals`,
  /// written into a recycled buffer when one is spare.
  [[nodiscard]] std::shared_ptr<const CsrMatrix<T>> write_values(
      const CsrMatrix<T>& structure, std::span<const T> vals) const;
  /// Swap in `m` (same structure block as the live matrix) with
  /// value-refreshed layouts; `recycled` counts the value arrays already
  /// written into spares for it. Caller holds mu_.
  void install_values(std::shared_ptr<const CsrMatrix<T>> m,
                      std::uint64_t recycled);
  void apply_promotion(const std::shared_ptr<const State>& st,
                       typename adapt::BanditTuner<T>::Promotion promo);
  void store_put(const State& st, double gflops);
  /// Add `st`'s layout counters to `out`'s layout fields.
  static void add_layout_stats(const State& st, SessionStats& out);

  const core::Predictor& predictor_;
  SessionOptions opts_;
  const std::shared_ptr<const exec::Backend> backend_ =
      exec::shared_backend(exec::BackendKind::Native);
  std::unique_ptr<adapt::BanditTuner<T>> tuner_;  ///< null when adapt off

  mutable std::mutex mu_;          ///< guards state_ swaps
  std::shared_ptr<const State> state_;
  /// One-deep spare of retired CSR value arrays (see own()). Buffers, so
  /// a fresh array's first touch is write_values' parallel copy.
  std::shared_ptr<ValuePool<util::Buffer<T>>> values_pool_ =
      std::make_shared<ValuePool<util::Buffer<T>>>();

  mutable std::mutex stats_mu_;
  SessionStats stats_;
  bool profile_folded_ = false;

  std::mutex iter_mu_;             ///< serializes step() on the buffers
  DenseBlock<T> iterate_;
  DenseBlock<T> product_;
};

extern template class IterativeSession<float>;
extern template class IterativeSession<double>;

}  // namespace spmv::iter
