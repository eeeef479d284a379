// SpmvService — a concurrent SpMV serving layer: clients submit (matrix,
// vector) requests; worker threads drain them through plan-cached runtimes
// (serve/plan_cache.hpp), coalescing queued vectors against the same matrix
// into one SpMM execution (core::execute_plan_spmm).
//
//   spmv::core::HeuristicPredictor pred;
//   spmv::serve::SpmvService<float> service(pred);
//   auto fut = service.submit(matrix, x);   // matrix: shared_ptr<const Csr>
//   std::vector<float> y = fut.get();       // or service.run(matrix, x)
//
// Admission is bounded: submissions beyond ServiceOptions::queue_high_water
// queued requests are rejected with QueueFullError (backpressure — callers
// retry or shed load; requests already admitted are never dropped).
// Batching: a worker popping the queue head also claims up to max_batch-1
// later requests for the *same matrix object* (pointer identity — values
// matter, so structural equality is not enough) and executes them as one
// column-major Y = A·X SpMM. Every result is bit-identical to the same
// request served alone, so whether a request was coalesced never changes
// its bits.
//
// Warm start & online tuning (spmv::adapt): attach a PlanStore and the
// service loads it at construction (cache misses with a stored plan skip
// the predictor) and flushes it at shutdown. Set ServiceOptions::adapt and
// workers additionally shadow-measure alternative kernels on a fraction of
// requests, promoting improved plan revisions into the cache live.
//
// For serving ONE large matrix split into row partitions — per-shard plans
// and tuning plus tenant-weighted fair admission instead of this single
// FIFO — see spmv::shard::ShardedService (shard/sharded_service.hpp).
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapt/bandit.hpp"
#include "adapt/plan_store.hpp"
#include "core/predictor.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "prof/profile.hpp"
#include "serve/plan_cache.hpp"
#include "sparse/csr.hpp"

namespace spmv::obs {
class StreamingSink;
}

namespace spmv::serve {

/// Thrown by submit()/run() when the admission queue is at its high-water
/// mark — the service's backpressure signal.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(std::size_t high_water)
      : std::runtime_error("SpmvService: admission queue full (high water " +
                           std::to_string(high_water) + ")") {}
};

struct ServiceOptions {
  /// Built runtimes cached, each with its bins and layouts; a full cache
  /// admits a structure only if it is used at least as often as the one
  /// it would evict. Plans are kept beyond it: up to kPlansPerRuntime x
  /// cache_capacity structures rebuild from a kept plan instead of
  /// planning again (serve/plan_cache.hpp).
  std::size_t cache_capacity = 16;
  int workers = 2;                  ///< request-draining threads
  std::size_t queue_high_water = 256;  ///< admissions beyond this reject
  int max_batch = 8;                ///< vectors coalesced per execution
  /// Kept only because perfbench (perfbench/src/workloads.cpp) sets it:
  /// any value but Native throws std::invalid_argument at construction.
  exec::BackendKind backend = exec::BackendKind::Native;
  /// Per-bin format mode stamped onto fresh predictor-driven plans (the
  /// `--format csr|auto` knob). Auto lets the fmt estimator pick per-bin
  /// layouts. Warm-started and promoted plans keep their recorded formats.
  fmt::FormatMode format = fmt::FormatMode::Csr;
  /// Optional telemetry sink: shutdown() folds the service's ServeStats
  /// into profile->serve (and adapt stats into profile->adapt). Must
  /// outlive the service.
  prof::RunProfile* profile = nullptr;
  /// Optional persistent plan store: loaded (exactly once, by the service)
  /// at construction, written through on planning/promotion, flushed at
  /// shutdown. Must outlive the service; do not pre-load it yourself.
  adapt::PlanStore* plan_store = nullptr;
  /// Enable online adaptive tuning: workers shadow-measure alternative
  /// kernels per AdaptOptions and promote improved plans into the cache.
  std::optional<adapt::AdaptOptions> adapt;
  /// Optional streaming sink (spmv::obs): workers push per-batch stat
  /// deltas (width, exec time) and promotion markers as they happen, so
  /// telemetry leaves a long-lived service continuously instead of only at
  /// shutdown. Trace spans reach the sink separately via sink.attach().
  /// Must outlive the service.
  obs::StreamingSink* obs_sink = nullptr;
};

template <typename T>
class SpmvService {
 public:
  /// Start `opts.workers` worker threads. `predictor` must outlive the
  /// service; it is shared by every planning pass.
  explicit SpmvService(const core::Predictor& predictor,
                       const ServiceOptions& opts = {});

  /// Drains outstanding requests, then joins the workers.
  ~SpmvService();

  SpmvService(const SpmvService&) = delete;
  SpmvService& operator=(const SpmvService&) = delete;

  /// Enqueue y = (*a)·x. The future yields the result vector (a.rows()
  /// long) or rethrows the execution/planning failure. Throws
  /// QueueFullError beyond the high-water mark, std::invalid_argument on a
  /// null matrix or size mismatch, std::runtime_error after shutdown().
  [[nodiscard]] std::future<std::vector<T>> submit(
      std::shared_ptr<const CsrMatrix<T>> a, std::vector<T> x);

  /// Blocking convenience wrapper: submit() + get().
  [[nodiscard]] std::vector<T> run(std::shared_ptr<const CsrMatrix<T>> a,
                                   std::vector<T> x);

  /// Enqueue a true-SpMM request: Y = (*a)·X for `width` dense right-hand
  /// sides stored column-major in `x` (width columns of a.cols() entries).
  /// The future yields the column-major result block (a.rows()*width
  /// entries). An SpMM request executes alone through
  /// core::execute_plan_spmm (one CSR traversal for the whole block) — it
  /// is never coalesced with queued single-vector requests, and they never
  /// join it. Same admission errors as submit(); width must be positive.
  [[nodiscard]] std::future<std::vector<T>> submit_spmm(
      std::shared_ptr<const CsrMatrix<T>> a, std::vector<T> x, int width);

  /// Blocking convenience wrapper: submit_spmm() + get().
  [[nodiscard]] std::vector<T> run_spmm(std::shared_ptr<const CsrMatrix<T>> a,
                                        std::vector<T> x, int width);

  /// Stop accepting work, drain the queue, join the workers — which also
  /// drains any in-flight adapt trials (trials run synchronously on the
  /// workers) — THEN flush the plan store, then fold stats into
  /// ServiceOptions::profile. Idempotent. A store flush failure is logged,
  /// never thrown (shutdown must complete).
  void shutdown();

  /// Snapshot of the serving statistics (includes plan-cache counters).
  [[nodiscard]] prof::ServeStats stats() const;

  /// The underlying plan cache (e.g. for warm-up or introspection).
  [[nodiscard]] PlanCache<T>& cache() { return cache_; }

 private:
  struct Request;
  struct Queue;

  void worker_loop();

  ServiceOptions opts_;
  PlanCache<T> cache_;
  std::unique_ptr<adapt::BanditTuner<T>> tuner_;  ///< null when adapt off
  std::unique_ptr<Queue> queue_;  ///< pimpl: keeps <deque>/<thread> out of
                                  ///< the public header
};

extern template class SpmvService<float>;
extern template class SpmvService<double>;

}  // namespace spmv::serve
