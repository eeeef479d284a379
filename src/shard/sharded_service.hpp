// ShardedService — row-partitioned serving of ONE large matrix: K shards
// (shard/partition.hpp), each with its own thread share, its own plan, its
// own bandit arm state, and its own PlanStore entry; requests fan out to
// every shard and the disjoint output row ranges scatter-gather into one
// result vector with no copy of x. In front, a tenant-weighted fair queue
// (shard/fair_queue.hpp) replaces SpmvService's single FIFO.
//
//   spmv::core::HeuristicPredictor pred;
//   spmv::shard::ShardedOptions opts;
//   opts.partition.shards = 4;
//   opts.tenants = {{"interactive", 4.0}, {"batch", 1.0}};
//   spmv::shard::ShardedService<float> service(matrix, pred, opts);
//   auto fut = service.submit("interactive", x);
//   std::vector<float> y = fut.get();        // full matrix rows
//
// Contrast with serve::SpmvService (one runtime per matrix *structure*,
// many matrices): the sharded service owns exactly one matrix and splits
// it, so a mixed-regime matrix whose head rows are dense and tail rows are
// scattered stops compromising on one plan — each shard's sub-matrix bins,
// tunes, persists, and promotes independently (per-shard fingerprints key
// everything downstream). Request execution is all-shards-or-error: the
// last shard to finish completes the promise; any shard failure fails the
// whole request exactly once.
//
// Admission/dispatch: submit() admits into the fair queue (per-tenant
// quotas against the shared queue_high_water; QueueFullError on bounce,
// counted per tenant). A small dispatch window (dispatch_window requests
// in flight across the shard pool) keeps the backlog *in the fair queue*
// where DRR ordering applies, rather than deep in per-shard work queues
// where it would be FIFO again.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/bandit.hpp"
#include "adapt/plan_store.hpp"
#include "core/plan.hpp"
#include "core/predictor.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "prof/profile.hpp"
#include "serve/service.hpp"
#include "shard/fair_queue.hpp"
#include "shard/partition.hpp"
#include "sparse/csr.hpp"

namespace spmv::obs {
class StreamingSink;
}

namespace spmv::shard {

struct ShardedOptions {
  /// Row partition (PartitionOptions::shards is K; locality cost model
  /// documented there).
  PartitionOptions partition{.shards = 2};
  /// Admission tenants. Empty = one "default" tenant of weight 1 (every
  /// submit() must then use tenant "default").
  std::vector<TenantSpec> tenants;
  /// Fair (DRR + quotas) or Fifo (global arrival order — the baseline).
  QueuePolicy queue_policy = QueuePolicy::Fair;
  /// Shared admission bound; per-tenant quotas divide it under Fair.
  std::size_t queue_high_water = 256;
  /// Worker threads per shard partition.
  int workers_per_shard = 1;
  /// Requests concurrently in flight across the shard pool; 0 resolves to
  /// max(2, 2 * workers_per_shard). Small on purpose: backlog beyond it
  /// waits in the fair queue where DRR ordering applies.
  std::size_t dispatch_window = 0;
  /// Native threads split across the K x workers_per_shard shard
  /// workers; 0 = the constructing thread's budget (util::thread_budget:
  /// OMP_NUM_THREADS or the CPUs the process may run on). Each shard
  /// worker gets a budget of max(1, total / (K * workers_per_shard)).
  int total_compute_units = 0;
  /// Kept only because perfbench (perfbench/src/workloads.cpp) sets it:
  /// any value but Native throws std::invalid_argument at construction.
  exec::BackendKind backend = exec::BackendKind::Native;
  /// Format mode stamped onto fresh predictor-driven shard plans;
  /// warm-started and promoted plans keep their own.
  fmt::FormatMode format = fmt::FormatMode::Csr;
  /// shutdown() folds ServeStats (incl. per-tenant/per-shard blocks) into
  /// profile->serve and merged bandit stats into profile->adapt.
  prof::RunProfile* profile = nullptr;
  /// Loaded at construction, per-shard fingerprints looked up for warm
  /// starts, written through on planning/promotion, flushed at shutdown.
  adapt::PlanStore* plan_store = nullptr;
  /// Online adaptation: one BanditTuner per shard, arms keyed by the
  /// shard's own fingerprint.
  std::optional<adapt::AdaptOptions> adapt;
  /// Streaming stat deltas (shard-tagged) as they happen.
  obs::StreamingSink* obs_sink = nullptr;
};

template <typename T>
class ShardedService {
 public:
  /// Partitions, plans (or warm-starts) every shard, and spawns
  /// workers_per_shard threads per shard. `predictor` must outlive the
  /// service.
  ShardedService(std::shared_ptr<const CsrMatrix<T>> a,
                 const core::Predictor& predictor,
                 const ShardedOptions& opts = {});

  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Enqueue y = A·x for `tenant`. The future yields the full rows()-long
  /// result or rethrows the first shard failure. Throws
  /// serve::QueueFullError on an admission bounce (also counted in the
  /// tenant's ServeStats block), std::invalid_argument on a size mismatch
  /// or unknown tenant, std::runtime_error after shutdown().
  [[nodiscard]] std::future<std::vector<T>> submit(const std::string& tenant,
                                                   std::vector<T> x);

  /// Blocking convenience wrapper: submit() + get().
  [[nodiscard]] std::vector<T> run(const std::string& tenant,
                                   std::vector<T> x);

  /// Stop admitting, drain the fair queue and every shard queue, join the
  /// workers (which drains in-flight adapt trials), flush the plan store
  /// (failure logged, never thrown), fold stats into opts.profile.
  /// Idempotent.
  void shutdown();

  /// Snapshot including per-tenant and per-shard blocks.
  [[nodiscard]] prof::ServeStats stats() const;

  /// One shard's identity and live tuning state.
  struct ShardInfo {
    int index = 0;
    ShardRange range;
    serve::Fingerprint fingerprint;
    core::Plan plan;            ///< current (possibly promoted) plan
    bool warm_start = false;    ///< construction hit the plan store
    std::uint64_t executions = 0;
    double exec_total_s = 0.0;
    std::uint64_t promotions = 0;
  };
  [[nodiscard]] std::vector<ShardInfo> shard_infos() const;

  [[nodiscard]] const ShardSet<T>& shards() const { return set_; }
  [[nodiscard]] int shard_count() const { return set_.count(); }

 private:
  struct Shard;
  struct State;  ///< pimpl: fair queue, <deque>/<thread>, stats

  /// One shard worker; `threads` is its share of the thread budget.
  void worker_loop(int shard, int threads);
  void dispatch_locked();
  /// stats() body; caller holds the state mutex.
  [[nodiscard]] prof::ServeStats stats_unlocked() const;

  ShardedOptions opts_;
  ShardSet<T> set_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<State> state_;
};

extern template class ShardedService<float>;
extern template class ShardedService<double>;

}  // namespace spmv::shard
