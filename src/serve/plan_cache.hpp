// PlanCache — a two-tier cache keyed by matrix fingerprint, so a serving
// workload pays the planning cost (feature extraction, prediction, binning
// and the per-bin format scan) once per distinct matrix structure.
//
// Runtime tier: an LRU of built AutoSpmv runtimes (plan, bins, layouts and
// the matrix they were built against), bounded by `capacity`. Hits, misses
// and evictions count this tier.
//
// Plan tier: an LRU of bare core::Plans, bounded by kPlansPerRuntime x
// capacity. It holds no matrix, bins or layouts, and always holds the
// latest plan revision of every structure it keeps: written when a plan is
// built and again on each promote(). A plan depends only on structure, so
// evicting a runtime keeps its plan, and the next miss on that structure
// re-bins the kept plan against the requesting matrix (counted as a
// plan_hit) instead of planning again.
//
// Miss order: plan tier, then the attached PlanStore (a warm_hit), then the
// predictor (a planning_pass, written through to the store). The plan tier
// and the store rebuild the runtime the same way; the rebuilt runtime
// starts with fresh layouts.
//
// Concurrency: get() is safe from any number of threads. Concurrent misses
// on the same fingerprint share ONE build — the first requester builds
// while the rest block on a shared_future for the same entry — and a miss
// whose plan is still being made by another thread waits for that plan
// rather than planning again. Builds run outside the cache lock, so
// planning one matrix never stalls hits on others. A failed build removes
// its slots (and rethrows), leaving later requests free to retry.
//
// Online refinement: promote() atomically swaps a cached entry's runtime
// for one rebuilt from an improved Plan (spmv::adapt promotions). Plan
// revisions are monotonic per key — a stale promotion (revision <= the
// cached plan's) is dropped, as is one whose runtime was evicted meanwhile.
//
// Correctness note: the fingerprint hashes structure, not values (see
// fingerprint.hpp), so an Entry's runtime is bound to the *first* matrix
// seen with that structure. Callers that may hold structurally equal
// matrices with different values must execute through the entry's
// plan()/bins() against their own matrix (core::execute_plan) rather than
// calling entry->runtime.run() — that is exactly what SpmvService does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "adapt/plan_store.hpp"
#include "clsim/engine.hpp"
#include "core/auto_spmv.hpp"
#include "exec/backend.hpp"
#include "core/predictor.hpp"
#include "fmt/format.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"

namespace spmv::serve {

/// Plan-tier slots per runtime slot: the plan tier keeps up to
/// kPlansPerRuntime x capacity plans (1024 at the default capacity of 16),
/// and the fingerprint memo as many structure ids. A kept 16-bin plan is
/// 272 bytes, about 600 with its map node, LRU node and shared state, so
/// the tier costs about 0.6 MB at the default capacity; a memo entry is
/// about 64 bytes.
inline constexpr std::size_t kPlansPerRuntime = 64;

template <typename T>
class PlanCache {
 public:
  /// A cached runtime plus shared ownership of the matrix it was planned
  /// for (the runtime holds references into *matrix).
  struct Entry {
    Fingerprint key;
    std::shared_ptr<const CsrMatrix<T>> matrix;
    core::AutoSpmv<T> runtime;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Misses rebuilt from a plan kept in the plan tier (predictor and
    /// store skipped).
    std::uint64_t plan_hits = 0;
    /// Misses satisfied from the attached PlanStore (predictor skipped).
    std::uint64_t warm_hits = 0;
    /// Misses that ran a full predictor-driven planning pass.
    std::uint64_t planning_passes = 0;
    /// promote() calls that actually replaced a cached entry.
    std::uint64_t promotions = 0;
    /// Subset of promotions that swapped in a structurally different plan
    /// — a different granularity or single-bin flag, i.e. a U-exploration
    /// win that re-binned the matrix rather than re-picking one bin's
    /// kernel.
    std::uint64_t rebin_promotions = 0;
  };

  /// `predictor` and `engine` are used for every planning pass and must
  /// outlive the cache, as must `store` when non-null (the cache does not
  /// load or flush the store — the owner does; see SpmvService).
  /// `default_backend` is the backend stamped onto fresh predictor-driven
  /// plans; warm-started and promoted plans execute on whatever backend
  /// they carry (backend is a plan property — see exec/backend.hpp).
  /// `format_mode` likewise applies only to fresh predictor-driven plans:
  /// Auto lets the fmt estimator stamp per-bin formats (effective only on
  /// format-capable backends); warm-started and promoted plans keep their
  /// recorded per-bin formats either way.
  /// Throws std::invalid_argument when capacity is 0.
  PlanCache(const core::Predictor& predictor, const clsim::Engine& engine,
            std::size_t capacity, adapt::PlanStore* store = nullptr,
            exec::BackendKind default_backend = exec::BackendKind::Clsim,
            fmt::FormatMode format_mode = fmt::FormatMode::Csr);

  /// Return the cached runtime for `matrix`'s structure, rebuilding it from
  /// a kept or stored plan, or planning it (or waiting for a concurrent
  /// planner), on a miss. Rethrows the planning failure, if any.
  [[nodiscard]] std::shared_ptr<const Entry> get(
      const std::shared_ptr<const CsrMatrix<T>>& matrix);

  /// Swap the cached entry for `key` to a runtime rebuilt from `plan`
  /// (revision must be strictly greater than the cached plan's). Returns
  /// the new entry, or nullptr when the promotion lost — key evicted, a
  /// newer revision already cached, or the slot still mid-build. On
  /// success the improved plan is also kept in the plan tier and written
  /// through to the store (`gflops` annotates the store entry).
  std::shared_ptr<const Entry> promote(const Fingerprint& key,
                                       const core::Plan& plan,
                                       double gflops = 0.0);

  /// fingerprint_of(a), memoized by a.structure_id(): the structure block
  /// is immutable and its id never recycled, so the memo cannot go stale.
  [[nodiscard]] Fingerprint fingerprint(const CsrMatrix<T>& a);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] adapt::PlanStore* store() const { return store_; }

 private:
  using EntryFuture = std::shared_future<std::shared_ptr<const Entry>>;
  using PlanFuture = std::shared_future<std::shared_ptr<const core::Plan>>;

  struct Slot {
    EntryFuture future;
    std::list<Fingerprint>::iterator lru_pos;
  };
  struct PlanSlot {
    PlanFuture plan;
    std::list<Fingerprint>::iterator lru_pos;
  };

  /// Make `plan` the kept plan for `key`, most recently used, evicting the
  /// plan tier's least recently used beyond its bound. Caller holds mutex_.
  void keep_plan(const Fingerprint& key, PlanFuture plan);

  const core::Predictor& predictor_;
  const clsim::Engine& engine_;
  const std::size_t capacity_;
  const std::size_t plan_capacity_;  ///< capacity_ x kPlansPerRuntime
  adapt::PlanStore* store_;
  const exec::BackendKind default_backend_;
  const fmt::FormatMode format_mode_;

  mutable std::mutex mutex_;
  std::unordered_map<Fingerprint, Slot, FingerprintHash> slots_;
  std::list<Fingerprint> lru_;  ///< front = most recently used
  std::unordered_map<Fingerprint, PlanSlot, FingerprintHash> plans_;
  std::list<Fingerprint> plan_lru_;  ///< front = most recently used
  /// structure_id -> fingerprint; cleared whenever it reaches the plan
  /// tier's bound.
  std::unordered_map<std::uint64_t, Fingerprint> fingerprints_;
  Stats stats_;
};

extern template class PlanCache<float>;
extern template class PlanCache<double>;

}  // namespace spmv::serve
