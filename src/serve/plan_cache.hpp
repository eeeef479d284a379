// PlanCache — a two-tier cache keyed by matrix fingerprint, so a serving
// workload pays the planning cost (feature extraction, prediction, binning
// and the per-bin format scan) once per distinct matrix structure.
//
// Runtime tier: built AutoSpmv runtimes (plan, bins, layouts and the
// matrix they were built against), bounded by `capacity`, with LRU
// eviction behind a frequency gate (TinyLFU-style admission, Einziger et
// al., arXiv:1512.00727). Every get() counts one use of its structure in
// the plan tier; a structure seen for the first time counts 1. A miss that
// finds the tier full is admitted only if its use count is >= the least
// recently used runtime's, which it then evicts; ties admit, so structures
// of equal counts evict exactly as a plain LRU. A miss that is not admitted
// is served a runtime rebuilt from its plan and returned uncached: it never
// reaches fmt's min_reuse, so a one-shot structure builds no layouts and
// evicts no hot runtime. Counts halve every kPlansPerRuntime x capacity
// gets, so a structure that turns hot is admitted within one such period.
// Hits, misses (admitted or not), evictions and not_admitted count this
// tier.
//
// Plan tier: an LRU of bare core::Plans and use counts, bounded by
// kPlansPerRuntime x capacity and refreshed by every get(). It holds no
// matrix, bins or layouts, and always holds the latest plan revision of
// every structure it keeps: written when a plan is built and again on each
// promote(). A plan depends only on structure, so a structure without a
// cached runtime keeps its plan, and its next miss re-bins the kept plan
// against the requesting matrix (counted as a plan_hit) instead of
// planning again.
//
// Miss order: plan tier, then the attached PlanStore (a warm_hit), then the
// predictor (a planning_pass, written through to the store). The plan tier
// and the store rebuild the runtime the same way; the rebuilt runtime
// starts with fresh layouts. Every plan is native.
//
// Concurrency: get() is safe from any number of threads. Concurrent misses
// on the same fingerprint share ONE build — the first requester builds
// while the rest block on a shared_future for the same entry — and a miss
// whose plan is still being made by another thread waits for that plan
// rather than planning again. Builds run outside the cache lock, so
// planning one matrix never stalls hits on others. A failed build removes
// its slots (and rethrows), a kept plan that failed to rebuild included,
// and erases a stored plan that failed to build, leaving later requests
// free to retry and plan again. Misses that are not admitted share the
// plan but each rebuild their own runtime (a re-binning, no planning pass).
//
// Online refinement: promote() atomically swaps a cached entry's runtime
// for one rebuilt from an improved Plan (spmv::adapt promotions). Plan
// revisions are monotonic per key — a stale promotion (revision <= the
// cached plan's) is dropped. A promotion for a structure with no cached
// runtime (evicted or never admitted) replaces its kept plan instead, so
// the next miss rebuilds at the promoted revision.
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
#include "core/auto_spmv.hpp"
#include "core/predictor.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"

namespace spmv::serve {

/// Plan-tier slots per runtime slot: the plan tier keeps up to
/// kPlansPerRuntime x capacity plans (1024 at the default capacity of 16),
/// and the fingerprint memo as many structure ids; use counts halve once
/// per that many get()s. A kept 16-bin plan is 272 bytes, about 600 with
/// its map node, LRU node and shared state, so the tier costs about 0.6 MB
/// at the default capacity; a memo entry is about 64 bytes.
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
    /// Misses that found the runtime tier full of more frequently used
    /// structures: served an uncached runtime, nothing evicted.
    std::uint64_t not_admitted = 0;
    /// promote() calls that actually replaced a cached entry.
    std::uint64_t promotions = 0;
    /// Subset of promotions that swapped in a structurally different plan
    /// — a different granularity or single-bin flag, i.e. a U-exploration
    /// win that re-binned the matrix rather than re-picking one bin's
    /// kernel.
    std::uint64_t rebin_promotions = 0;
  };

  /// `predictor` is used for every planning pass and must outlive the
  /// cache, as must `store` when non-null (the cache does not load or
  /// flush the store — the owner does; see SpmvService). `format_mode`
  /// applies only to fresh predictor-driven plans: Auto lets the fmt
  /// estimator stamp per-bin formats; warm-started and promoted plans keep
  /// their recorded per-bin formats either way.
  /// Throws std::invalid_argument when capacity is 0.
  PlanCache(const core::Predictor& predictor, std::size_t capacity,
            adapt::PlanStore* store = nullptr,
            fmt::FormatMode format_mode = fmt::FormatMode::Csr);

  /// Kept only because perfbench (perfbench/src/probe.cpp) calls it: the
  /// engine is ignored; any backend but Native throws invalid_argument.
  PlanCache(const core::Predictor& predictor, const clsim::Engine& /*engine*/,
            std::size_t capacity, adapt::PlanStore* store,
            exec::BackendKind backend, fmt::FormatMode format_mode)
      : PlanCache(predictor, capacity, store, format_mode) {
    exec::require_native(backend, "PlanCache");
  }

  /// Return the cached runtime for `matrix`'s structure, rebuilding it from
  /// a kept or stored plan, or planning it (or waiting for a concurrent
  /// planner), on a miss. A miss that is not admitted returns a runtime
  /// that is not cached. Rethrows the planning failure, if any.
  [[nodiscard]] std::shared_ptr<const Entry> get(
      const std::shared_ptr<const CsrMatrix<T>>& matrix);

  /// Swap the cached entry for `key` to a runtime rebuilt from `plan`
  /// (revision must be strictly greater than the cached plan's). Throws
  /// std::invalid_argument when `plan` is not a native plan. Returns
  /// the new entry, or nullptr when no runtime was replaced — a newer
  /// revision already cached, the slot still mid-build, or no runtime
  /// cached for `key`. In the last case a plan newer than the kept one
  /// still replaces it. Whenever the improved plan is kept it is also
  /// written through to the store (`gflops` annotates the store entry).
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
    std::uint64_t uses = 0;  ///< get()s, halved every plan_capacity_ gets
  };

  /// Make `plan` the kept plan for `key`, most recently used, evicting the
  /// plan tier's least recently used beyond its bound; returns its slot
  /// (a new one counts no uses yet). Caller holds mutex_.
  PlanSlot& keep_plan(const Fingerprint& key, PlanFuture plan);

  /// promote() for a key with no runtime slot: if the plan tier holds an
  /// older, finished revision, keep `plan` (normalized) instead and write
  /// it through to the store. `lock` holds mutex_ and may be released.
  void keep_uncached(std::unique_lock<std::mutex>& lock,
                     const Fingerprint& key, core::Plan plan, double gflops);

  const core::Predictor& predictor_;
  const std::size_t capacity_;
  const std::size_t plan_capacity_;  ///< capacity_ x kPlansPerRuntime
  adapt::PlanStore* store_;
  const fmt::FormatMode format_mode_;

  mutable std::mutex mutex_;
  std::unordered_map<Fingerprint, Slot, FingerprintHash> slots_;
  std::list<Fingerprint> lru_;  ///< front = most recently used
  std::unordered_map<Fingerprint, PlanSlot, FingerprintHash> plans_;
  std::list<Fingerprint> plan_lru_;  ///< front = most recently used
  std::size_t gets_since_aging_ = 0;
  /// structure_id -> fingerprint; cleared whenever it reaches the plan
  /// tier's bound.
  std::unordered_map<std::uint64_t, Fingerprint> fingerprints_;
  Stats stats_;
};

extern template class PlanCache<float>;
extern template class PlanCache<double>;

}  // namespace spmv::serve
