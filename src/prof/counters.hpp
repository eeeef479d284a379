// Execution telemetry: the runtime enable flag and the thread-safe launch
// counters the clsim engine records into (paper Figures 5-9 are all
// instrumentation; this layer makes the runtime observable the same way).
//
// Counting is gated by a process-wide runtime flag so the disabled path
// costs one relaxed atomic load per launch — cheap enough to leave the
// hooks compiled into release builds.
#pragma once

#include <atomic>
#include <cstdint>

namespace spmv::prof {

/// Is telemetry recording on? Relaxed read of a process-wide flag.
bool enabled();

/// Turn telemetry recording on or off process-wide.
void set_enabled(bool on);

/// RAII toggle for tools and tests: enables on construction, restores the
/// previous state on destruction.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : prev_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// Process-wide count of dense right-hand-side columns that were executed
/// through a per-column single-vector fallback instead of a true blocked
/// multi-vector traversal — the `spmm.fallback_columns` telemetry. One code
/// path feeds it: ClsimBackend's SpMM when a kernel shape (Vector) has no
/// batched variant or its simulated local-memory arena cannot fit even two
/// columns. Profiled runs surface the columns that missed the blocked path
/// (RunProfile spmm_fallback_columns). Mutation is gated by enabled() like
/// every other counter; reads are always live.
std::uint64_t spmm_fallback_columns();

/// Add `n` fallback columns (no-op unless enabled()).
void add_spmm_fallback_columns(std::uint64_t n);

/// Reset the process-wide fallback-column count (tests).
void reset_spmm_fallback_columns();

/// The `threads.active_max` gauge: the most threads ever held by native
/// kernel execution at once, process-wide — the team each native parallel
/// region asks for (its caller's budget) for as long as the region runs,
/// or the one caller running a work list inline. With every worker holding its share of one
/// thread budget (util/threads.hpp) it stays at or below the summed shares;
/// above it means oversubscribed cores. Always recorded (not gated by
/// enabled()): the in-flight count must see every exit that matches an
/// entry.
std::int64_t threads_active_max();

/// Restart the gauge from the threads held right now (tests).
void reset_threads_active_max();

/// Counts `threads` threads into the gauge for its lifetime.
class ActiveThreadScope {
 public:
  explicit ActiveThreadScope(std::int64_t threads);
  ~ActiveThreadScope();
  ActiveThreadScope(const ActiveThreadScope&) = delete;
  ActiveThreadScope& operator=(const ActiveThreadScope&) = delete;

 private:
  std::int64_t threads_;
};

/// Point-in-time copy of an engine's counters. Cumulative fields subtract
/// to form deltas; the arena high-water mark is a level, not a flow, so a
/// delta carries the later value unchanged.
struct EngineCountersSnapshot {
  std::uint64_t launches = 0;          ///< launch() calls that did work
  std::uint64_t inline_launches = 0;   ///< subset run on the caller thread
  std::uint64_t groups = 0;            ///< work-groups executed
  std::uint64_t chunks = 0;            ///< chunk dispatches through the pool
  std::uint64_t arena_high_water_bytes = 0;  ///< max local-memory bytes used

  /// Counters accumulated between `before` and this snapshot.
  [[nodiscard]] EngineCountersSnapshot delta_since(
      const EngineCountersSnapshot& before) const {
    return {launches - before.launches,
            inline_launches - before.inline_launches, groups - before.groups,
            chunks - before.chunks, arena_high_water_bytes};
  }
};

/// Thread-safe launch counters, one set per Engine. All mutation is
/// relaxed-atomic: the counters are statistics, not synchronization.
class EngineCounters {
 public:
  EngineCounters() = default;
  /// Copying an Engine copies a snapshot of its counters.
  EngineCounters(const EngineCounters& other) { *this = other; }
  EngineCounters& operator=(const EngineCounters& other) {
    if (this != &other) load_from(other.snapshot());
    return *this;
  }

  /// Record one launch of `groups` work-groups dispatched as `chunks`
  /// pool chunks (0 for the inline fast path).
  void record_launch(std::uint64_t groups, std::uint64_t chunks,
                     bool inline_path) {
    launches_.fetch_add(1, std::memory_order_relaxed);
    if (inline_path) inline_launches_.fetch_add(1, std::memory_order_relaxed);
    groups_.fetch_add(groups, std::memory_order_relaxed);
    chunks_.fetch_add(chunks, std::memory_order_relaxed);
  }

  /// Record the local-memory bytes one work-group ended with (atomic max).
  void record_arena_used(std::uint64_t bytes) {
    std::uint64_t seen = arena_high_water_.load(std::memory_order_relaxed);
    while (bytes > seen && !arena_high_water_.compare_exchange_weak(
                               seen, bytes, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] EngineCountersSnapshot snapshot() const {
    return {launches_.load(std::memory_order_relaxed),
            inline_launches_.load(std::memory_order_relaxed),
            groups_.load(std::memory_order_relaxed),
            chunks_.load(std::memory_order_relaxed),
            arena_high_water_.load(std::memory_order_relaxed)};
  }

  void reset() { load_from({}); }

 private:
  void load_from(const EngineCountersSnapshot& s) {
    launches_.store(s.launches, std::memory_order_relaxed);
    inline_launches_.store(s.inline_launches, std::memory_order_relaxed);
    groups_.store(s.groups, std::memory_order_relaxed);
    chunks_.store(s.chunks, std::memory_order_relaxed);
    arena_high_water_.store(s.arena_high_water_bytes,
                            std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> inline_launches_{0};
  std::atomic<std::uint64_t> groups_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> arena_high_water_{0};
};

}  // namespace spmv::prof
