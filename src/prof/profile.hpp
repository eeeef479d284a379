// RunProfile — the aggregated execution profile of one auto-tuned SpMV:
// plan-stage timings (feature extraction / prediction / binning), per-bin
// kernel wall time with bin workload, engine launch counters, and the cost
// of any tuning that produced the plan. Exportable as JSON so benches and
// tools emit regression-comparable artifacts (`spmv_tool run --profile`).
//
// Recording is opt-in per call site: APIs take a `RunProfile*` and treat
// nullptr as "off", so the hot path pays a pointer test. Engine-level
// counters are additionally gated by the runtime flag in counters.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "prof/counters.hpp"
#include "prof/histogram.hpp"
#include "prof/json.hpp"

namespace spmv::prof {

/// Scoped accumulating stopwatch: adds the elapsed seconds to `*acc` on
/// destruction; a null accumulator makes it a no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* acc) : acc_(acc) {
    if (acc_ != nullptr) start_ = Clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Stop early (idempotent); subsequent destruction adds nothing.
  void stop() {
    if (acc_ == nullptr) return;
    *acc_ += std::chrono::duration<double>(Clock::now() - start_).count();
    acc_ = nullptr;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* acc_;
  Clock::time_point start_;
};

/// Where plan construction time went (AutoSpmv's three stages).
struct PlanTiming {
  double features_s = 0.0;  ///< compute_row_stats
  double predict_s = 0.0;   ///< stage-1 + stage-2 prediction
  double binning_s = 0.0;   ///< Algorithm-2 binning
  [[nodiscard]] double total_s() const {
    return features_s + predict_s + binning_s;
  }
};

/// Accumulated execution record of one occupied bin.
struct BinRunSample {
  int bin_id = 0;
  std::string kernel;               ///< registry display name
  std::int64_t virtual_rows = 0;    ///< entries in the bin
  std::int64_t rows = 0;            ///< matrix rows the bin covers
  std::int64_t nnz = 0;             ///< non-zeros the bin covers
  double seconds = 0.0;             ///< summed kernel wall time
  std::uint64_t launches = 0;       ///< times this bin's kernel ran
};

/// Cost of measuring one tuning candidate (exhaustive tuner / trainer).
struct CandidateCost {
  std::string label;         ///< e.g. "U=100", "single-bin", "matrix 3/120"
  double measure_s = 0.0;    ///< wall time spent measuring the candidate
  std::int64_t measurements = 0;  ///< timed repetitions / samples harvested
  double best_s = 0.0;       ///< best measured execution time (0 if n/a)
};

/// Online-adaptation statistics (spmv::adapt): shadow-measurement trials,
/// plan promotions, and the accumulated cost of losing trials. Empty by
/// default and omitted from the JSON artifact unless a BanditTuner ran.
struct AdaptStats {
  std::uint64_t trials = 0;      ///< shadow measurements performed
  std::uint64_t promotions = 0;  ///< plan revisions promoted into the cache
  /// Shadow-measurement wall time lost to challengers slower than the
  /// incumbent (the exploration cost of the bandit, in seconds).
  double regret_s = 0.0;
  /// Second-level exploration of the binning unit U: whole-plan shadow
  /// trials at a neighboring granularity, and the promotions that rebuilt
  /// the plan at a different U (counted inside `trials`/`promotions` too).
  std::uint64_t u_trials = 0;
  std::uint64_t u_promotions = 0;
  /// Latency-feedback arm path (spmv::iter): kernel arms fed from measured
  /// per-iteration serve latencies instead of dedicated shadow launches.
  /// l_trials counts challenger iterations observed this way — NOT counted
  /// inside `trials`, which remains "shadow measurements performed", so a
  /// pure latency-feedback session reports trials == 0. l_promotions (the
  /// promotions those observations produced) IS counted inside
  /// `promotions` like every other level's.
  std::uint64_t l_trials = 0;
  std::uint64_t l_promotions = 0;

  void merge(const AdaptStats& other) {
    trials += other.trials;
    promotions += other.promotions;
    regret_s += other.regret_s;
    u_trials += other.u_trials;
    u_promotions += other.u_promotions;
    l_trials += other.l_trials;
    l_promotions += other.l_promotions;
  }

  [[nodiscard]] bool empty() const {
    return trials == 0 && promotions == 0 && l_trials == 0;
  }
};

/// Per-tenant serving statistics (spmv::shard fair admission): accounting
/// per admission identity, so a flooding tenant's rejections and a light
/// tenant's p99 are separable in every artifact.
struct TenantStats {
  std::string name;
  double weight = 1.0;
  std::uint64_t requests = 0;    ///< submissions accepted into the queue
  std::uint64_t rejected = 0;    ///< submissions bounced (global or quota)
  std::uint64_t dispatched = 0;  ///< requests handed to the shard pool
  /// End-to-end submit→complete latency for this tenant's requests.
  LatencyHistogram latency;
};

/// Per-shard serving statistics (spmv::shard): one row partition's load
/// and tuning provenance.
struct ShardStats {
  int shard = 0;
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t nnz = 0;
  std::string plan;  ///< current Plan::to_string() (carries provenance)
  std::uint64_t executions = 0;  ///< per-shard kernel dispatches
  double exec_total_s = 0.0;
  std::uint64_t promotions = 0;  ///< bandit promotions applied to the shard
};

/// Serving-layer statistics (spmv::serve): request/batch accounting, queue
/// wait, and plan-cache effectiveness. A default-constructed ServeStats is
/// "empty" and is omitted from the JSON artifact.
struct ServeStats {
  std::uint64_t requests = 0;       ///< submissions accepted into the queue
  std::uint64_t rejected = 0;       ///< submissions bounced by backpressure
  std::uint64_t batches = 0;        ///< executions dispatched (width >= 1)
  double queue_wait_total_s = 0.0;  ///< summed submit->dispatch wait
  double queue_wait_max_s = 0.0;    ///< worst single-request wait
  double exec_total_s = 0.0;        ///< summed execution wall time
  /// The part of exec_total_s spent building layouts lazily on the first
  /// amortized runs (the runtime's fmt::LayoutStats::build_s delta across
  /// each batch), so execution splits into kernel and build time. A build
  /// a concurrent batch of the same entry ran counts in both batches.
  double layout_build_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Misses rebuilt from a plan the cache kept after evicting its runtime
  /// (no store lookup, no predictor pass).
  std::uint64_t cache_plan_hits = 0;
  /// Misses satisfied from a warm PlanStore (no predictor pass needed).
  std::uint64_t cache_warm_hits = 0;
  /// Misses the cache's frequency gate kept out of a full runtime tier:
  /// served an uncached runtime, nothing evicted.
  std::uint64_t cache_not_admitted = 0;
  /// Misses that ran a full predictor-driven planning pass.
  std::uint64_t planning_passes = 0;
  /// Adapt promotions applied to cached entries.
  std::uint64_t cache_promotions = 0;
  /// Subset of cache_promotions that swapped in a structurally different
  /// plan (a U-exploration win: the entry was re-binned, not just given a
  /// new per-bin kernel).
  std::uint64_t cache_rebin_promotions = 0;
  /// batch_width_hist[w-1] = number of batches executed at width w.
  std::vector<std::uint64_t> batch_width_hist;
  /// Latency distributions (p50/p95/p99 via LatencyHistogram::percentile):
  /// end-to-end submit→complete per request, submit→dispatch wait per
  /// request, and execution wall time per batch.
  LatencyHistogram request_latency;
  LatencyHistogram queue_wait;
  LatencyHistogram batch_exec;
  /// Per-tenant blocks (spmv::shard fair admission); empty unless a
  /// sharded service ran. merge() matches tenants by name.
  std::vector<TenantStats> tenants;
  /// Per-shard blocks (spmv::shard); empty unless a sharded service ran.
  /// merge() matches shards by index.
  std::vector<ShardStats> shards;

  /// Count one dispatched batch of `width` requests.
  void add_batch(int width) {
    batches += 1;
    if (width < 1) return;
    if (batch_width_hist.size() < static_cast<std::size_t>(width))
      batch_width_hist.resize(static_cast<std::size_t>(width), 0);
    batch_width_hist[static_cast<std::size_t>(width) - 1] += 1;
  }

  /// Fold another service's (or worker's) stats in: counters add, the max
  /// takes the larger value, and the width/latency histograms sum — the
  /// principled combine for stats gathered independently.
  void merge(const ServeStats& other);

  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }

  [[nodiscard]] bool empty() const {
    return requests == 0 && rejected == 0 && batches == 0 &&
           cache_hits == 0 && cache_misses == 0;
  }
};

/// Tracing-layer accounting for the run (spmv::trace): how many spans were
/// recorded and — critically — how many were lost to ring wrap-around, so
/// a trace with holes is never mistaken for a complete one. Empty by
/// default and omitted from the JSON artifact unless tracing ran.
struct TraceStats {
  std::uint64_t events = 0;         ///< spans surviving in the rings
  std::uint64_t dropped_spans = 0;  ///< spans overwritten by wrap-around
  std::int64_t threads = 0;         ///< distinct recording threads

  [[nodiscard]] bool empty() const {
    return events == 0 && dropped_spans == 0 && threads == 0;
  }
};

/// The aggregate profile. One RunProfile typically describes one matrix +
/// plan; run() calls accumulate into it, so repeated executions average
/// naturally (divide by `runs`).
struct RunProfile {
  std::string label;  ///< free-form: matrix name, bench name, ...
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
  std::string plan;  ///< Plan::to_string() of the executed plan

  PlanTiming plan_timing;
  std::vector<BinRunSample> bins;  ///< ascending bin_id, merged across runs
  std::uint64_t runs = 0;          ///< run() calls recorded
  double run_total_s = 0.0;        ///< summed wall time of those calls
  EngineCountersSnapshot engine;   ///< accumulated launch-counter deltas
  /// Dense right-hand-side columns this profile's batched/SpMM executions
  /// pushed through a per-column single-vector fallback (delta of
  /// prof::spmm_fallback_columns, so it needs counters enabled). 0 when
  /// every multi-vector run took a blocked path.
  std::uint64_t spmm_fallback_columns = 0;
  std::vector<CandidateCost> tuning;
  double tuning_total_s = 0.0;
  ServeStats serve;  ///< serving-layer stats; empty unless a service ran
  AdaptStats adapt;  ///< online-tuning stats; empty unless a tuner ran
  /// The prof::threads_active_max gauge at the last service shutdown that
  /// folded into this profile ("threads": {"active_max"} in JSON; omitted
  /// while 0).
  std::int64_t threads_active_max = 0;
  /// Tracing accounting ("trace" in JSON); empty unless tracing ran. Named
  /// trace_stats, not trace, so files using both layers can keep the
  /// spmv::trace namespace unqualified.
  TraceStats trace_stats;

  /// Merge one bin execution: accumulates seconds/launches into the
  /// matching (bin_id, kernel) sample or appends a new one.
  void add_bin_run(int bin_id, const std::string& kernel,
                   std::int64_t virtual_rows, std::int64_t rows_covered,
                   std::int64_t nnz_covered, double seconds);

  /// Append one tuning-candidate cost entry.
  void add_candidate(const std::string& label, double measure_s,
                     std::int64_t measurements, double best_s);

  /// Fold an engine-counter delta into the profile (sums flows, maxes the
  /// arena high-water level).
  void merge_engine_delta(const EngineCountersSnapshot& delta);

  [[nodiscard]] Json to_json() const;
  static RunProfile from_json(const Json& j);

  /// Pretty-printed JSON document text.
  [[nodiscard]] std::string to_json_text(int indent = 2) const;
};

/// Write `profile` as pretty-printed JSON; throws std::runtime_error when
/// the file cannot be written.
void write_profile_file(const std::string& path, const RunProfile& profile);

/// Prometheus text exposition (text/plain; version 0.0.4) of the profile:
/// run/engine counters plus — when the respective layers recorded — serve
/// counters, latency summaries with p50/p95/p99 quantiles, full latency
/// histograms (`*_hist_seconds` with cumulative `le` buckets) whose
/// non-empty buckets carry OpenMetrics-style `# {...}` exemplars, adapt
/// counters, and trace span/drop accounting.
[[nodiscard]] std::string prometheus_text(const RunProfile& profile);

/// Escape a Prometheus label value: backslash, double-quote, and newline
/// become \\, \", and \n per the text-exposition grammar.
[[nodiscard]] std::string prometheus_escape_label(const std::string& value);

}  // namespace spmv::prof
