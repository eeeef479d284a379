// Perf trajectory — the repo's one regression gate. A Trajectory
// accumulates per-run benchmark snapshots (BENCH_*.json documents) into a
// history file, renders a sparkline dashboard of every tracked
// metric, and gates the newest entry of EVERY stream (one stream per bench
// document kind) against the rolling mean of that stream's previous W
// entries. W = 1 is a pairwise "slower than the last run?" gate; a wider
// window catches slow drift that never trips a pairwise threshold, and one
// noisy baseline run cannot whipsaw CI.
//
//   Trajectory t = Trajectory::load_file("PERF_TRAJECTORY.json");
//   t.append(Json::parse(bench_text), "pr-123");
//   TrajectoryCheck c = t.check(/*window=*/5, /*threshold=*/1.25);
//   if (c.regressed()) ...;
//   t.save_file("PERF_TRAJECTORY.json");
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "prof/json.hpp"

namespace spmv::prof {

/// One appended benchmark snapshot: the numeric leaves of the source JSON
/// document, flattened depth-first with dot-joined keys
/// ("request_latency.p95_s"), in source order.
struct TrajectoryEntry {
  std::uint64_t seq = 0;  ///< 1-based append order (stable across prunes)
  std::string label;      ///< e.g. commit SHA or CI run id
  /// Which bench produced this entry, derived from the source JSON's
  /// "bench" (+ "/mode") string fields — e.g. "serve_throughput" or
  /// "serve_throughput/sharded". One history file can interleave several
  /// streams; check() gates each stream's head only against its own
  /// stream, so a sharded snapshot never reads as schema drift against an
  /// unsharded one. Legacy entries (no "bench" field) share the "" stream.
  std::string stream;
  std::vector<std::pair<std::string, double>> metrics;

  /// The metric's value, or nullptr when this entry lacks it.
  [[nodiscard]] const double* find(const std::string& name) const;
};

/// One metric's verdict from Trajectory::check().
struct TrajectoryMetric {
  std::string stream;    ///< which stream's head this verdict is for
  std::string name;
  double head = 0.0;     ///< the stream's newest value
  double window = 0.0;   ///< mean over the stream's previous W entries
  double ratio = 1.0;    ///< head/window (direction-normalized: >1 = worse)
  /// The threshold this metric was actually gated against: the fixed one,
  /// or — under a learned check — the variance-derived per-metric bound.
  double threshold = 0.0;
  bool higher_is_better = false;
  bool gated = false;    ///< Trajectory::gated(name): can this metric fail?
  bool regressed = false;
};

struct TrajectoryCheck {
  std::vector<TrajectoryMetric> metrics;
  /// (stream, metric) pairs a stream's previous entry carried but its head
  /// lost (schema drift).
  std::vector<std::pair<std::string, std::string>> missing;

  [[nodiscard]] bool regressed() const {
    for (const TrajectoryMetric& m : metrics) {
      if (m.regressed) return true;
    }
    return false;
  }
};

class Trajectory {
 public:
  /// Load a trajectory file; a missing file is an empty trajectory (the
  /// first CI run bootstraps it). Throws std::runtime_error on a present
  /// but unparseable file — history corruption must not pass silently.
  static Trajectory load_file(const std::string& path);

  /// Parse from JSON text / serialize back ({"version":1,"entries":[...]}).
  static Trajectory from_json(const Json& j);
  [[nodiscard]] Json to_json() const;

  /// Write atomically (temp file + rename) so an interrupted CI run never
  /// leaves a torn history behind.
  void save_file(const std::string& path) const;

  /// Flatten `bench`'s numeric leaves and append them as one entry tagged
  /// `label`. Entries beyond `max_entries` are pruned oldest-first (seq
  /// numbers keep counting). Non-numeric leaves are skipped.
  void append(const Json& bench, const std::string& label,
              std::size_t max_entries = 200);

  /// Gate the newest entry of every stream against the rolling mean of the
  /// `window` same-stream entries before it (entries appended from a
  /// different bench document are invisible to that head — both for the
  /// means and for the schema-drift scan). A metric regresses when its
  /// direction-normalized head/window ratio exceeds `threshold`
  /// (throughput-like metrics invert: lower is worse). With no prior
  /// same-stream entry, or an empty window for a metric, nothing
  /// regresses — a young trajectory (or stream) only observes.
  /// Only gated() metrics can regress; the rest are reported alongside.
  /// Throws std::invalid_argument when window < 1 or threshold <= 0.
  ///
  /// With `learned` set, each metric's threshold is derived from its own
  /// window noise instead of applied uniformly: the gate becomes
  /// max(threshold, (μ + 3σ) / μ) over the window values — a metric whose
  /// history is noisy earns headroom proportional to that noise, while a
  /// historically flat metric tightens to the floor. `threshold` then acts
  /// as the floor, so the learned gate is never laxer than 3σ nor stricter
  /// than the fixed gate it replaces.
  [[nodiscard]] TrajectoryCheck check(std::size_t window, double threshold,
                                      bool learned = false) const;

  /// Markdown dashboard: one table row per metric with a unicode sparkline
  /// over the last `window` entries (newest right), head value, rolling
  /// mean, and verdict.
  [[nodiscard]] std::string render_markdown(std::size_t window = 20) const;

  [[nodiscard]] const std::vector<TrajectoryEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Is this metric one where larger values mean better (throughput,
  /// speedup, hit rate, recovery) rather than worse (latency, seconds)?
  static bool higher_is_better(const std::string& name);

  /// Is this metric a performance signal the check gates — throughput-like
  /// (higher_is_better) or a time (a "_s", "_ms" or "_us" suffix)? Counters
  /// and sizes ("batches", "l_promotions", "nnz") and "config.*" (the bench
  /// setup) are not: they are reported but never regress.
  static bool gated(const std::string& name);

 private:
  std::vector<TrajectoryEntry> entries_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace spmv::prof
