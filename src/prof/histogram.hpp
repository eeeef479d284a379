// Log-bucketed latency histogram with percentile extraction. Buckets grow
// geometrically (three per octave, ~26% resolution) from 100 ns, covering
// past four minutes in 96 buckets — the full range a serving request can
// plausibly occupy. Fixed-size storage makes add() allocation-free and
// merge() a vector add, so histograms can live inside stats structs that
// are copied under locks (prof::ServeStats).
#pragma once

#include <array>
#include <cstdint>

#include "prof/json.hpp"

namespace spmv::prof {

/// One bucket's exemplar: the most recent sample that landed in the
/// bucket, carrying the request's trace id and the provenance of the plan
/// that served it — enough to resolve a p99 bucket directly to a
/// replayable trace span (obs::StreamingSink segment files) and to the arm
/// state that produced the plan. Kept POD (no strings) so histograms stay
/// cheap to copy under stats locks.
struct Exemplar {
  std::uint64_t trace_id = 0;     ///< 0 = the request was not traced
  double value_s = 0.0;           ///< the exemplar sample itself
  std::uint64_t seq = 0;          ///< process-wide recency order (0 = empty)
  std::uint64_t fingerprint = 0;  ///< request matrix row_hash
  std::uint64_t plan_revision = 0;
  std::uint8_t backend = 0;       ///< exec::BackendKind of the plan
  bool formats = false;           ///< plan carried non-CSR bin layouts
  /// Arm level of the latest adapt promotion applied before this sample:
  /// 0 none, 1 kernel, 2 unit (U).
  std::uint8_t promo_level = 0;
  /// Shard partition that produced the sample (spmv::shard); -1 = the
  /// sample did not come from a sharded service.
  std::int16_t shard = -1;

  [[nodiscard]] bool valid() const { return seq != 0; }
};

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 96;
  static constexpr double kMinSeconds = 1e-7;       ///< bucket 0 upper bound
  static constexpr double kBucketsPerOctave = 3.0;  ///< growth 2^(1/3)

  /// Record one sample (negative values clamp to 0).
  void add(double seconds);

  /// Record one sample plus its exemplar. The bucket retains the most
  /// recent exemplar, except that a traced exemplar (trace_id != 0) is
  /// never displaced by an untraced one — under request sampling the
  /// bucket keeps a resolvable trace id as long as any sample carried one.
  /// `exemplar.value_s` and `.seq` are stamped here.
  void add(double seconds, Exemplar exemplar);

  /// Fold another histogram in: counts add, min/max widen, and each bucket
  /// keeps the winning exemplar (traced beats untraced, then recency).
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double total_s() const { return total_s_; }
  [[nodiscard]] double min_s() const { return count_ == 0 ? 0.0 : min_s_; }
  [[nodiscard]] double max_s() const { return max_s_; }
  [[nodiscard]] double mean_s() const {
    return count_ == 0 ? 0.0 : total_s_ / static_cast<double>(count_);
  }

  /// The p-th percentile (p in [0, 100]): the geometric midpoint of the
  /// bucket holding the rank-⌈p/100·count⌉ sample, clamped to the observed
  /// [min, max]. 0 when empty. Accurate to one bucket (~26%).
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Bucket index a sample lands in (exposed for tests).
  static int bucket_index(double seconds);
  /// [lower, upper) bounds of bucket `i` in seconds.
  static double bucket_lower_bound(int i);
  static double bucket_upper_bound(int i);

  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  /// The exemplar retained for bucket `i` (check .valid()).
  [[nodiscard]] const Exemplar& exemplar(int i) const {
    return exemplars_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] bool has_exemplars() const;

  /// JSON: {count, total_s, min_s, max_s, p50_s, p95_s, p99_s,
  /// buckets: [[index, count], ...],
  /// exemplars: [[index, {trace_id, value_s, ...}], ...] (when any)} —
  /// percentiles are written for human readers and recomputed from the
  /// buckets on load.
  [[nodiscard]] Json to_json() const;
  static LatencyHistogram from_json(const Json& j);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::array<Exemplar, kBuckets> exemplars_{};
  std::uint64_t count_ = 0;
  double total_s_ = 0.0;
  double min_s_ = 0.0;
  double max_s_ = 0.0;
};

}  // namespace spmv::prof
