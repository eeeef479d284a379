// spmv::obs — streaming observability: a bounded, lock-light MPSC ring of
// completed trace spans and stat deltas, drained by a dedicated flusher
// thread into rotating JSONL segment files. Replaces the end-of-run-only
// trace export for long-lived serving processes: telemetry leaves the
// process continuously, memory stays within a fixed bound, and loss is
// explicit (drop counters), never silent.
//
//   obs::SinkOptions sopts;
//   sopts.directory = "obs/";
//   obs::StreamingSink sink(sopts);
//   sink.attach();                      // stream trace spans as they close
//   ... serve traffic with trace::start() active ...
//   sink.detach();
//   sink.close();                       // drain + rotate the final segment
//
// Producers (any thread: trace emit paths via attach(), or direct push()
// callers) write into a fixed-capacity Vyukov-style bounded ring — one CAS
// plus one release store per record, no mutex on the hot path. When the
// ring is full (producers outran the flusher) the record is DROPPED and
// counted in SinkStats::dropped: the sink never blocks a serving thread
// and never grows beyond ring_capacity records.
//
// The flusher thread wakes every flush_interval_ms, drains the ring, and
// appends one JSON object per record to the active segment file
// ("<dir>/active.jsonl.part"). When the active segment exceeds
// segment_max_bytes it is closed and atomically renamed to
// "segment-NNNNNN.jsonl" (crash-safe: a reader sees either the complete
// segment or nothing but the in-progress .part file), and segments beyond
// max_segments are deleted oldest-first — disk usage is bounded too.
//
// Record shape (JSONL) is chosen so an OTLP mapping is mechanical:
//   {"type":"span","name":...,"cat":...,"trace_id":N,"tid":N,
//    "ts_ns":N,"dur_ns":N,"attrs":{...}}     -> otlp Span{name,
//       trace_id, start_time_unix_nano = epoch+ts_ns, end = start+dur_ns,
//       attributes}
//   {"type":"stat","name":...,"ts_ns":N,"value":X}
//       -> otlp Metric (sum data point)
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace spmv::obs {

/// One sink record: a completed trace span or a named stat delta. Name /
/// category / attr-key pointers follow the trace-layer contract (string
/// literals, or otherwise outliving the sink) — records are serialized by
/// the flusher, after the producer has moved on.
struct Record {
  enum class Kind : std::uint8_t { Span, Stat };
  Kind kind = Kind::Span;
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t ts_ns = 0;   ///< trace-clock (nanoseconds since start())
  std::uint64_t dur_ns = 0;  ///< spans only
  double value = 0.0;        ///< stat deltas only
  const char* arg_keys[2] = {nullptr, nullptr};
  std::int64_t arg_vals[2] = {0, 0};
};

struct SinkOptions {
  /// Segment directory (created if missing). Required.
  std::string directory;
  /// Ring capacity in records (rounded up to a power of two), PER producer
  /// group. Each group's ring is an independent memory bound: producers
  /// beyond it drop, never queue.
  std::size_t ring_capacity = 4096;
  /// Number of producer-group rings. One ring (the default) is the original
  /// global MPSC. A sharded service sets this to its partition count + 1 and
  /// routes each shard's worker threads to their own ring via
  /// set_producer_group(), so shard partitions stop contending on one CAS
  /// head at high span rates; the single flusher drains all rings. Drops
  /// are accounted per ring (SinkStats::dropped_by_ring).
  std::size_t producer_groups = 1;
  /// Active segment rotates once it exceeds this many bytes.
  std::size_t segment_max_bytes = 4u << 20;
  /// Completed segments beyond this are deleted oldest-first.
  std::size_t max_segments = 8;
  /// Flusher wake period.
  int flush_interval_ms = 20;
  /// Start with the flusher paused (tests: deterministic drop injection).
  bool start_paused = false;
};

struct SinkStats {
  std::uint64_t pushed = 0;    ///< records accepted into any ring
  /// Records lost: rejected (ring full / closed), or written to a segment
  /// that could not be written, synced or renamed. Only ring rejections
  /// count in dropped_by_ring.
  std::uint64_t dropped = 0;
  std::uint64_t flushed = 0;   ///< records in written segment files
  std::uint64_t rotations = 0; ///< completed-segment renames
  std::uint64_t bytes_written = 0;
  /// Per-producer-group drop accounting (size == producer_groups): which
  /// partition outran the flusher, not just that someone did.
  std::vector<std::uint64_t> dropped_by_ring;
};

class StreamingSink {
 public:
  /// Creates the directory and starts the flusher thread. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit StreamingSink(SinkOptions opts);

  /// close()s if the owner has not already.
  ~StreamingSink();

  StreamingSink(const StreamingSink&) = delete;
  StreamingSink& operator=(const StreamingSink&) = delete;

  /// Register as the process-wide trace observer: every completed span
  /// recorded while tracing is enabled is pushed to this sink. Only one
  /// sink can be attached at a time (last attach wins).
  void attach();

  /// Deregister. Call before destruction, and only when no thread can be
  /// mid-emit with this sink's registration (in practice: after
  /// trace::stop() and after joining/quiescing producer threads).
  void detach();

  /// MPSC producer: O(1), lock-free, never blocks. Routes to the calling
  /// thread's producer-group ring (set_producer_group; group 0 when unset).
  /// Returns false when the record was dropped (ring full or sink closed) —
  /// the loss is counted in stats().dropped (and per ring) either way.
  bool push(const Record& r);

  /// Convenience producer for a stat delta (timestamped now).
  bool push_stat(const char* name, double value);

  /// A stat delta tagged with its shard partition (an extra "shard" attr in
  /// the JSONL record).
  bool push_stat(const char* name, double value, std::int64_t shard);

  /// Route this THREAD's pushes to producer-group ring `group` (modulo the
  /// sink's producer_groups). Process-wide thread-local: a shard worker
  /// calls it once at thread start; threads that never call it use ring 0.
  static void set_producer_group(std::size_t group);

  /// Suspend / resume the flusher (tests; quiescing around a fork). While
  /// paused, producers keep pushing until the ring fills, then drop — the
  /// deliberately-slow-flusher regime of the acceptance test.
  void pause();
  void resume();

  /// Drain the ring on the calling thread (serialized against the
  /// flusher). Useful in tests and before reading segment files.
  void flush_now();

  /// Stop accepting records, stop the flusher, drain whatever is buffered,
  /// and rotate the active segment into a final numbered one. Idempotent.
  void close();

  [[nodiscard]] SinkStats stats() const;

  /// Completed (rotated) segment paths, oldest first. After close() this
  /// is the complete on-disk record stream.
  [[nodiscard]] std::vector<std::string> segment_files() const;

  /// The in-progress segment path ("<dir>/active.jsonl.part").
  [[nodiscard]] std::string active_path() const;

 private:
  struct Slot {
    std::atomic<std::size_t> seq;
    Record rec;
  };

  /// One producer group's Vyukov ring. Atomics make it immovable, so rings
  /// live behind unique_ptr in a fixed-size vector built at construction.
  struct Ring {
    std::vector<Slot> slots;
    std::atomic<std::size_t> head{0};  ///< producers claim slots here
    std::size_t tail = 0;              ///< consumer cursor (io_mutex_)
    std::atomic<std::uint64_t> dropped{0};
  };

  static void on_trace_event(void* ctx, const trace::TraceEvent& ev);

  void flusher_main();
  /// Drain + write all rings; caller must hold io_mutex_.
  void drain_locked();
  /// Close the active stream and rename it to a numbered segment; caller
  /// must hold io_mutex_.
  void rotate_locked();
  void ensure_stream_locked();
  /// Discard the active segment after a write, sync or rename failure and
  /// count its records as dropped; caller must hold io_mutex_.
  void lose_segment_locked(const std::string& why);

  SinkOptions opts_;
  std::size_t mask_ = 0;  ///< per-ring capacity (power of two) - 1

  std::vector<std::unique_ptr<Ring>> rings_;  ///< one per producer group

  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};  ///< total across rings

  mutable std::mutex io_mutex_;  ///< consumer side: drain, rotate, stats
  std::ofstream stream_;
  std::size_t segment_bytes_ = 0;
  std::uint64_t segment_records_ = 0;  ///< records in the active segment
  std::uint64_t next_segment_ = 1;
  std::uint64_t flushed_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::vector<std::string> segments_;  ///< completed, oldest first

  std::mutex ctl_mutex_;  ///< flusher control (pause/stop/kick)
  std::condition_variable ctl_cv_;
  bool paused_ = false;
  bool stop_ = false;
  bool closed_ = false;
  std::thread flusher_;
};

}  // namespace spmv::obs
