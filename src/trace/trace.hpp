// spmv::trace — request-scoped tracing: an always-compiled, opt-in span
// recorder whose output loads directly into chrome://tracing / Perfetto.
//
// Each thread records into its own fixed-capacity ring buffer (oldest
// events overwritten once full), so recording never blocks another thread
// and never allocates on the hot path after the first event. The disabled
// path costs one relaxed atomic load per span — cheap enough that the
// instrumentation stays compiled into release builds (same contract as
// prof::enabled()).
//
//   spmv::trace::start();                       // clear + enable
//   { spmv::trace::TraceSpan s("binning", "plan"); ... }
//   spmv::trace::stop();
//   spmv::trace::write_chrome_trace_file("out.trace.json");
//
// Request correlation: spans capture the calling thread's current request
// id (ScopedRequestId), so all work done on behalf of one serving request
// — across the submitting client, the service worker, and the thread-pool
// workers it fans out to — carries the same id in the trace. The request
// lifetime itself is an async begin/end pair keyed by that id.
//
// Constraint: `name`, `category`, and arg keys must be string literals (or
// otherwise outlive the trace) — events store the pointers, not copies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spmv::trace {

/// Default per-thread ring capacity (events). One event is 80 bytes, so
/// the default buffers ~1.3 MiB per recording thread.
inline constexpr std::size_t kDefaultBufferCapacity = 16384;

/// Recording configuration for start(). `sample_every_n` applies to
/// *request* sampling (serve layer): sample_request() approves one request
/// in every N, so a service under heavy load keeps its rings representative
/// instead of wrapping within milliseconds. 1 (default) samples everything;
/// spans outside request sampling (manual TraceSpan use) are unaffected.
struct TraceConfig {
  std::size_t per_thread_capacity = kDefaultBufferCapacity;
  std::uint64_t sample_every_n = 1;
};

/// Is tracing on? One relaxed atomic load — the whole disabled-path cost.
bool enabled();

/// Clear any previous events, set the per-thread ring capacity, and enable
/// recording. The trace clock starts at zero here.
void start(std::size_t per_thread_capacity = kDefaultBufferCapacity);

/// start() with full configuration (capacity + request sampling).
void start(const TraceConfig& config);

/// Should the next serving request be traced? False when tracing is off
/// (one relaxed load, nothing else); with sampling configured, admits one
/// request in every `sample_every_n` via a relaxed counter — a sampled-out
/// request costs exactly one relaxed fetch_add.
bool sample_request();

/// Stop recording. Events are retained for snapshot()/write.
void stop();

/// Drop all recorded events (buffers stay registered to their threads).
void clear();

/// Allocate a fresh nonzero request id (process-wide, monotonic).
std::uint64_t next_request_id();

/// The calling thread's current request id (0 = none).
std::uint64_t current_request_id();

/// Tag the calling thread with a request id for the scope's duration;
/// spans started inside record it. Restores the previous id on exit.
class ScopedRequestId {
 public:
  explicit ScopedRequestId(std::uint64_t id);
  ~ScopedRequestId();
  ScopedRequestId(const ScopedRequestId&) = delete;
  ScopedRequestId& operator=(const ScopedRequestId&) = delete;

 private:
  std::uint64_t prev_;
};

/// One recorded event. Phases mirror the Chrome trace-event format: 'X'
/// complete span, 'b'/'e' async begin/end, 'n' async instant, 'i' thread
/// instant.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'X';
  std::uint32_t tid = 0;      ///< recorder-assigned thread number
  std::uint64_t ts_ns = 0;    ///< nanoseconds since start()
  std::uint64_t dur_ns = 0;   ///< complete spans only
  std::uint64_t id = 0;       ///< request id (async key; arg on spans)
  const char* arg_keys[2] = {nullptr, nullptr};
  std::int64_t arg_vals[2] = {0, 0};
};

/// RAII complete-span: stamps begin on construction, emits on destruction.
/// Captures current_request_id() automatically. A span constructed while
/// tracing is off records nothing (and skips the clock reads).
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* category);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a numeric argument (up to 2; extras are ignored). `key` must
  /// be a string literal.
  void arg(const char* key, std::int64_t value);

 private:
  bool active_;
  TraceEvent ev_;
};

/// Nanoseconds since start() on the trace clock (what event timestamps
/// are expressed in). Usable whether or not recording is enabled.
std::uint64_t now_ns();

/// Emit a complete span with explicit begin/end timestamps — for phases
/// whose begin was observed on another thread (e.g. queue wait: stamped at
/// submit, emitted by the worker that claims the request). `id` tags the
/// span's request as with TraceSpan.
void emit_complete(const char* name, const char* category,
                   std::uint64_t begin_ns, std::uint64_t end_ns,
                   std::uint64_t id);

/// Point events. The async trio keys on `id` — Chrome matches begin/end
/// pairs by (category, id), so use the same category for one lifetime.
void emit_instant(const char* name, const char* category);
void emit_async_begin(const char* name, const char* category,
                      std::uint64_t id);
void emit_async_end(const char* name, const char* category, std::uint64_t id);
void emit_async_instant(const char* name, const char* category,
                        std::uint64_t id);

/// Streaming event observer (spmv::obs): invoked inline on the recording
/// thread for every event recorded while tracing is enabled, after the
/// event lands in the thread's ring. The callback must be cheap and
/// non-blocking (it runs on kernel-launch and serve hot paths) — the
/// intended implementation is a bounded ring push that drops on overflow
/// (obs::StreamingSink). Passing nullptr detaches. A registration is
/// kept for the life of the process, one per distinct (observer, ctx)
/// pair, because a racing emit may still be reading a replaced one;
/// detach while other threads may be emitting only if the observer's
/// context outlives them.
using EventObserver = void (*)(void* ctx, const TraceEvent& ev);
void set_event_observer(EventObserver observer, void* ctx);

/// Merged view of every thread's ring, sorted by timestamp.
struct Snapshot {
  /// One recording thread's wrap-around loss (only threads that lost
  /// events appear).
  struct ThreadDrops {
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;  ///< events overwritten by ring wrap-around
  int threads = 0;            ///< distinct recording threads seen
  std::vector<ThreadDrops> dropped_by_thread;  ///< per-thread loss accounting
};
[[nodiscard]] Snapshot snapshot();

/// The snapshot as a Chrome trace-event JSON document ("traceEvents"
/// array; timestamps in microseconds).
[[nodiscard]] std::string chrome_trace_json();

/// Write chrome_trace_json() to `path`; throws std::runtime_error when the
/// file cannot be written.
void write_chrome_trace_file(const std::string& path);

}  // namespace spmv::trace
