#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "prof/json.hpp"
#include "util/log.hpp"

namespace spmv::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_request{0};
/// Once-per-recording flag for the shutdown loss warning (see stop()).
std::atomic<bool> g_drop_warned{false};

/// Streaming-observer registration. Swapped atomically as one pointer so a
/// racing emit() can never see a torn (fn, ctx) pair. A replaced
/// registration is never freed, because a racing emit may still be
/// reading it; observer_reg()'s list owns them all.
struct ObserverReg {
  EventObserver fn = nullptr;
  void* ctx = nullptr;
};
std::atomic<ObserverReg*> g_observer{nullptr};
std::atomic<std::uint64_t> g_sample_every{1};
std::atomic<std::uint64_t> g_sample_counter{0};
/// steady_clock time_since_epoch at start(); event timestamps subtract it.
std::atomic<std::int64_t> g_epoch_ns{0};

thread_local std::uint64_t t_request_id = 0;

/// The registration for (fn, ctx), created on first use and kept for the
/// life of the process: attach/detach is rare (a handful of distinct
/// pairs per process), so the list stays short. The list is never
/// destroyed, so no emit can outlive it.
ObserverReg* observer_reg(EventObserver fn, void* ctx) {
  static std::mutex mu;
  static auto& regs = *new std::list<ObserverReg>;
  std::lock_guard<std::mutex> lock(mu);
  for (ObserverReg& r : regs)
    if (r.fn == fn && r.ctx == ctx) return &r;
  return &regs.emplace_back(ObserverReg{fn, ctx});
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t trace_now_ns() {
  const std::int64_t now = steady_now_ns();
  const std::int64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  return now > epoch ? static_cast<std::uint64_t>(now - epoch) : 0;
}

/// One thread's ring. Owned by the registry (a thread may exit while its
/// events are still waiting to be drained); the recording thread holds a
/// raw pointer. The mutex is effectively uncontended — only snapshots and
/// resizes cross threads.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> ring;
  std::size_t head = 0;          ///< next write slot
  std::uint64_t recorded = 0;    ///< total events ever written
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
  std::size_t capacity = kDefaultBufferCapacity;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may outlive main
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    ThreadBuffer* b = r.buffers.back().get();
    b->tid = r.next_tid++;
    b->ring.resize(r.capacity);
    return b;
  }();
  return *buf;
}

void emit(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  ev.tid = buf.tid;
  {
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (!buf.ring.empty()) {
      buf.ring[buf.head] = ev;
      buf.head = (buf.head + 1) % buf.ring.size();
      buf.recorded += 1;
    }
  }
  // Stream a copy to the observer (outside the ring lock — the observer's
  // push must never extend the critical section other recorders contend on).
  if (ObserverReg* obs = g_observer.load(std::memory_order_acquire);
      obs != nullptr && obs->fn != nullptr) {
    obs->fn(obs->ctx, ev);
  }
}

void emit_point(const char* name, const char* category, char phase,
                std::uint64_t id) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = phase;
  ev.ts_ns = trace_now_ns();
  ev.id = id;
  emit(ev);
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void start(std::size_t per_thread_capacity) {
  start(TraceConfig{.per_thread_capacity = per_thread_capacity});
}

void start(const TraceConfig& config) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.capacity = std::max<std::size_t>(1, config.per_thread_capacity);
    for (auto& buf : r.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mutex);
      buf->ring.assign(r.capacity, TraceEvent{});
      buf->head = 0;
      buf->recorded = 0;
    }
  }
  g_sample_every.store(std::max<std::uint64_t>(1, config.sample_every_n),
                       std::memory_order_relaxed);
  g_sample_counter.store(0, std::memory_order_relaxed);
  g_epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
  g_drop_warned.store(false, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void set_event_observer(EventObserver observer, void* ctx) {
  g_observer.store(observer != nullptr ? observer_reg(observer, ctx) : nullptr,
                   std::memory_order_release);
}

bool sample_request() {
  if (!enabled()) return false;
  const std::uint64_t every = g_sample_every.load(std::memory_order_relaxed);
  if (every <= 1) return true;
  return g_sample_counter.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

void stop() {
  const bool was_on = g_enabled.exchange(false, std::memory_order_relaxed);
  if (!was_on) return;
  // Ring wrap-around is silent while recording (the hot path must not
  // log); surface the total loss exactly once per recording at shutdown
  // so a trace with holes is never mistaken for a complete one.
  std::uint64_t dropped = 0;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& buf : r.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mutex);
      const std::size_t cap = buf->ring.size();
      if (cap != 0 && buf->recorded > cap) dropped += buf->recorded - cap;
    }
  }
  if (dropped != 0 && !g_drop_warned.exchange(true, std::memory_order_relaxed))
    util::log_warn() << "trace: " << dropped
                     << " span(s) overwritten by ring wrap-around "
                        "(raise per_thread_capacity or sample_every_n)";
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->head = 0;
    buf->recorded = 0;
  }
}

std::uint64_t next_request_id() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t current_request_id() { return t_request_id; }

ScopedRequestId::ScopedRequestId(std::uint64_t id) : prev_(t_request_id) {
  t_request_id = id;
}

ScopedRequestId::~ScopedRequestId() { t_request_id = prev_; }

TraceSpan::TraceSpan(const char* name, const char* category)
    : active_(enabled()) {
  if (!active_) return;
  ev_.name = name;
  ev_.category = category;
  ev_.phase = 'X';
  ev_.id = t_request_id;
  ev_.ts_ns = trace_now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  ev_.dur_ns = trace_now_ns() - ev_.ts_ns;
  emit(ev_);
}

void TraceSpan::arg(const char* key, std::int64_t value) {
  if (!active_) return;
  for (int i = 0; i < 2; ++i) {
    if (ev_.arg_keys[i] == nullptr) {
      ev_.arg_keys[i] = key;
      ev_.arg_vals[i] = value;
      return;
    }
  }
}

std::uint64_t now_ns() { return trace_now_ns(); }

void emit_complete(const char* name, const char* category,
                   std::uint64_t begin_ns, std::uint64_t end_ns,
                   std::uint64_t id) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'X';
  ev.ts_ns = begin_ns;
  ev.dur_ns = end_ns > begin_ns ? end_ns - begin_ns : 0;
  ev.id = id;
  emit(ev);
}

void emit_instant(const char* name, const char* category) {
  emit_point(name, category, 'i', t_request_id);
}

void emit_async_begin(const char* name, const char* category,
                      std::uint64_t id) {
  emit_point(name, category, 'b', id);
}

void emit_async_end(const char* name, const char* category,
                    std::uint64_t id) {
  emit_point(name, category, 'e', id);
}

void emit_async_instant(const char* name, const char* category,
                        std::uint64_t id) {
  emit_point(name, category, 'n', id);
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  snap.threads = static_cast<int>(r.buffers.size());
  for (auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    const std::size_t cap = buf->ring.size();
    if (cap == 0 || buf->recorded == 0) continue;
    if (buf->recorded > cap) {
      snap.dropped += buf->recorded - cap;
      snap.dropped_by_thread.push_back({buf->tid, buf->recorded - cap});
      // Ring wrapped: oldest surviving event sits at head.
      for (std::size_t i = 0; i < cap; ++i)
        snap.events.push_back(buf->ring[(buf->head + i) % cap]);
    } else {
      // Not wrapped: slots 0..recorded-1 hold the events (head has wrapped
      // back to 0 when recorded == cap, so iterate on recorded, not head).
      for (std::size_t i = 0; i < static_cast<std::size_t>(buf->recorded); ++i)
        snap.events.push_back(buf->ring[i]);
    }
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return snap;
}

std::string chrome_trace_json() {
  const Snapshot snap = snapshot();
  prof::Json events = prof::Json::array();
  for (const TraceEvent& ev : snap.events) {
    prof::Json j = prof::Json::object();
    j.set("name", ev.name != nullptr ? ev.name : "?");
    j.set("cat", ev.category != nullptr ? ev.category : "?");
    j.set("ph", std::string(1, ev.phase));
    j.set("ts", static_cast<double>(ev.ts_ns) / 1e3);
    j.set("pid", 1);
    j.set("tid", static_cast<std::int64_t>(ev.tid));
    if (ev.phase == 'X')
      j.set("dur", static_cast<double>(ev.dur_ns) / 1e3);
    if (ev.phase == 'b' || ev.phase == 'e' || ev.phase == 'n')
      j.set("id", std::to_string(ev.id));
    const bool span_rid = ev.phase == 'X' && ev.id != 0;
    if (span_rid || ev.arg_keys[0] != nullptr) {
      prof::Json args = prof::Json::object();
      if (span_rid) args.set("request_id", ev.id);
      for (int i = 0; i < 2; ++i) {
        if (ev.arg_keys[i] != nullptr)
          args.set(ev.arg_keys[i], ev.arg_vals[i]);
      }
      j.set("args", args);
    }
    events.push_back(std::move(j));
  }
  prof::Json doc = prof::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  prof::Json other = prof::Json::object();
  other.set("dropped_events", snap.dropped);
  other.set("threads", snap.threads);
  doc.set("otherData", other);
  return doc.dump(0) + "\n";
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  out << chrome_trace_json();
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

}  // namespace spmv::trace
