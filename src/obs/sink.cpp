#include "obs/sink.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "prof/json.hpp"
#include "util/fsync.hpp"
#include "util/log.hpp"

namespace spmv::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The calling thread's producer-group routing hint (set_producer_group).
/// Process-wide, not per-sink: a shard worker thread belongs to one
/// partition for its whole life, whichever sink is attached.
thread_local std::size_t t_producer_group = 0;

/// One record as a single-line JSON document (the flusher's serializer —
/// never on a producer thread).
std::string to_jsonl(const Record& r) {
  prof::Json j = prof::Json::object();
  j.set("type", r.kind == Record::Kind::Span ? "span" : "stat");
  j.set("name", r.name != nullptr ? r.name : "?");
  if (r.kind == Record::Kind::Span) {
    j.set("cat", r.category != nullptr ? r.category : "?");
    j.set("trace_id", r.trace_id);
    j.set("tid", static_cast<std::int64_t>(r.tid));
    j.set("ts_ns", r.ts_ns);
    j.set("dur_ns", r.dur_ns);
    if (r.arg_keys[0] != nullptr) {
      prof::Json attrs = prof::Json::object();
      for (int i = 0; i < 2; ++i) {
        if (r.arg_keys[i] != nullptr) attrs.set(r.arg_keys[i], r.arg_vals[i]);
      }
      j.set("attrs", std::move(attrs));
    }
  } else {
    j.set("ts_ns", r.ts_ns);
    j.set("value", r.value);
    if (r.arg_keys[0] != nullptr) {
      prof::Json attrs = prof::Json::object();
      for (int i = 0; i < 2; ++i) {
        if (r.arg_keys[i] != nullptr) attrs.set(r.arg_keys[i], r.arg_vals[i]);
      }
      j.set("attrs", std::move(attrs));
    }
  }
  return j.dump(0) + "\n";
}

}  // namespace

StreamingSink::StreamingSink(SinkOptions opts) : opts_(std::move(opts)) {
  if (opts_.directory.empty())
    throw std::runtime_error("StreamingSink: directory is required");
  std::error_code ec;
  std::filesystem::create_directories(opts_.directory, ec);
  if (ec)
    throw std::runtime_error("StreamingSink: cannot create directory " +
                             opts_.directory + ": " + ec.message());
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(2, opts_.ring_capacity));
  mask_ = cap - 1;
  const std::size_t groups = std::max<std::size_t>(1, opts_.producer_groups);
  rings_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    auto ring = std::make_unique<Ring>();
    ring->slots = std::vector<Slot>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      ring->slots[i].seq.store(i, std::memory_order_relaxed);
    rings_.push_back(std::move(ring));
  }
  paused_ = opts_.start_paused;
  flusher_ = std::thread([this] { flusher_main(); });
}

StreamingSink::~StreamingSink() { close(); }

void StreamingSink::on_trace_event(void* ctx, const trace::TraceEvent& ev) {
  // Stream completed spans only; point/async markers stay in the in-memory
  // rings (the Chrome export renders them, the fleet pipeline wants spans).
  if (ev.phase != 'X') return;
  auto* self = static_cast<StreamingSink*>(ctx);
  Record r;
  r.kind = Record::Kind::Span;
  r.name = ev.name;
  r.category = ev.category;
  r.tid = ev.tid;
  r.trace_id = ev.id;
  r.ts_ns = ev.ts_ns;
  r.dur_ns = ev.dur_ns;
  for (int i = 0; i < 2; ++i) {
    r.arg_keys[i] = ev.arg_keys[i];
    r.arg_vals[i] = ev.arg_vals[i];
  }
  (void)self->push(r);
}

void StreamingSink::attach() { trace::set_event_observer(&on_trace_event, this); }

void StreamingSink::detach() { trace::set_event_observer(nullptr, nullptr); }

bool StreamingSink::push(const Record& r) {
  if (!accepting_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Route to the calling thread's producer-group ring; threads that never
  // called set_producer_group share ring 0 (the single-ring behaviour).
  Ring& ring = *rings_[t_producer_group % rings_.size()];
  // Vyukov bounded-queue claim: each slot carries a sequence number; a
  // producer owns slot (pos & mask_) when seq == pos, publishes with
  // seq = pos + 1. A lagging seq means the consumer has not freed the slot
  // a full lap behind — the ring is full, so drop (never block, never
  // allocate: this runs inside trace emission on serving threads).
  std::size_t pos = ring.head.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = ring.slots[pos & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) -
                     static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (ring.head.compare_exchange_weak(pos, pos + 1,
                                          std::memory_order_relaxed)) {
        slot.rec = r;
        slot.seq.store(pos + 1, std::memory_order_release);
        pushed_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS reloaded pos; retry.
    } else if (dif < 0) {
      ring.dropped.fetch_add(1, std::memory_order_relaxed);
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      pos = ring.head.load(std::memory_order_relaxed);
    }
  }
}

bool StreamingSink::push_stat(const char* name, double value) {
  Record r;
  r.kind = Record::Kind::Stat;
  r.name = name;
  r.ts_ns = trace::now_ns();
  r.value = value;
  return push(r);
}

bool StreamingSink::push_stat(const char* name, double value,
                              std::int64_t shard) {
  Record r;
  r.kind = Record::Kind::Stat;
  r.name = name;
  r.ts_ns = trace::now_ns();
  r.value = value;
  r.arg_keys[0] = "shard";
  r.arg_vals[0] = shard;
  return push(r);
}

void StreamingSink::set_producer_group(std::size_t group) {
  t_producer_group = group;
}

void StreamingSink::pause() {
  std::lock_guard<std::mutex> lock(ctl_mutex_);
  paused_ = true;
}

void StreamingSink::resume() {
  {
    std::lock_guard<std::mutex> lock(ctl_mutex_);
    paused_ = false;
  }
  ctl_cv_.notify_one();
}

void StreamingSink::flush_now() {
  std::lock_guard<std::mutex> lock(io_mutex_);
  drain_locked();
}

void StreamingSink::flusher_main() {
  std::unique_lock<std::mutex> lock(ctl_mutex_);
  for (;;) {
    ctl_cv_.wait_for(lock,
                     std::chrono::milliseconds(
                         std::max(1, opts_.flush_interval_ms)),
                     [&] { return stop_; });
    if (stop_) return;  // close() drains after the join
    if (paused_) continue;
    lock.unlock();
    flush_now();
    lock.lock();
  }
}

void StreamingSink::ensure_stream_locked() {
  if (stream_.is_open()) return;
  const std::string path = active_path();
  stream_.open(path, std::ios::out | std::ios::trunc);
  if (!stream_) {
    // Disk trouble must not take the serving process down: complain once
    // per rotation attempt and count the records as dropped at flush time.
    util::log_warn() << "StreamingSink: cannot open " << path;
  }
  segment_bytes_ = 0;
  segment_records_ = 0;
}

void StreamingSink::lose_segment_locked(const std::string& why) {
  // The active segment will never become a numbered one (the next open
  // truncates it), so its records move from flushed to dropped and the
  // file goes now: pushed == flushed + dropped keeps describing what is on
  // disk.
  util::log_warn() << "StreamingSink: " << why << "; dropping "
                   << segment_records_ << " record(s) of the active segment";
  if (stream_.is_open()) stream_.close();
  std::error_code ec;
  std::filesystem::remove(active_path(), ec);  // best-effort
  flushed_ -= segment_records_;
  bytes_written_ -= segment_bytes_;
  dropped_.fetch_add(segment_records_, std::memory_order_relaxed);
  segment_records_ = 0;
  segment_bytes_ = 0;
}

void StreamingSink::drain_locked() {
  const std::size_t cap = mask_ + 1;
  Record rec;
  for (const auto& ring_ptr : rings_) {
    Ring& ring = *ring_ptr;
    for (;;) {
      Slot& slot = ring.slots[ring.tail & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) -
              static_cast<std::intptr_t>(ring.tail + 1) < 0)
        break;  // next slot not yet published — this ring drained
      rec = slot.rec;
      slot.seq.store(ring.tail + cap, std::memory_order_release);
      ++ring.tail;
      const std::string line = to_jsonl(rec);
      // (Re)open lazily, per record: a rotation inside this loop closes the
      // stream, and an empty drain must not leave a stray .part file behind.
      ensure_stream_locked();
      if (stream_.is_open()) {
        stream_ << line;
        segment_bytes_ += line.size();
        segment_records_ += 1;
        bytes_written_ += line.size();
        flushed_ += 1;
        if (!stream_) lose_segment_locked("write failed");
      } else {
        ring.dropped.fetch_add(1, std::memory_order_relaxed);
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      if (segment_bytes_ >= opts_.segment_max_bytes) rotate_locked();
    }
  }
  if (stream_.is_open() && !stream_.flush())
    lose_segment_locked("flush failed");
}

void StreamingSink::rotate_locked() {
  if (!stream_.is_open() || segment_bytes_ == 0) return;
  // Durable before it is named: a crash after the rename must not leave a
  // numbered segment whose data never reached the disk.
  stream_.close();
  if (stream_.fail() || !util::fsync_file(active_path())) {
    lose_segment_locked("cannot write segment " + active_path());
    return;
  }
  char name[64];
  std::snprintf(name, sizeof(name), "segment-%06llu.jsonl",
                static_cast<unsigned long long>(next_segment_));
  next_segment_ += 1;
  const std::string dst =
      (std::filesystem::path(opts_.directory) / name).string();
  std::error_code ec;
  // rename() is atomic within a filesystem: a crash mid-rotation leaves
  // either the complete numbered segment or the .part file, never a
  // half-named half-written segment.
  std::filesystem::rename(active_path(), dst, ec);
  if (ec) {
    lose_segment_locked("rotate to " + dst + " failed: " + ec.message());
    return;
  }
  util::fsync_parent_dir(dst);
  segments_.push_back(dst);
  rotations_ += 1;
  while (segments_.size() > opts_.max_segments) {
    std::filesystem::remove(segments_.front(), ec);  // best-effort
    segments_.erase(segments_.begin());
  }
  segment_bytes_ = 0;
  segment_records_ = 0;
}

void StreamingSink::close() {
  {
    std::lock_guard<std::mutex> lock(ctl_mutex_);
    if (closed_) return;
    closed_ = true;
    stop_ = true;
  }
  accepting_.store(false, std::memory_order_relaxed);
  ctl_cv_.notify_one();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(io_mutex_);
  drain_locked();
  rotate_locked();  // the final (possibly short) segment
  if (stream_.is_open()) stream_.close();
}

SinkStats StreamingSink::stats() const {
  SinkStats s;
  s.pushed = pushed_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.dropped_by_ring.reserve(rings_.size());
  for (const auto& ring : rings_)
    s.dropped_by_ring.push_back(
        ring->dropped.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(io_mutex_);
  s.flushed = flushed_;
  s.rotations = rotations_;
  s.bytes_written = bytes_written_;
  return s;
}

std::vector<std::string> StreamingSink::segment_files() const {
  std::lock_guard<std::mutex> lock(io_mutex_);
  return segments_;
}

std::string StreamingSink::active_path() const {
  return (std::filesystem::path(opts_.directory) / "active.jsonl.part")
      .string();
}

}  // namespace spmv::obs
