// Measurement plumbing shared by every perfbench workload: exact
// percentiles from raw samples, a seeded Zipf request stream, the in-memory
// span recorder of the traced run, the /proc thread sampler, process
// memory, the last-level-cache size and the STREAM-triad bandwidth roof.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile: the sample at 1-based rank ceil(pct/100 * n) of
/// the sorted samples (integer arithmetic, so p99 of 1000 samples is rank
/// 990 exactly). `pct` is a whole percent in [1, 100]. 0 when empty.
double percentile(std::vector<double> samples, int pct);

/// True when at least ten samples lie beyond the pct-th percentile under
/// the nearest-rank rule, i.e. the tail is measured rather than the max.
bool tail_supported(std::size_t n, int pct);

/// Seed for stream `stream` derived from the run seed, so every client
/// thread and every generated matrix has its own reproducible stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// One client's request stream: a Zipf(s)-popular item in [0, n) — item k
/// drawn with probability proportional to 1/(k+1)^s — and, every
/// `spmm_every`-th request (0 = never), the flag for a width-8 SpMM.
/// Deterministic for a given seed.
class RequestStream {
 public:
  struct Draw {
    std::size_t item = 0;
    bool spmm = false;
  };
  RequestStream(std::size_t n, double s, int spmm_every, std::uint64_t seed)
      : n_(n), s_(s), spmm_every_(spmm_every), rng_(seed) {}
  Draw next() {
    const bool spmm = spmm_every_ > 0 && ++count_ % spmm_every_ == 0;
    return {static_cast<std::size_t>(rng_.zipf(n_, s_)) - 1, spmm};
  }

 private:
  std::size_t n_;
  double s_;
  int spmm_every_;
  std::uint64_t count_ = 0;
  spmv::util::Xoshiro256 rng_;
};

/// One recorded span: a call into a library layer made by the benchmark.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation (request / iteration / probe) id
  std::uint32_t thread = 0;
};

/// In-memory span store for the traced run. Spans are kept per thread and
/// written once at exit; recording is off (a branch) in untraced runs.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  std::uint64_t next_op() { return next_op_.fetch_add(1) + 1; }

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t op);
  void close(std::uint64_t id);

  /// Writes {"header": ..., "spans": [...]} as JSON, spans in id order;
  /// false on I/O failure. Call after the recording threads have ended.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  struct ThreadLog;
  ThreadLog& local();
  [[nodiscard]] std::vector<Span> collect() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_op_{0};
  std::atomic<std::uint32_t> next_thread_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span around one public call; nests under the thread's open span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t op)
      : id_(SpanRecorder::instance().open(name, op)) {}
  ~ScopedSpan() {
    if (id_ != 0) SpanRecorder::instance().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_;
};

/// Samples `Threads:` from /proc/self/status every 20 ms while
/// alive and keeps the peak. Joins its thread on destruction.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  [[nodiscard]] int peak() const { return peak_.load(); }

 private:
  void sample();

  std::atomic<int> peak_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // declared last: uses the members above
};

/// getrusage ru_maxrss in MiB.
double peak_rss_mib();

/// Last-level cache size in bytes as the C library reports it (the L3 on
/// the hosts this targets), falling back to L2.
std::size_t llc_bytes();

struct TriadResult {
  double gbps = 0.0;            ///< best of the timed passes, 1e9 B/s
  std::size_t array_bytes = 0;  ///< bytes of each of the three arrays
  std::size_t llc_bytes = 0;
};

/// STREAM triad a[i] = b[i] + s*c[i] over three double arrays each at least
/// 4x the LLC, OpenMP-parallel with first-touch initialisation. Counts 24
/// bytes per element (two reads, one write), as STREAM does.
TriadResult stream_triad();

}  // namespace perfbench
