#include "runtime.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include <omp.h>

#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, int pct) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const std::size_t p = static_cast<std::size_t>(std::clamp(pct, 1, 100));
  const std::size_t rank = std::max<std::size_t>(1, (p * n + 99) / 100);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool tail_supported(std::size_t n, int pct) {
  const std::size_t p = static_cast<std::size_t>(std::clamp(pct, 1, 100));
  const std::size_t rank = std::max<std::size_t>(1, (p * n + 99) / 100);
  return n >= rank + 10;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  spmv::util::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next();
}

// --- spans -----------------------------------------------------------

struct SpanRecorder::ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;       // closed and open spans, in open order
  std::vector<std::size_t> open;  // indices into spans of the open stack
};

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadLog& SpanRecorder::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    owned->thread = next_thread_.fetch_add(1);
    log = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::move(owned));
  }
  return *log;
}

std::uint64_t SpanRecorder::open(const char* name, std::uint64_t op) {
  if (!enabled()) return 0;
  ThreadLog& log = local();
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1) + 1;
  s.parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
  s.op = op;
  s.thread = log.thread;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  log.open.push_back(log.spans.size());
  log.spans.push_back(s);
  return s.id;
}

void SpanRecorder::close(std::uint64_t id) {
  ThreadLog& log = local();
  if (log.open.empty() || log.spans[log.open.back()].id != id) return;
  log.spans[log.open.back()].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  log.open.pop_back();
}

std::vector<Span> SpanRecorder::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_)
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool SpanRecorder::write(const std::string& path,
                         const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"header\": " << header_json << ",\n\"spans\": [\n";
  const std::vector<Span> spans = collect();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"thread\":" << s.thread << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- threads, memory, caches ------------------------------------------

namespace {

int read_thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

}  // namespace

ThreadSampler::ThreadSampler() : thread_([this] { sample(); }) {}

ThreadSampler::~ThreadSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void ThreadSampler::sample() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const int n = read_thread_count();
    if (n > peak_.load()) peak_.store(n);
    if (cv_.wait_for(lock, std::chrono::milliseconds(20),
                     [this] { return stop_; }))
      return;
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t llc_bytes() {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

TriadResult stream_triad() {
  TriadResult r;
  r.llc_bytes = llc_bytes();
  const std::size_t n = 4 * r.llc_bytes / sizeof(double) + 1;
  r.array_bytes = n * sizeof(double);
  // Uninitialised storage so the first touch below happens in the same
  // OpenMP partition as the timed loop.
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < sn; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double scalar = 3.0;
  double best = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < sn; ++i) a[i] = b[i] + scalar * c[i];
    const double s = seconds_between(t0, Clock::now());
    if (pass > 0 && (best == 0.0 || s < best)) best = s;
  }
  if (a[n / 2] != 7.0) return r;  // wrong result: report no roof
  r.gbps = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

}  // namespace perfbench
