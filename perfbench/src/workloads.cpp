#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/predictor.hpp"
#include "gen/generators.hpp"
#include "iter/session.hpp"
#include "kernels/reference.hpp"
#include "probe.hpp"
#include "runtime.hpp"
#include "serve/service.hpp"
#include "shard/sharded_service.hpp"

namespace perfbench {

namespace {

using spmv::index_t;
using spmv::offset_t;
using Csr = spmv::CsrMatrix<Scalar>;
using Session = spmv::iter::IterativeSession<Scalar>;
using Service = spmv::serve::SpmvService<Scalar>;
using Sharded = spmv::shard::ShardedService<Scalar>;
using Layers = std::map<std::string, double>;

/// p99 is reported only from runs holding at least this many samples, so
/// ten or more lie beyond it (nearest-rank rule).
constexpr std::size_t kTailSamples = 1000;
/// One operation in this many keeps copies of its input and output, which
/// are checked against kernels::spmv_exact after the timed window.
constexpr std::uint64_t kCheckEvery = 32;
constexpr std::size_t kMaxChecksPerClient = 48;
constexpr int kSpmmWidth = 8;
/// Seconds each service-, session- or shard-layer probe of the traced run
/// drives its layer.
constexpr double kProbeSeconds = 1.0;

const spmv::exec::BackendKind kNative = spmv::exec::BackendKind::Native;
const spmv::fmt::FormatMode kAuto = spmv::fmt::FormatMode::Auto;

int load_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// --- closed loops -----------------------------------------------------

/// One operation whose output is kept for the correctness check.
struct Check {
  CsrPtr a;           ///< matrix with the values the operation used
  int value_set = 0;  ///< solve_stream: which value set `a` must carry
  std::vector<Scalar> x;
  std::vector<Scalar> y;
  int width = 1;
};

/// One completed operation.
struct Done {
  double at_s = 0.0;       ///< completion, seconds from the loop's start
  double latency_s = 0.0;  ///< call to result
  double flops = 0.0;
};

struct ClientLog {
  Clock::time_point origin = Clock::now();  ///< the loop's start
  std::vector<Done> done;
  std::uint64_t attempted = 0;
  std::uint64_t thrown = 0;
  std::uint64_t rejected = 0;  ///< serve::QueueFullError
  std::vector<Check> checks;

  void complete(Clock::time_point called, double flops) {
    const auto now = Clock::now();
    done.push_back(
        {seconds_between(origin, now), seconds_between(called, now), flops});
  }
};

/// Completions per block of the robust rates below.
constexpr std::size_t kBlockOps = 64;

struct LoopResult {
  std::vector<ClientLog> clients;
  double wall_s = 0.0;
  int threads_peak = 0;

  /// Completions of every client (or of one), in completion order.
  std::vector<Done> completions(int only_client = -1) const {
    std::vector<Done> all;
    for (std::size_t c = 0; c < clients.size(); ++c)
      if (only_client < 0 || static_cast<int>(c) == only_client)
        all.insert(all.end(), clients[c].done.begin(), clients[c].done.end());
    std::sort(all.begin(), all.end(),
              [](const Done& a, const Done& b) { return a.at_s < b.at_s; });
    return all;
  }
  std::vector<double> latencies(int only_client = -1) const {
    std::vector<double> l;
    for (const Done& d : completions(only_client)) l.push_back(d.latency_s);
    return l;
  }
  template <typename F>
  double sum(F f) const {
    double s = 0.0;
    for (const ClientLog& c : clients) s += static_cast<double>(f(c));
    return s;
  }

  /// Median over consecutive blocks of kBlockOps completions of each
  /// block's rate of `value` per second. Blocks tile the window (each runs
  /// from the previous block's last completion to its own), so a burst of
  /// host contention shorter than half the window cannot move the result.
  /// solve_stream's blocks each hold exactly one update_values. The whole
  /// window when it holds less than one block.
  template <typename F>
  double block_rate(F value) const {
    const std::vector<Done> all = completions();
    std::vector<double> rates;
    double start = 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      acc += value(all[i]);
      if ((i + 1) % kBlockOps == 0) {
        rates.push_back(acc / (all[i].at_s - start));
        start = all[i].at_s;
        acc = 0.0;
      }
    }
    if (rates.empty()) {
      for (const Done& d : all) acc += value(d);
      return acc / wall_s;
    }
    return percentile(std::move(rates), 50);
  }
  double ops_per_s() const {
    return block_rate([](const Done&) { return 1.0; });
  }
  double flops_per_s() const {
    return block_rate([](const Done& d) { return d.flops; });
  }
};

/// Tail percentile robust to bursts: the latencies, in completion order,
/// are cut into as many consecutive groups of at least kTailSamples as fit,
/// so every group's percentile has ten or more samples beyond it, and the
/// median of the groups' percentiles is returned.
double grouped_percentile(const std::vector<double>& lat, int pct) {
  const std::size_t groups =
      std::max<std::size_t>(1, lat.size() / kTailSamples);
  const std::size_t size = lat.size() / groups;
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = lat.begin() + static_cast<std::ptrdiff_t>(g * size);
    const auto last = g + 1 == groups
                          ? lat.end()
                          : first + static_cast<std::ptrdiff_t>(size);
    per_group.push_back(percentile(std::vector<double>(first, last), pct));
  }
  return percentile(std::move(per_group), 50);
}

Clock::duration to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Runs `clients` threads, each calling op(client, log) back to back —
/// every caller waits for its result before the next call — until
/// `seconds` have passed and at least `min_ops` operations completed
/// (capped at three times the window).
LoopResult closed_loop(int clients, double seconds, std::size_t min_ops,
                       const std::function<void(int, ClientLog&)>& op) {
  LoopResult r;
  std::atomic<std::size_t> done{0};
  std::mutex error_mu;
  std::exception_ptr error;
  ThreadSampler sampler;
  const auto t0 = Clock::now();
  r.clients.resize(static_cast<std::size_t>(clients));
  for (ClientLog& c : r.clients) c.origin = t0;
  const auto deadline = t0 + to_duration(seconds);
  const auto hard = t0 + to_duration(3 * seconds);
  const auto running = [&] {
    const auto now = Clock::now();
    return now < deadline || (done.load() < min_ops && now < hard);
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        try {
          while (running()) {
            op(c, r.clients[static_cast<std::size_t>(c)]);
            done.fetch_add(1);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          error = std::current_exception();
        }
      });
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.threads_peak = sampler.peak();
  if (error) std::rethrow_exception(error);
  return r;
}

/// Checks kept outputs against the double-precision reference. Inputs and
/// matrix values are positive, so no sum cancels and every entry must agree
/// to a relative 1e-4 (float accumulation over rows of a few hundred).
std::uint64_t count_wrong(const std::vector<Check>& checks) {
  std::uint64_t wrong = 0;
  for (const Check& ck : checks) {
    const auto rows = static_cast<std::size_t>(ck.a->rows());
    const auto cols = static_cast<std::size_t>(ck.a->cols());
    const auto w = static_cast<std::size_t>(ck.width);
    bool ok = ck.x.size() == cols * w && ck.y.size() == rows * w;
    for (std::size_t j = 0; ok && j < w; ++j) {
      const auto exact = spmv::kernels::spmv_exact(
          *ck.a, std::span<const Scalar>(ck.x).subspan(j * cols, cols));
      for (std::size_t i = 0; ok && i < rows; ++i) {
        const double v = ck.y[j * rows + i];
        ok = std::abs(v - exact[i]) <= 1e-4 * std::abs(exact[i]) + 1e-12;
      }
    }
    if (!ok) ++wrong;
  }
  return wrong;
}

bool keep_check(const ClientLog& log) {
  return log.attempted % kCheckEvery == 0 &&
         log.checks.size() < kMaxChecksPerClient;
}

std::uint64_t next_op_id() {
  auto& rec = SpanRecorder::instance();
  return rec.enabled() ? rec.next_op() : 0;
}

// --- reporting ----------------------------------------------------------

struct MatrixInfo {
  std::string label;
  index_t rows = 0;
  offset_t nnz = 0;
  std::size_t bytes = 0;
};

MatrixInfo info_of(std::string label, const Csr& a) {
  return {std::move(label), a.rows(), a.nnz(), a.bytes()};
}

void print_inputs(const std::vector<MatrixInfo>& inputs) {
  for (const MatrixInfo& m : inputs)
    std::printf("input %-24s rows=%d nnz=%lld csr_bytes=%zu\n",
                m.label.c_str(), m.rows, static_cast<long long>(m.nnz),
                m.bytes);
}

/// End-to-end metrics of an untraced run.
void end_to_end(const LoopResult& loop, const std::vector<double>& setups,
                RunResult& r) {
  const auto lat = loop.latencies();
  r.metrics.push_back({"setup_s", percentile(setups, 50), "s"});
  r.metrics.push_back({"ops_per_s", loop.ops_per_s(), "1/s"});
  r.metrics.push_back({"gflops", loop.flops_per_s() / 1e9, "GFLOP/s"});
  r.metrics.push_back({"latency_p50_ms", percentile(lat, 50) * 1e3, "ms"});
  if (tail_supported(lat.size(), 99))
    r.metrics.push_back(
        {"latency_p99_ms", grouped_percentile(lat, 99) * 1e3, "ms"});
  else
    std::printf("latency_p99_ms not reported: %zu samples < %zu\n",
                lat.size(), kTailSamples);
  r.metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  double flops = 0.0;
  for (const Done& d : loop.completions()) flops += d.flops;
  std::printf("whole window: %zu ops in %.3f s, %.3f ops/s, %.4f GFLOP/s\n",
              lat.size(), loop.wall_s,
              static_cast<double>(lat.size()) / loop.wall_s,
              flops / loop.wall_s / 1e9);
  std::printf("setup_reps_s");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\nsamples=%zu wall_s=%.3f threads_peak=%d\n", lat.size(),
              loop.wall_s, loop.threads_peak);
}

/// Attempted/failed accounting over every loop of the run plus the checks.
void account(const std::vector<const LoopResult*>& loops,
             const std::vector<Check>& checks, RunResult& r) {
  std::uint64_t thrown = 0;
  std::uint64_t rejected = 0;
  for (const LoopResult* l : loops) {
    r.attempted += static_cast<std::uint64_t>(
        l->sum([](const ClientLog& c) { return c.attempted; }));
    thrown += static_cast<std::uint64_t>(
        l->sum([](const ClientLog& c) { return c.thrown; }));
    rejected += static_cast<std::uint64_t>(
        l->sum([](const ClientLog& c) { return c.rejected; }));
  }
  const std::uint64_t wrong = count_wrong(checks);
  r.failed = thrown + rejected + wrong;
  r.correct = wrong == 0 && thrown == 0;
  std::printf(
      "checked=%zu wrong=%llu thrown=%llu rejected=%llu attempted=%llu "
      "fail_frac=%.6g\n",
      checks.size(), static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(thrown),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(r.attempted),
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted));
}

std::vector<Check> all_checks(const std::vector<const LoopResult*>& loops) {
  std::vector<Check> out;
  for (const LoopResult* l : loops)
    for (const ClientLog& c : l->clients)
      out.insert(out.end(), c.checks.begin(), c.checks.end());
  return out;
}

// --- serve clients ----------------------------------------------------

/// Closed-loop SpmvService clients: each draws a Zipf-popular matrix,
/// sends one request (every eighth a width-8 SpMM) and waits for it.
struct ServeClient {
  Service& svc;
  const std::vector<CsrPtr>& mats;
  const std::vector<Scalar>& xpool;  ///< >= 8 * max cols entries
  std::vector<RequestStream> streams;

  void operator()(int client, ClientLog& log) {
    const RequestStream::Draw d =
        streams[static_cast<std::size_t>(client)].next();
    const CsrPtr& a = mats[d.item];
    const int width = d.spmm ? kSpmmWidth : 1;
    const auto n = static_cast<std::size_t>(a->cols()) *
                   static_cast<std::size_t>(width);
    std::vector<Scalar> x(xpool.begin(),
                          xpool.begin() + static_cast<std::ptrdiff_t>(n));
    const bool check = keep_check(log);
    std::vector<Scalar> x_kept = check ? x : std::vector<Scalar>{};
    const std::uint64_t op = next_op_id();
    ScopedSpan root("serve.request", op);
    log.attempted += 1;
    const auto t0 = Clock::now();
    try {
      std::future<std::vector<Scalar>> fut;
      {
        ScopedSpan s("serve.SpmvService.submit", op);
        fut = width == 1 ? svc.submit(a, std::move(x))
                         : svc.submit_spmm(a, std::move(x), width);
      }
      std::vector<Scalar> y;
      {
        ScopedSpan s("serve.future.get", op);
        y = fut.get();
      }
      log.complete(t0, 2.0 * static_cast<double>(a->nnz()) * width);
      if (check)
        log.checks.push_back({a, 0, std::move(x_kept), std::move(y), width});
    } catch (const spmv::serve::QueueFullError&) {
      log.rejected += 1;
    } catch (const std::exception&) {
      log.thrown += 1;
    }
  }
};

std::vector<RequestStream> make_streams(int clients, std::size_t items,
                                        double zipf_s, int spmm_every,
                                        std::uint64_t seed) {
  std::vector<RequestStream> s;
  for (int c = 0; c < clients; ++c)
    s.emplace_back(items, zipf_s, spmm_every,
                   derive_seed(seed, 1000 + static_cast<std::uint64_t>(c)));
  return s;
}

std::vector<Scalar> make_xpool(const std::vector<CsrPtr>& mats,
                               std::uint64_t seed) {
  index_t cols = 0;
  for (const CsrPtr& m : mats) cols = std::max(cols, m->cols());
  return positive_vector(static_cast<std::size_t>(cols) * kSpmmWidth,
                         derive_seed(seed, 3));
}

/// serve.* from the service's stats over one loop (counter deltas; the
/// queue-wait percentiles come from the service's bucketed histogram).
void serve_layers(const spmv::prof::ServeStats& b,
                  const spmv::prof::ServeStats& a, const LoopResult& loop,
                  const CacheProbe& cache, Layers& L) {
  const double batches = static_cast<double>(a.batches - b.batches);
  const double requests = static_cast<double>(a.requests - b.requests);
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  const double planning =
      static_cast<double>(a.planning_passes - b.planning_passes);
  const double exec_s = a.exec_total_s - b.exec_total_s;
  const double wait_s = a.queue_wait_total_s - b.queue_wait_total_s;
  L["serve.queue_wait_p50_ms"] = a.queue_wait.percentile(50) * 1e3;
  L["serve.queue_wait_p99_ms"] = a.queue_wait.percentile(99) * 1e3;
  // Requests per execution: an SpMM request is one request of width 8.
  L["serve.batch_width_mean"] = batches > 0 ? requests / batches : 0.0;
  L["serve.cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["serve.planning_passes"] = planning;
  L["serve.cache_get_hit_us"] = cache.hit_us;
  L["serve.cache_get_miss_ms"] = cache.miss_ms;
  L["serve.exec_ms_per_batch"] = batches > 0 ? exec_s / batches * 1e3 : 0.0;
  // Ledger: every request of a batch waits for its batch's plan-cache get
  // and execution, so batch costs count once per member request.
  const double per_batch = batches > 0 ? requests / batches : 1.0;
  const double attributed =
      wait_s + per_batch * (exec_s + planning * cache.miss_ms / 1e3 +
                            hits * cache.hit_us / 1e6);
  double latency_s = 0.0;
  for (const double l : loop.latencies()) latency_s += l;
  L["serve.unattributed_frac"] =
      latency_s > 0 ? 1.0 - attributed / latency_s : 0.0;
}

/// Serve-layer probe for workloads that do not serve through SpmvService.
void probe_serve_layer(const std::vector<CsrPtr>& mats,
                       const spmv::core::Predictor& pred,
                       const CacheProbe& cache, std::uint64_t seed,
                       Layers& L) {
  spmv::serve::ServiceOptions so;
  so.backend = kNative;
  so.format = kAuto;
  Service svc(pred, so);
  const auto xpool = make_xpool(mats, seed);
  for (const CsrPtr& m : mats)
    (void)svc.run(m, std::vector<Scalar>(
                         xpool.begin(), xpool.begin() + m->cols()));
  ServeClient load{svc, mats, xpool,
                     make_streams(1, mats.size(), 1.0, kSpmmWidth, seed)};
  const auto before = svc.stats();
  const LoopResult loop = closed_loop(1, kProbeSeconds, 0, std::ref(load));
  serve_layers(before, svc.stats(), loop, cache, L);
}

// --- shard clients ----------------------------------------------------

struct ShardClient {
  Sharded& svc;
  const std::vector<Scalar>& x;
  offset_t nnz;
  std::vector<std::string> tenant_of_client;

  void operator()(int client, ClientLog& log) {
    std::vector<Scalar> xv = x;
    const bool check = keep_check(log);
    std::vector<Scalar> x_kept = check ? xv : std::vector<Scalar>{};
    const std::uint64_t op = next_op_id();
    ScopedSpan root("shard.request", op);
    log.attempted += 1;
    const auto t0 = Clock::now();
    try {
      std::future<std::vector<Scalar>> fut;
      {
        ScopedSpan s("shard.ShardedService.submit", op);
        fut = svc.submit(tenant_of_client[static_cast<std::size_t>(client)],
                         std::move(xv));
      }
      std::vector<Scalar> y;
      {
        ScopedSpan s("shard.future.get", op);
        y = fut.get();
      }
      log.complete(t0, 2.0 * static_cast<double>(nnz));
      if (check)
        log.checks.push_back({nullptr, 0, std::move(x_kept), std::move(y), 1});
    } catch (const spmv::serve::QueueFullError&) {
      log.rejected += 1;
    } catch (const std::exception&) {
      log.thrown += 1;
    }
  }
};

spmv::shard::ShardedOptions shard_options() {
  spmv::shard::ShardedOptions so;
  so.partition.shards = load_threads();
  so.tenants = {{"bulk", 1.0}, {"interactive", 1.0}};
  so.backend = kNative;
  so.format = kAuto;
  return so;
}

/// Clients 0..n-2 send as "bulk", the last as "interactive".
std::vector<std::string> shard_tenants(int clients) {
  std::vector<std::string> t(static_cast<std::size_t>(clients), "bulk");
  if (clients > 1) t.back() = "interactive";
  return t;
}

void shard_layers(const std::vector<Sharded::ShardInfo>& b,
                  const std::vector<Sharded::ShardInfo>& a,
                  const spmv::prof::ServeStats& st, const LoopResult& loop,
                  double unsharded_exec_ms, Layers& L) {
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double n = static_cast<double>(a[i].executions - b[i].executions);
    const double ms = n > 0 ? (a[i].exec_total_s - b[i].exec_total_s) / n * 1e3
                            : 0.0;
    sum += ms;
    max = std::max(max, ms);
  }
  const double mean = a.empty() ? 0.0 : sum / static_cast<double>(a.size());
  const double wait_p50_ms = st.queue_wait.percentile(50) * 1e3;
  L["shard.exec_ms_mean"] = mean;
  L["shard.exec_ms_max"] = max;
  L["shard.imbalance"] = mean > 0 ? max / mean : 0.0;
  L["shard.queue_wait_p50_ms"] = wait_p50_ms;
  L["shard.overhead_ms"] =
      percentile(loop.latencies(), 50) * 1e3 - wait_p50_ms - max;
  L["shard.unsharded_exec_ms"] = unsharded_exec_ms;
  L["shard.interactive_p99_ms"] =
      percentile(loop.latencies(static_cast<int>(loop.clients.size()) - 1),
                 99) *
      1e3;
}

/// Shard-layer probe for workloads that do not serve through
/// ShardedService: one bulk and one interactive client.
void probe_shard_layer(const CsrPtr& a, const spmv::core::Predictor& pred,
                       double unsharded_exec_ms, std::uint64_t seed,
                       Layers& L) {
  Sharded svc(a, pred, shard_options());
  const auto x =
      positive_vector(static_cast<std::size_t>(a->cols()),
                      derive_seed(seed, 4));
  (void)svc.run("bulk", x);
  ShardClient load{svc, x, a->nnz(), shard_tenants(2)};
  const auto before = svc.shard_infos();
  const LoopResult loop = closed_loop(2, kProbeSeconds, 0, std::ref(load));
  shard_layers(before, svc.shard_infos(), svc.stats(), loop,
               unsharded_exec_ms, L);
}

// --- solver loop ------------------------------------------------------

/// Power iteration through IterativeSession::step(). Every
/// kUpdateEvery-th iteration installs the other of two value sets, like a
/// time-stepped operator; every kNormEvery-th rescales the iterate to unit
/// 2-norm (row sums stay below 100, so eight steps cannot overflow).
struct SolveLoop {
  static constexpr std::uint64_t kUpdateEvery = 64;
  static constexpr std::uint64_t kNormEvery = 8;

  Session& s;
  const std::array<std::vector<Scalar>, 2>& values;
  offset_t nnz;
  int value_set = 0;
  std::uint64_t it = 0;
  double refresh_s = 0.0;
  std::uint64_t refreshes = 0;

  void operator()(int, ClientLog& log) {
    const std::uint64_t op = next_op_id();
    ScopedSpan root("solve.iteration", op);
    if (it > 0 && it % kUpdateEvery == 0) {
      ScopedSpan sp("iter.update_values", op);
      value_set ^= 1;
      const auto t0 = Clock::now();
      s.update_values(values[static_cast<std::size_t>(value_set)]);
      refresh_s += seconds_between(t0, Clock::now());
      refreshes += 1;
    }
    const bool check = it % kUpdateEvery == 0 && log.checks.size() < 8;
    std::vector<Scalar> x;
    if (check) {
      const auto cur = s.iterate();
      x.assign(cur.begin(), cur.end());
    }
    log.attempted += 1;
    try {
      const auto t0 = Clock::now();
      std::span<const Scalar> y;
      {
        ScopedSpan sp("iter.IterativeSession.step", op);
        y = s.step();
      }
      log.complete(t0, 2.0 * static_cast<double>(nnz));
      if (check)
        log.checks.push_back({nullptr, value_set, std::move(x),
                              std::vector<Scalar>(y.begin(), y.end()), 1});
    } catch (const std::exception&) {
      log.thrown += 1;
    }
    if (++it % kNormEvery == 0) {
      ScopedSpan sp("bench.normalize", op);
      const auto v = s.iterate();
      double ss = 0.0;
      for (const Scalar e : v) ss += static_cast<double>(e) * e;
      const auto inv = static_cast<Scalar>(1.0 / std::sqrt(ss));
      for (Scalar& e : v) e *= inv;
    }
  }
};

static_assert(SolveLoop::kUpdateEvery == kBlockOps,
              "each rate block of solve_stream holds one update_values");

/// Session-layer probe for workloads that do not iterate: a native/auto
/// session on `a` driven like solve_stream for 4 * kUpdateEvery steps, so
/// update_values runs four times.
void probe_iter_layer(const CsrPtr& a, const spmv::core::Predictor& pred,
                      std::uint64_t seed, Layers& L) {
  spmv::iter::SessionOptions so;
  so.backend = kNative;
  so.format = kAuto;
  Session s(a, pred, so);
  s.seed(positive_vector(static_cast<std::size_t>(a->cols()),
                         derive_seed(seed, 5)));
  const auto base = a->vals();
  std::array<std::vector<Scalar>, 2> values{
      std::vector<Scalar>(base.begin(), base.end()),
      std::vector<Scalar>(base.begin(), base.end())};
  for (Scalar& v : values[1]) v *= 0.5f;
  SolveLoop solver{s, values, a->nnz()};
  ClientLog log;
  const std::uint64_t iterations = 4 * SolveLoop::kUpdateEvery + 1;
  solver(0, log);  // first step: warm
  const auto before = s.stats();
  while (solver.it < iterations) solver(0, log);
  const auto after = s.stats();
  L["fmt.refresh_ms"] =
      solver.refreshes > 0 ? solver.refresh_s / solver.refreshes * 1e3 : 0.0;
  L["iter.planning_passes"] =
      static_cast<double>(after.planning_passes - before.planning_passes);
  L["iter.layout_refreshes"] =
      static_cast<double>(after.layout_refreshes - before.layout_refreshes);
}

// --- shared probe tail --------------------------------------------------

void plan_layers(const PlanProbe& p, Layers& L) {
  L["plan.features_ms"] = p.features_ms;
  L["plan.predict_ms"] = p.predict_ms;
  L["plan.binning_ms"] = p.binning_ms;
  L["plan.build_ms"] = p.build_ms;
  L["fmt.layout_build_ms"] = p.layout_build_ms;
  L["fmt.layout_mb"] = p.layout_mb;
  L["exec.kernel_ms"] = p.kernel_ms;
  L["exec.dispatch_ms"] = p.plan_exec_ms - p.kernel_ms;
  L["exec.bins"] = p.bins;
  L["exec.hot_bin_share"] = p.hot_bin_share;
  L["exec.spmm_ms_per_col"] = p.spmm_ms_per_col;
  L["exec.bytes_mb"] = p.bytes_mb;
  L["exec.plan_ms"] = p.plan_exec_ms;  // for exec.gbps, not reported
}

void loop_layers(const LoopResult& untraced, const LoopResult& traced,
                 Layers& L) {
  L["proc.threads_peak"] =
      std::max(untraced.threads_peak, traced.threads_peak);
  L["bench.trace_overhead_frac"] =
      1.0 - traced.ops_per_s() / untraced.ops_per_s();
}

// --- workloads ----------------------------------------------------------

/// solve_stream: one banded matrix at least 2x the LLC, so every power
/// iteration streams A from DRAM.
RunResult solve_stream(const RunOptions& o, Layers& L,
                       std::vector<MatrixInfo>& inputs) {
  constexpr index_t kHalfBand = 20;
  constexpr double kFill = 0.7;  // ~29 entries per row, ~240 CSR bytes
  const double row_bytes = 8.0 + (1.0 + 2 * kHalfBand * kFill) * 8.0;
  const auto rows = static_cast<index_t>(
      std::ceil(2.2 * static_cast<double>(llc_bytes()) / row_bytes));
  CsrPtr a = std::make_shared<const Csr>(spmv::gen::banded<Scalar>(
      rows, kHalfBand, kFill, derive_seed(o.seed, 1)));
  inputs.push_back(info_of("banded", *a));
  const offset_t nnz = a->nnz();
  std::array<std::vector<Scalar>, 2> values;
  values[0].assign(a->vals().begin(), a->vals().end());
  values[1] = values[0];
  {
    spmv::util::Xoshiro256 rng(derive_seed(o.seed, 2));
    for (Scalar& v : values[1]) v *= static_cast<Scalar>(rng.uniform(0.5, 1.5));
  }
  const auto x0 = positive_vector(static_cast<std::size_t>(rows),
                                  derive_seed(o.seed, 3));
  const spmv::core::HeuristicPredictor pred;
  spmv::iter::SessionOptions so;
  so.backend = kNative;
  so.format = kAuto;

  // Set-up: construction plus iterations until the lazy layouts exist
  // (the default amortisation policy builds them on the third run).
  std::unique_ptr<Session> s;
  std::vector<double> setups;
  for (int rep = 0; rep < (o.trace ? 1 : 5); ++rep) {
    s.reset();
    const auto t0 = Clock::now();
    s = std::make_unique<Session>(a, pred, so);
    s->seed(x0);
    for (int i = 0; i < 4; ++i) (void)s->step();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  a.reset();  // the session holds the matrix; update_values replaces it
  std::printf("plan %s\n", s->plan().to_string().c_str());

  SolveLoop solver{*s, values, nnz};
  RunResult r;
  std::vector<LoopResult> loops;
  if (!o.trace) {
    loops.push_back(closed_loop(1, o.seconds, kTailSamples, std::ref(solver)));
    end_to_end(loops.back(), setups, r);
  } else {
    loops.push_back(closed_loop(1, o.seconds / 2, 0, std::ref(solver)));
    SpanRecorder::instance().set_enabled(true);
    const auto before = s->stats();
    const double refresh_before = solver.refresh_s;
    const std::uint64_t refreshes_before = solver.refreshes;
    loops.push_back(closed_loop(1, o.seconds / 2, 0, std::ref(solver)));
    const auto after = s->stats();
    loop_layers(loops[0], loops[1], L);
    const std::uint64_t n = solver.refreshes - refreshes_before;
    L["fmt.refresh_ms"] =
        n > 0 ? (solver.refresh_s - refresh_before) / n * 1e3 : 0.0;
    L["iter.planning_passes"] =
        static_cast<double>(after.planning_passes - before.planning_passes);
    L["iter.layout_refreshes"] =
        static_cast<double>(after.layout_refreshes - before.layout_refreshes);
  }

  // Checks run against the value set each checked iteration used.
  std::vector<const LoopResult*> lp;
  for (const LoopResult& l : loops) lp.push_back(&l);
  auto checks = all_checks(lp);
  const CsrPtr current = s->matrix();
  CsrPtr other;
  for (Check& c : checks) {
    if (c.value_set == solver.value_set) {
      c.a = current;
      continue;
    }
    if (other == nullptr) {
      auto m = std::make_shared<Csr>(*current);
      m->update_values(values[static_cast<std::size_t>(c.value_set)]);
      other = std::move(m);
    }
    c.a = other;
  }
  account(lp, checks, r);
  checks.clear();
  other.reset();
  s.reset();
  if (!o.trace) return r;

  const PlanProbe p = probe_plan(*current, pred, 5);
  plan_layers(p, L);
  const std::vector<CsrPtr> mats{current};
  const CacheProbe cache = probe_cache(mats, pred);
  probe_serve_layer(mats, pred, cache, o.seed, L);
  probe_shard_layer(current, pred, p.plan_exec_ms, o.seed, L);
  return r;
}

/// Four times the default cache capacity. Zipf(1.5) keeps about four
/// requests in five on cached structures, so p50 is the hit path and p99
/// the path that plans.
constexpr int kStructures = 64;
constexpr double kZipfS = 1.5;

/// serve_mix structure for popularity rank `slot`: five generator kinds in
/// turn, 10k-40k rows fixed by the slot; the seed varies only the entries.
CsrPtr make_structure(int slot, std::uint64_t seed) {
  const auto rows = static_cast<index_t>(10000 + (slot * 7919 % 31) * 1000);
  const std::uint64_t s =
      derive_seed(seed, 100 + static_cast<std::uint64_t>(slot));
  switch (slot % 5) {
    case 0:
      return std::make_shared<const Csr>(
          spmv::gen::power_law<Scalar>(rows, rows, 2.0, 300, s));
    case 1:
      return std::make_shared<const Csr>(
          spmv::gen::fixed_degree<Scalar>(rows, rows, 6, s));
    case 2:
      return std::make_shared<const Csr>(
          spmv::gen::banded<Scalar>(rows, 8, 0.7, s));
    case 3:
      return std::make_shared<const Csr>(
          spmv::gen::road_network<Scalar>(rows, s));
    default:
      return std::make_shared<const Csr>(spmv::gen::mixed_regime<Scalar>(
          rows, rows, 0.6, 0.32, 4, 30, 120, 64, s));
  }
}

const char* kind_name(int slot) {
  static const char* names[] = {"power_law", "fixed_degree", "banded",
                                "road_network", "mixed_regime"};
  return names[slot % 5];
}

/// serve_mix: 64 cache-resident structures, Zipf popularity, four clients
/// against a default-sized plan cache of 16.
RunResult serve_mix(const RunOptions& o, Layers& L,
                    std::vector<MatrixInfo>& inputs) {
  std::vector<CsrPtr> mats;
  for (int k = 0; k < kStructures; ++k) {
    mats.push_back(make_structure(k, o.seed));
    inputs.push_back(info_of(std::string(kind_name(k)) + "#" +
                                 std::to_string(k),
                             *mats.back()));
  }
  const auto xpool = make_xpool(mats, o.seed);
  const spmv::core::HeuristicPredictor pred;
  spmv::serve::ServiceOptions so;
  so.backend = kNative;
  so.format = kAuto;
  const int clients = std::min(4, load_threads());

  // Set-up: construction plus one request per structure, least popular
  // first, so the cache ends holding the most popular ones.
  std::unique_ptr<Service> svc;
  std::vector<double> setups;
  for (int rep = 0; rep < (o.trace ? 1 : 9); ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<Service>(pred, so);
    for (int k = kStructures - 1; k >= 0; --k) {
      const CsrPtr& m = mats[static_cast<std::size_t>(k)];
      (void)svc->run(m, std::vector<Scalar>(xpool.begin(),
                                            xpool.begin() + m->cols()));
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  ServeClient load{*svc, mats, xpool,
                     make_streams(clients, mats.size(), kZipfS, kSpmmWidth,
                                  o.seed)};
  RunResult r;
  std::vector<LoopResult> loops;
  spmv::prof::ServeStats before;
  if (!o.trace) {
    loops.push_back(
        closed_loop(clients, o.seconds, kTailSamples, std::ref(load)));
    end_to_end(loops.back(), setups, r);
  } else {
    loops.push_back(closed_loop(clients, o.seconds / 2, 0, std::ref(load)));
    SpanRecorder::instance().set_enabled(true);
    before = svc->stats();
    loops.push_back(closed_loop(clients, o.seconds / 2, 0, std::ref(load)));
    loop_layers(loops[0], loops[1], L);
  }
  const auto after = svc->stats();
  svc.reset();
  std::vector<const LoopResult*> lp;
  for (const LoopResult& l : loops) lp.push_back(&l);
  account(lp, all_checks(lp), r);
  if (!o.trace) return r;

  std::vector<PlanProbe> probes;
  for (const CsrPtr& m : mats) probes.push_back(probe_plan(*m, pred, 5));
  const PlanProbe p = mean_probe(probes);
  plan_layers(p, L);
  const CacheProbe cache = probe_cache(mats, pred);
  serve_layers(before, after, loops[1], cache, L);
  probe_iter_layer(mats[0], pred, o.seed, L);
  probe_shard_layer(mats[0], pred, probes[0].plan_exec_ms, o.seed, L);
  return r;
}

/// shard_fanout: one mixed-regime matrix that fits in the L3 but not in
/// the summed L2s, split into nproc shards; bulk and interactive tenants.
/// The warm pass runs requests until the shards' lazy layouts exist, as
/// solve_stream's does.
RunResult shard_fanout(const RunOptions& o, Layers& L,
                       std::vector<MatrixInfo>& inputs) {
  // Regimes drawn per row (run 1), so the row mix, nnz and plan barely
  // move between seeds.
  constexpr index_t kRows = 200000;  // ~7.2M nnz
  const CsrPtr a = std::make_shared<const Csr>(spmv::gen::mixed_regime<Scalar>(
      kRows, kRows, 0.6, 0.32, 4, 30, 300, 1, derive_seed(o.seed, 1)));
  inputs.push_back(info_of("mixed_regime", *a));
  const auto x =
      positive_vector(static_cast<std::size_t>(kRows), derive_seed(o.seed, 3));
  const spmv::core::HeuristicPredictor pred;
  const int clients = std::min(4, load_threads());

  std::unique_ptr<Sharded> svc;
  std::vector<double> setups;
  for (int rep = 0; rep < (o.trace ? 1 : 9); ++rep) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<Sharded>(a, pred, shard_options());
    // Past the third execution of each shard, so its lazy layouts exist.
    for (int i = 0; i < 4; ++i) (void)svc->run("bulk", x);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  for (const auto& info : svc->shard_infos())
    std::printf("plan %s\n", info.plan.to_string().c_str());

  ShardClient load{*svc, x, a->nnz(), shard_tenants(clients)};
  RunResult r;
  std::vector<LoopResult> loops;
  if (!o.trace) {
    loops.push_back(
        closed_loop(clients, o.seconds, kTailSamples, std::ref(load)));
    end_to_end(loops.back(), setups, r);
  } else {
    loops.push_back(closed_loop(clients, o.seconds / 2, 0, std::ref(load)));
    SpanRecorder::instance().set_enabled(true);
    const auto before = svc->shard_infos();
    loops.push_back(closed_loop(clients, o.seconds / 2, 0, std::ref(load)));
    loop_layers(loops[0], loops[1], L);
    shard_layers(before, svc->shard_infos(), svc->stats(), loops[1], 0.0, L);
  }
  svc.reset();
  std::vector<const LoopResult*> lp;
  for (const LoopResult& l : loops) lp.push_back(&l);
  auto checks = all_checks(lp);
  for (Check& c : checks) c.a = a;
  account(lp, checks, r);
  if (!o.trace) return r;

  const PlanProbe p = probe_plan(*a, pred, 7);
  plan_layers(p, L);
  L["shard.unsharded_exec_ms"] = p.plan_exec_ms;
  const std::vector<CsrPtr> mats{a};
  const CacheProbe cache = probe_cache(mats, pred);
  probe_serve_layer(mats, pred, cache, o.seed, L);
  probe_iter_layer(a, pred, o.seed, L);
  return r;
}

struct Spec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of a traced run, in report order.
const std::vector<Spec>& per_layer_specs() {
  static const std::vector<Spec> specs = {
      {"plan.features_ms", "ms"},        {"plan.predict_ms", "ms"},
      {"plan.binning_ms", "ms"},         {"plan.build_ms", "ms"},
      {"fmt.layout_build_ms", "ms"},     {"fmt.layout_mb", "MB"},
      {"fmt.refresh_ms", "ms"},          {"exec.kernel_ms", "ms"},
      {"exec.dispatch_ms", "ms"},        {"exec.bins", "count"},
      {"exec.hot_bin_share", "frac"},    {"exec.spmm_ms_per_col", "ms"},
      {"exec.bytes_mb", "MB"},           {"exec.gbps", "GB/s"},
      {"exec.roof_frac", "frac"},        {"roof.triad_gbps", "GB/s"},
      {"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p99_ms", "ms"},
      {"serve.batch_width_mean", "count"},
      {"serve.cache_hit_rate", "frac"},  {"serve.planning_passes", "count"},
      {"serve.cache_get_hit_us", "us"},  {"serve.cache_get_miss_ms", "ms"},
      {"serve.exec_ms_per_batch", "ms"}, {"serve.unattributed_frac", "frac"},
      {"shard.exec_ms_mean", "ms"},      {"shard.exec_ms_max", "ms"},
      {"shard.imbalance", "ratio"},      {"shard.queue_wait_p50_ms", "ms"},
      {"shard.overhead_ms", "ms"},       {"shard.unsharded_exec_ms", "ms"},
      {"shard.interactive_p99_ms", "ms"},
      {"iter.planning_passes", "count"}, {"iter.layout_refreshes", "count"},
      {"proc.threads_peak", "count"},    {"bench.trace_overhead_frac", "frac"},
  };
  return specs;
}

std::string header_json(const RunOptions& o,
                        const std::vector<MatrixInfo>& inputs) {
  std::string h = "{\"workload\":\"" + o.workload +
                  "\",\"seed\":" + std::to_string(o.seed) +
                  ",\"nproc\":" + std::to_string(load_threads()) +
                  ",\"llc_bytes\":" + std::to_string(llc_bytes()) +
                  ",\"matrices\":[";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const MatrixInfo& m = inputs[i];
    h += (i > 0 ? "," : "") + std::string("{\"label\":\"") + m.label +
         "\",\"rows\":" + std::to_string(m.rows) +
         ",\"nnz\":" + std::to_string(m.nnz) +
         ",\"csr_bytes\":" + std::to_string(m.bytes) + "}";
  }
  return h + "]}";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solve_stream", "serve_mix",
                                                 "shard_fanout"};
  return names;
}

RunResult run_workload(const RunOptions& o) {
  using Fn = RunResult (*)(const RunOptions&, Layers&,
                           std::vector<MatrixInfo>&);
  Fn fn = nullptr;
  if (o.workload == "solve_stream") fn = solve_stream;
  if (o.workload == "serve_mix") fn = serve_mix;
  if (o.workload == "shard_fanout") fn = shard_fanout;
  if (fn == nullptr)
    throw std::invalid_argument("unknown workload '" + o.workload + "'");

  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "llc_bytes=%zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, load_threads(), llc_bytes());
  Layers L;
  std::vector<MatrixInfo> inputs;
  RunResult r = fn(o, L, inputs);
  print_inputs(inputs);
  if (!o.trace) return r;

  const TriadResult roof = stream_triad();
  std::printf("roof: STREAM triad %.3f GB/s over 3 arrays of %zu bytes "
              "(LLC %zu bytes)\n",
              roof.gbps, roof.array_bytes, roof.llc_bytes);
  L["roof.triad_gbps"] = roof.gbps;
  L["exec.gbps"] = L["exec.bytes_mb"] / L["exec.plan_ms"];
  L["exec.roof_frac"] = roof.gbps > 0 ? L["exec.gbps"] / roof.gbps : 0.0;
  std::printf("exec.bytes_mb, exec.gbps and exec.roof_frac are computed "
              "from the bytes model, not measured\n");

  for (const Spec& s : per_layer_specs()) {
    const auto it = L.find(s.name);
    if (it == L.end())
      throw std::logic_error(std::string("per-layer metric not measured: ") +
                             s.name);
    r.metrics.push_back({s.name, it->second, s.unit});
  }
  if (!o.spans_path.empty() &&
      !SpanRecorder::instance().write(o.spans_path, header_json(o, inputs)))
    std::printf("warning: could not write spans to %s\n",
                o.spans_path.c_str());
  return r;
}

}  // namespace perfbench
