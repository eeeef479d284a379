// bench serve_throughput — the serving-layer headline number: requests/sec
// of the plan-cached, multi-vector-batched SpmvService vs naive per-request
// plan-and-run (what a client without the serving layer would do: build an
// AutoSpmv for its matrix, run once, throw it away). Same client count on
// both sides; the service additionally amortizes planning through the
// PlanCache and CSR traversals through batching.
//
// Each side is measured --reps times and the best wall is reported (the
// usual defence against scheduler noise on loaded hosts).
//
//   serve_throughput [--rows N] [--requests R] [--clients C] [--workers W]
//                    [--max-batch B] [--reps K]
//                    [--format csr|auto] [--short-rows] [--profile out.json]
//                    [--json BENCH_serve.json] [--metrics-out metrics.txt]
//                    [--obs-dir dir] [--trace out.trace.json]
//                    [--trace-sample N] [--plan-store store.json]
//
// Both sides plan and run on the native backend, the one serving executes.
// --format auto lets the fmt estimator stamp per-bin physical layouts onto
// fresh plans (see src/fmt/); --short-rows swaps the workload to
// short-row-only matrices (fixed degree 6 / narrow band), the ELL-friendly
// profile. --json writes a compact machine-readable summary (config,
// format, naive/serve requests-per-second and GFLOP/s, speedup,
// request-latency p50/p95/p99, queue-wait p95 and batch-exec p50 — the
// latencies the perf trajectory gates) for CI artifact upload — the CI job
// runs it once per format mode and uploads the set for comparison —
// alongside the full --profile RunProfile.
//
// Telemetry, in both modes: --trace writes a Chrome trace-event file
// (chrome://tracing or Perfetto) with one request in --trace-sample N
// traced; --metrics-out writes the Prometheus exposition (latency
// histograms carry exemplars); --obs-dir streams spans/stats into rotating
// JSONL segments (spmv::obs) while the bench runs. Any of the three turns
// tracing on, so the exemplars and segments have spans to point at.
// --plan-store warm-starts every service the bench builds from a persistent
// plan store and flushes tuned plans back on shutdown, so a second run over
// the same store skips planning (warm hits, 0 planning passes). Planning
// and the flush both happen off the clock.
//
// Sharded mode (--shards K and/or --tenants T): instead of many matrices
// through SpmvService, ONE large mixed-regime matrix is served row-
// partitioned through spmv::shard::ShardedService — K shards each with its
// own plan and thread share, tenant-weighted fair admission in front. The
// bench measures K=1 and K=shards back to back and reports the shard
// speedup, per-shard GFLOP/s, and per-tenant latency percentiles plus
// queue-full rejections; --json gains config.shards/config.tenants, scalar
// shard_speedup/sharded_rps, and per_shard/per_tenant arrays.
//
//   serve_throughput --shards 4 [--tenants 3] [--tenant-weights 4,1,1]
//                    [--tenant-share 15,1] [--queue-policy fair|fifo]
//                    [--queue-high-water N] [--long-deg D]
//                    [--workers W(per shard)] [--dispatch-window W] ...
//
// --tenant-share skews the OFFERED load (how many of the requests each
// tenant submits, weighted-round-robin interleaved); --tenant-weights sets
// the admission weights the fair queue SERVES by. A skewed share with equal
// weights is the fairness demo: under fifo the light tenant's p99 hides
// behind the heavy backlog, under fair it stays near its solo latency.
//
// --dispatch-window 0 (default) keeps the service's small window so the
// backlog waits in the fair queue where DRR ordering applies; deepen it on
// multicore hosts so shards stream consecutive requests through their
// cache-resident matrix slices.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

namespace {

/// Run `fn(request_index)` from `clients` threads until `count` requests
/// are claimed; returns wall seconds.
double run_clients(int clients, int count,
                   const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  util::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  return wall.elapsed_s();
}

/// The telemetry outputs both modes share (see the header comment).
/// Construction starts tracing when any output is asked for and attaches
/// the --obs-dir sink; stop() ends both once the services have joined.
class Telemetry {
 public:
  /// `sink_opts` carries the mode's ring layout; its directory is
  /// --obs-dir.
  Telemetry(const util::Cli& cli, obs::SinkOptions sink_opts)
      : trace_path_(cli.get("trace")),
        metrics_path_(cli.get("metrics-out")),
        obs_dir_(cli.get("obs-dir")) {
    if (!tracing()) return;
    trace::TraceConfig config;
    config.sample_every_n =
        static_cast<std::uint64_t>(cli.get_int("trace-sample", 1));
    trace::start(config);
    if (obs_dir_.empty()) return;
    sink_opts.directory = obs_dir_;
    sink_ = std::make_unique<obs::StreamingSink>(sink_opts);
    sink_->attach();
  }

  [[nodiscard]] obs::StreamingSink* sink() const { return sink_.get(); }

  /// Stop tracing and close the sink. The trace stream is accounted into
  /// `profile` — span counts AND the spans lost to ring wrap-around — so
  /// the artifact records its own holes.
  void stop(prof::RunProfile& profile) {
    if (!tracing()) return;
    trace::stop();
    const auto snap = trace::snapshot();
    profile.trace_stats.events = snap.events.size();
    profile.trace_stats.dropped_spans = snap.dropped;
    profile.trace_stats.threads = snap.threads;
    if (sink_ == nullptr) return;
    sink_->detach();  // workers joined, tracing stopped — no racing emits
    sink_->close();
    const auto ss = sink_->stats();
    std::string per_ring;
    for (std::size_t r = 0; r < ss.dropped_by_ring.size(); ++r) {
      if (r != 0) per_ring += "/";
      per_ring += std::to_string(ss.dropped_by_ring[r]);
    }
    std::printf("obs sink %s: %llu flushed, %llu dropped (per ring: %s), "
                "%zu segment(s)\n",
                obs_dir_.c_str(), static_cast<unsigned long long>(ss.flushed),
                static_cast<unsigned long long>(ss.dropped), per_ring.c_str(),
                sink_->segment_files().size());
  }

  /// Write the --trace and --metrics-out files; false when one cannot be
  /// written.
  [[nodiscard]] bool write(const prof::RunProfile& profile) const {
    if (!trace_path_.empty()) {
      try {
        trace::write_chrome_trace_file(trace_path_);
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return false;
      }
      std::printf("trace written to %s (%llu events across %lld threads, "
                  "%llu dropped)\n",
                  trace_path_.c_str(),
                  static_cast<unsigned long long>(profile.trace_stats.events),
                  static_cast<long long>(profile.trace_stats.threads),
                  static_cast<unsigned long long>(
                      profile.trace_stats.dropped_spans));
    }
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", metrics_path_.c_str());
        return false;
      }
      out << prof::prometheus_text(profile);
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    }
    return true;
  }

 private:
  [[nodiscard]] bool tracing() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !obs_dir_.empty();
  }

  std::string trace_path_;
  std::string metrics_path_;
  std::string obs_dir_;
  std::unique_ptr<obs::StreamingSink> sink_;
};

/// --plan-store: the persistent store every service the bench builds
/// shares, or nullptr without the flag.
std::unique_ptr<adapt::PlanStore> plan_store_from_cli(const util::Cli& cli) {
  const std::string path = cli.get("plan-store");
  if (path.empty()) return nullptr;
  return std::make_unique<adapt::PlanStore>(path);
}

/// Report how the recorded service started: warm hits from --plan-store
/// versus planning passes.
void print_store_use(const util::Cli& cli, const prof::ServeStats& s) {
  if (!cli.has("plan-store")) return;
  std::printf("plan store %s: %llu warm hit(s), %llu planning pass(es)\n",
              cli.get("plan-store").c_str(),
              static_cast<unsigned long long>(s.cache_warm_hits),
              static_cast<unsigned long long>(s.planning_passes));
}

/// The serve latencies the perf trajectory gates: request p50/p95/p99,
/// queue-wait p95 and batch-exec p50 (each block only when its histogram
/// recorded anything).
void set_latency_json(prof::Json& root, const prof::ServeStats& s) {
  if (!s.request_latency.empty()) {
    auto lat = prof::Json::object();
    lat.set("p50_s", s.request_latency.percentile(50));
    lat.set("p95_s", s.request_latency.percentile(95));
    lat.set("p99_s", s.request_latency.percentile(99));
    root.set("request_latency", std::move(lat));
  }
  if (!s.queue_wait.empty()) {
    auto wait = prof::Json::object();
    wait.set("p95_s", s.queue_wait.percentile(95));
    root.set("queue_wait", std::move(wait));
  }
  if (!s.batch_exec.empty()) {
    auto exec = prof::Json::object();
    exec.set("p50_s", s.batch_exec.percentile(50));
    root.set("batch_exec", std::move(exec));
  }
}

/// --shards mode: one ≥1M-nnz-capable mixed-regime matrix served through
/// spmv::shard::ShardedService; measures K=1 vs K=shards and the tenant
/// roster's fairness counters. See the header comment for the flags.
int run_sharded(const util::Cli& cli) {
  const auto rows = static_cast<index_t>(cli.get_int("rows", 30000));
  const int requests = static_cast<int>(cli.get_int("requests", 96));
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int shards = std::max(1, static_cast<int>(cli.get_int("shards", 4)));
  const int tenants = std::max(1, static_cast<int>(cli.get_int("tenants", 1)));
  const int workers = std::max(1, static_cast<int>(cli.get_int("workers", 1)));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const auto long_deg = static_cast<index_t>(cli.get_int("long-deg", 300));
  // 0 = the service's small default (backlog stays in the fair queue).
  // Deepen it on multicore hosts to let shards stream consecutive requests
  // through their cache-resident matrix slices.
  const auto dispatch_window =
      static_cast<std::size_t>(cli.get_int("dispatch-window", 0));
  const auto high_water = static_cast<std::size_t>(
      cli.get_int("queue-high-water", 2 * requests + 16));
  const fmt::FormatMode format = format_from_cli(cli);
  const shard::QueuePolicy policy =
      shard::queue_policy_from_name(cli.get("queue-policy", "fair"));

  // Tenant roster tenant0..tenantT-1; --tenant-weights is CSV, missing
  // entries default to weight 1.
  std::vector<shard::TenantSpec> specs;
  {
    std::vector<double> weights;
    std::istringstream ws(cli.get("tenant-weights"));
    for (std::string tok; std::getline(ws, tok, ',');)
      if (!tok.empty()) weights.push_back(std::stod(tok));
    for (int t = 0; t < tenants; ++t) {
      shard::TenantSpec spec;
      spec.name = "tenant" + std::to_string(t);
      if (static_cast<std::size_t>(t) < weights.size())
        spec.weight = weights[static_cast<std::size_t>(t)];
      specs.push_back(std::move(spec));
    }
  }

  obs::SinkOptions sink_opts;
  // One producer ring per shard partition plus ring 0 for everyone else.
  sink_opts.producer_groups = static_cast<std::size_t>(shards) + 1;
  Telemetry telemetry(cli, sink_opts);
  const auto store = plan_store_from_cli(cli);

  const auto mat = std::make_shared<const CsrMatrix<float>>(
      gen::mixed_regime<float>(rows, rows, 0.6, 0.32, 4, 30, long_deg, 64, 7));

  std::printf("=== bench serve_throughput --shards (rows=%d, nnz=%lld, "
              "requests=%d, clients=%d, shards=%d, tenants=%d, "
              "workers/shard=%d, format=%s, policy=%s) ===\n\n",
              rows, static_cast<long long>(mat->nnz()), requests, clients,
              shards, tenants, workers, fmt::format_mode_cname(format),
              shard::queue_policy_name(policy));

  std::vector<std::vector<float>> req_x;
  for (int i = 0; i < requests; ++i)
    req_x.push_back(random_x(static_cast<std::size_t>(mat->cols()),
                             static_cast<std::uint64_t>(1000 + i)));

  // Offered-load mix: request i belongs to req_tenant[i]. Default is a
  // uniform round-robin; --tenant-share CSV interleaves proportionally
  // (weighted round-robin, so a 15,1 split still spreads the light
  // tenant's requests across the whole stream).
  std::vector<std::size_t> req_tenant(static_cast<std::size_t>(requests));
  {
    std::vector<double> shares;
    std::istringstream ss(cli.get("tenant-share"));
    for (std::string tok; std::getline(ss, tok, ',');)
      if (!tok.empty()) shares.push_back(std::max(0.0, std::stod(tok)));
    shares.resize(static_cast<std::size_t>(tenants), 1.0);
    double total = 0.0;
    for (double s : shares) total += s;
    if (total <= 0.0) {
      shares.assign(static_cast<std::size_t>(tenants), 1.0);
      total = static_cast<double>(tenants);
    }
    std::vector<double> deficit(static_cast<std::size_t>(tenants), 0.0);
    for (int i = 0; i < requests; ++i) {
      std::size_t pick = 0;
      for (std::size_t t = 0; t < deficit.size(); ++t) {
        deficit[t] += shares[t];
        if (deficit[t] > deficit[pick]) pick = t;
      }
      deficit[pick] -= total;
      req_tenant[static_cast<std::size_t>(i)] = pick;
    }
  }

  core::HeuristicPredictor pred;

  auto make_opts = [&](int k) {
    shard::ShardedOptions sopts;
    sopts.partition.shards = k;
    sopts.tenants = specs;
    sopts.queue_policy = policy;
    sopts.queue_high_water = high_water;
    sopts.dispatch_window = dispatch_window;
    sopts.workers_per_shard = workers;
    sopts.format = format;
    sopts.plan_store = store.get();
    return sopts;
  };

  // Correctness gate (off-clock): sharded scatter-gather and unsharded
  // results must both track the double-precision reference.
  {
    const std::vector<double> exact =
        kernels::spmv_exact(*mat, std::span<const float>(req_x[0]));
    shard::ShardedService<float> many(mat, pred, make_opts(shards));
    const std::vector<float> y_many = many.run(specs[0].name, req_x[0]);
    many.shutdown();
    shard::ShardedService<float> one(mat, pred, make_opts(1));
    const std::vector<float> y_one = one.run(specs[0].name, req_x[0]);
    one.shutdown();
    double err_many = 0.0;
    double err_one = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const double scale = std::max(1.0, std::abs(exact[i]));
      err_many = std::max(
          err_many, std::abs(static_cast<double>(y_many[i]) - exact[i]) / scale);
      err_one = std::max(
          err_one, std::abs(static_cast<double>(y_one[i]) - exact[i]) / scale);
    }
    std::printf("correctness: max rel err vs reference — sharded %.2e, "
                "unsharded %.2e\n\n", err_many, err_one);
    if (err_many > 1e-3 || err_one > 1e-3) {
      std::fprintf(stderr, "FAIL: serving result diverges from reference\n");
      return 1;
    }
  }

  prof::ServeStats stats;  // best recorded (K=shards) rep
  int accepted_best = requests;

  // Best-of-reps wall for a K-shard service over the full request stream.
  // `record` keeps the best rep's stats/shard infos and streams to the sink.
  auto measure = [&](int k, bool record) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      shard::ShardedOptions sopts = make_opts(k);
      sopts.obs_sink = record ? telemetry.sink() : nullptr;
      shard::ShardedService<float> service(mat, pred, sopts);
      // Planning happened at construction; one request settles the
      // pipeline off-clock.
      (void)service.run(specs[0].name, req_x[0]);
      std::vector<std::future<std::vector<float>>> futs(
          static_cast<std::size_t>(requests));
      std::vector<char> ok(static_cast<std::size_t>(requests), 0);
      util::Timer wall;
      run_clients(clients, requests, [&](int i) {
        try {
          futs[static_cast<std::size_t>(i)] = service.submit(
              specs[req_tenant[static_cast<std::size_t>(i)]].name,
              req_x[static_cast<std::size_t>(i)]);
          ok[static_cast<std::size_t>(i)] = 1;
        } catch (const serve::QueueFullError&) {
          // shed: the service counts the bounce against the tenant
        }
      });
      int accepted = 0;
      for (int i = 0; i < requests; ++i) {
        if (ok[static_cast<std::size_t>(i)]) {
          (void)futs[static_cast<std::size_t>(i)].get();
          accepted += 1;
        }
      }
      const double wall_s = wall.elapsed_s();
      prof::ServeStats rep_stats = service.stats();
      service.shutdown();
      if (wall_s < best) {
        best = wall_s;
        if (record) {
          stats = std::move(rep_stats);
          accepted_best = accepted;
        }
      }
    }
    return best;
  };

  const double single_s = measure(1, false);
  const double sharded_s = measure(shards, true);

  prof::RunProfile profile;
  profile.label = "serve_throughput_sharded";
  profile.serve = stats;
  telemetry.stop(profile);

  const double flops = 2.0 * static_cast<double>(mat->nnz());
  const double single_rps = requests / single_s;
  const double sharded_rps = accepted_best / sharded_s;
  const double single_gflops = flops * requests / single_s * 1e-9;
  const double sharded_gflops = flops * accepted_best / sharded_s * 1e-9;

  std::printf("%-26s %14s %14s %10s\n", "strategy", "wall[ms]", "requests/s",
              "GFLOP/s");
  rule(69);
  std::printf("%-26s %14.1f %14.1f %10.2f\n", "ShardedService (K=1)",
              1e3 * single_s, single_rps, single_gflops);
  char sharded_label[32];
  std::snprintf(sharded_label, sizeof(sharded_label), "ShardedService (K=%d)",
                shards);
  std::printf("%-26s %14.1f %14.1f %10.2f\n", sharded_label, 1e3 * sharded_s,
              sharded_rps, sharded_gflops);
  rule(69);
  std::printf("shard speedup: %.2fx requests/s (K=%d vs K=1)\n\n",
              sharded_rps / single_rps, shards);

  for (const auto& sh : stats.shards) {
    const double g = sh.exec_total_s > 0.0
                         ? 2.0 * static_cast<double>(sh.nnz) *
                               static_cast<double>(sh.executions) /
                               sh.exec_total_s * 1e-9
                         : 0.0;
    std::printf("  shard %d: rows [%lld, %lld)  %lld nnz  %llu exec(s)  "
                "%.2f GFLOP/s  %llu promotion(s)\n",
                sh.shard, static_cast<long long>(sh.row_begin),
                static_cast<long long>(sh.row_end),
                static_cast<long long>(sh.nnz),
                static_cast<unsigned long long>(sh.executions), g,
                static_cast<unsigned long long>(sh.promotions));
  }

  std::printf("\n%-10s %7s %9s %9s %11s %11s %11s\n", "tenant", "weight",
              "accepted", "rejected", "p50[ms]", "p95[ms]", "p99[ms]");
  rule(73);
  for (const auto& t : stats.tenants) {
    std::printf("%-10s %7.2f %9llu %9llu %11.3f %11.3f %11.3f\n",
                t.name.c_str(), t.weight,
                static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.rejected),
                1e3 * t.latency.percentile(50), 1e3 * t.latency.percentile(95),
                1e3 * t.latency.percentile(99));
  }
  std::printf("\n");
  print_store_use(cli, stats);

  write_profile(cli, profile);
  if (!telemetry.write(profile)) return 1;

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto config = prof::Json::object();
    config.set("rows", static_cast<std::int64_t>(rows));
    config.set("requests", static_cast<std::int64_t>(requests));
    config.set("clients", static_cast<std::int64_t>(clients));
    config.set("shards", static_cast<std::int64_t>(shards));
    config.set("tenants", static_cast<std::int64_t>(tenants));
    config.set("workers_per_shard", static_cast<std::int64_t>(workers));
    config.set("reps", static_cast<std::int64_t>(reps));
    config.set("long_deg", static_cast<std::int64_t>(long_deg));
    config.set("dispatch_window", static_cast<std::int64_t>(dispatch_window));
    config.set("queue_high_water", static_cast<std::int64_t>(high_water));
    config.set("format", std::string(fmt::format_mode_cname(format)));
    config.set("queue_policy", std::string(shard::queue_policy_name(policy)));
    auto root = prof::Json::object();
    root.set("bench", "serve_throughput");
    root.set("mode", "sharded");
    root.set("config", std::move(config));
    root.set("nnz", static_cast<std::int64_t>(mat->nnz()));
    root.set("single_shard_rps", single_rps);
    root.set("sharded_rps", sharded_rps);
    root.set("single_shard_gflops", single_gflops);
    root.set("sharded_gflops", sharded_gflops);
    root.set("shard_speedup", sharded_rps / single_rps);
    root.set("rejected", stats.rejected);
    set_latency_json(root, stats);
    // Arrays are trajectory-invisible (the flattener skips them) but CI
    // artifacts and humans read them.
    auto per_shard = prof::Json::array();
    for (const auto& sh : stats.shards) {
      auto sj = prof::Json::object();
      sj.set("shard", static_cast<std::int64_t>(sh.shard));
      sj.set("nnz", sh.nnz);
      sj.set("executions", sh.executions);
      sj.set("gflops", sh.exec_total_s > 0.0
                           ? 2.0 * static_cast<double>(sh.nnz) *
                                 static_cast<double>(sh.executions) /
                                 sh.exec_total_s * 1e-9
                           : 0.0);
      sj.set("promotions", sh.promotions);
      per_shard.push_back(std::move(sj));
    }
    root.set("per_shard", std::move(per_shard));
    auto per_tenant = prof::Json::array();
    for (const auto& t : stats.tenants) {
      auto tj = prof::Json::object();
      tj.set("tenant", t.name);
      tj.set("weight", t.weight);
      tj.set("accepted", t.requests);
      tj.set("rejected", t.rejected);
      if (!t.latency.empty()) {
        tj.set("p50_s", t.latency.percentile(50));
        tj.set("p95_s", t.latency.percentile(95));
        tj.set("p99_s", t.latency.percentile(99));
      }
      per_tenant.push_back(std::move(tj));
    }
    root.set("per_tenant", std::move(per_tenant));
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << root.dump() << "\n";
    std::printf("bench summary written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  // --shards/--tenants routes to the row-sharded serving bench (one large
  // matrix through spmv::shard) instead of the multi-matrix SpmvService
  // bench below.
  if (cli.get_int("shards", 0) > 0 || cli.has("tenants"))
    return run_sharded(cli);
  const auto rows = static_cast<index_t>(cli.get_int("rows", 20000));
  const int requests = static_cast<int>(cli.get_int("requests", 128));
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int workers = static_cast<int>(cli.get_int("workers", 2));
  const int max_batch = static_cast<int>(cli.get_int("max-batch", 8));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const fmt::FormatMode format = format_from_cli(cli);
  const bool short_rows = cli.get_bool("short-rows", false);
  Telemetry telemetry(cli, obs::SinkOptions{});
  const auto store = plan_store_from_cli(cli);

  // Three recurring matrix structures, as a serving workload would see
  // (e.g. the same operators queried by many clients). --short-rows keeps
  // only short-row shapes (the format-comparison profile).
  std::vector<std::shared_ptr<const CsrMatrix<float>>> mats;
  if (!short_rows)
    mats.push_back(std::make_shared<const CsrMatrix<float>>(
        gen::power_law<float>(rows, rows, 2.0, 300, 1)));
  mats.push_back(std::make_shared<const CsrMatrix<float>>(
      gen::fixed_degree<float>(rows, rows, 6, 2)));
  mats.push_back(std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(rows, 8, 0.7, 3)));

  std::printf("=== bench serve_throughput (rows=%d, requests=%d, "
              "clients=%d, workers=%d, max_batch=%d, format=%s%s) ===\n\n",
              rows, requests, clients, workers, max_batch,
              fmt::format_mode_cname(format), short_rows ? ", short-rows" : "");

  // Pre-generate the request stream (matrix round-robin + input vector) so
  // neither side pays generation inside the timed region.
  std::vector<const CsrMatrix<float>*> req_mat_raw;
  std::vector<std::shared_ptr<const CsrMatrix<float>>> req_mat;
  std::vector<std::vector<float>> req_x;
  for (int i = 0; i < requests; ++i) {
    const auto& m = mats[static_cast<std::size_t>(i) % mats.size()];
    req_mat.push_back(m);
    req_mat_raw.push_back(m.get());
    req_x.push_back(
        random_x(static_cast<std::size_t>(m->cols()),
                 static_cast<std::uint64_t>(1000 + i)));
  }

  core::HeuristicPredictor pred;

  // --- Naive: every request plans its own runtime, runs one vector. ------
  double naive_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    naive_s = std::min(
        naive_s, run_clients(clients, requests, [&](int i) {
          const CsrMatrix<float>& a =
              *req_mat_raw[static_cast<std::size_t>(i)];
          const auto spmv = core::Tuner(a)
                                .predictor(pred)
                                .backend(exec::BackendKind::Native)
                                .formats(format)
                                .build();
          std::vector<float> y(static_cast<std::size_t>(a.rows()));
          spmv.run(req_x[static_cast<std::size_t>(i)], std::span<float>(y));
        }));
  }

  // --- Service: shared plan cache + multi-vector batching. ---------------
  prof::RunProfile profile;
  profile.label = "serve_throughput";
  serve::ServiceOptions opts;
  opts.workers = workers;
  opts.max_batch = max_batch;
  opts.queue_high_water = static_cast<std::size_t>(requests) + 16;
  opts.format = format;
  opts.profile = &profile;
  opts.plan_store = store.get();

  double serve_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    prof::RunProfile rep_profile;
    serve::ServiceOptions rep_opts = opts;
    rep_opts.profile = &rep_profile;
    rep_opts.obs_sink = telemetry.sink();
    serve::SpmvService<float> service(pred, rep_opts);
    // Warm the cache: planning cost is paid once per structure, off-clock
    // (a steady-state serving process has a warm cache).
    for (const auto& m : mats)
      (void)service.run(m, random_x(static_cast<std::size_t>(m->cols())));
    // Pipelined clients: submit without blocking, collect afterwards — the
    // queue depth this builds is what lets the workers form wide batches.
    std::vector<std::future<std::vector<float>>> futs(
        static_cast<std::size_t>(requests));
    util::Timer wall;
    run_clients(clients, requests, [&](int i) {
      futs[static_cast<std::size_t>(i)] =
          service.submit(req_mat[static_cast<std::size_t>(i)],
                         req_x[static_cast<std::size_t>(i)]);
    });
    for (auto& f : futs) (void)f.get();
    const double wall_s = wall.elapsed_s();
    service.shutdown();  // flush serve stats into `rep_profile`
    if (wall_s < serve_s) {
      serve_s = wall_s;
      profile.serve = rep_profile.serve;
    }
  }

  telemetry.stop(profile);

  const double naive_rps = requests / naive_s;
  const double serve_rps = requests / serve_s;
  // Work-normalized throughput: total flops of the request stream over the
  // wall.
  double total_flops = 0.0;
  for (const auto& m : req_mat)
    total_flops += 2.0 * static_cast<double>(m->nnz());
  const double naive_gflops = total_flops / naive_s * 1e-9;
  const double serve_gflops = total_flops / serve_s * 1e-9;
  const auto& s = profile.serve;
  // Mean width over everything recorded (includes the per-matrix warm-up
  // singles, which slightly understate the steady-state width).
  const double mean_width =
      s.batches == 0
          ? 0.0
          : static_cast<double>(s.requests) / static_cast<double>(s.batches);

  std::printf("%-26s %14s %14s %10s\n", "strategy", "wall[ms]", "requests/s",
              "GFLOP/s");
  rule(69);
  std::printf("%-26s %14.1f %14.1f %10.2f\n", "naive plan-and-run",
              1e3 * naive_s, naive_rps, naive_gflops);
  std::printf("%-26s %14.1f %14.1f %10.2f\n", "SpmvService (batched)",
              1e3 * serve_s, serve_rps, serve_gflops);
  rule(69);
  std::printf("speedup: %.2fx requests/s\n\n", serve_rps / naive_rps);

  std::printf("serve stats: %llu requests in %llu batches "
              "(mean width %.1f), cache hit rate %.0f%%, "
              "%llu plan-tier rebuild(s), %llu not admitted, "
              "mean queue wait %.3f ms\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.batches), mean_width,
              100.0 * s.cache_hit_rate(),
              static_cast<unsigned long long>(s.cache_plan_hits),
              static_cast<unsigned long long>(s.cache_not_admitted),
              s.requests == 0
                  ? 0.0
                  : 1e3 * s.queue_wait_total_s /
                        static_cast<double>(s.requests));
  std::printf("batch width histogram:");
  for (std::size_t w = 0; w < s.batch_width_hist.size(); ++w) {
    if (s.batch_width_hist[w] != 0)
      std::printf(" %zux%llu", w + 1,
                  static_cast<unsigned long long>(s.batch_width_hist[w]));
  }
  std::printf("\n");

  if (!s.request_latency.empty()) {
    std::printf("request latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
                1e3 * s.request_latency.percentile(50),
                1e3 * s.request_latency.percentile(95),
                1e3 * s.request_latency.percentile(99));
  }
  print_store_use(cli, s);

  write_profile(cli, profile);
  if (!telemetry.write(profile)) return 1;

  // --json: the machine-readable summary CI uploads and the regression gate
  // can diff across commits.
  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto config = prof::Json::object();
    config.set("rows", static_cast<std::int64_t>(rows));
    config.set("requests", static_cast<std::int64_t>(requests));
    config.set("clients", static_cast<std::int64_t>(clients));
    config.set("workers", static_cast<std::int64_t>(workers));
    config.set("max_batch", static_cast<std::int64_t>(max_batch));
    config.set("reps", static_cast<std::int64_t>(reps));
    config.set("format", std::string(fmt::format_mode_cname(format)));
    config.set("short_rows", short_rows);
    auto root = prof::Json::object();
    root.set("bench", "serve_throughput");
    root.set("config", std::move(config));
    root.set("naive_rps", naive_rps);
    root.set("serve_rps", serve_rps);
    root.set("naive_gflops", naive_gflops);
    root.set("serve_gflops", serve_gflops);
    root.set("speedup", serve_rps / naive_rps);
    root.set("batches", s.batches);
    root.set("cache_hit_rate", s.cache_hit_rate());
    set_latency_json(root, s);
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << root.dump() << "\n";
    std::printf("bench summary written to %s\n", json_path.c_str());
  }
  return 0;
}
