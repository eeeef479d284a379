// spmv_tool — command-line front end for the autospmv library.
//
// Subcommands:
//   info     --mtx F | --matrix NAME | --family NAME --rows N
//            print dimensions, Table-I features, and bin layout
//   tune     (same inputs) [--profile out.json]
//            exhaustively tune and print the per-U table
//   run      (same inputs) [--model M] [--reps K] [--profile out.json]
//            time auto vs serial/vector/csr-adaptive/merge/omp; --profile
//            writes the auto run's telemetry (plan-stage timings, per-bin
//            kernel timings, engine launch counters) as JSON
//   train    [--matrices N] [--out M] train a model on the synthetic corpus
//   gen      --family NAME --rows N --out F.mtx  write a synthetic matrix
//   serve-bench  (same inputs) [--requests R] [--clients C] [--workers W]
//            [--max-batch B] [--profile out.json] [--trace out.trace.json]
//            [--trace-sample N] [--metrics-out metrics.txt]
//            [--plan-store store.json] [--obs-dir dir]
//            drive an SpmvService with concurrent clients and compare its
//            throughput against naive per-request plan-and-run; --trace
//            writes a Chrome trace-event file (chrome://tracing/Perfetto)
//            of the traced requests (--trace-sample N traces one request
//            in N), --metrics-out a Prometheus text exposition of the
//            serve stats (latency histograms carry exemplars),
//            --plan-store warm-starts the plan cache from a persistent
//            store and flushes tuned plans back on shutdown, --obs-dir
//            streams completed spans and stat deltas into rotating JSONL
//            segment files (spmv::obs) as the bench runs.
//            With --shards K [--tenants T] the bench drives the row-sharded
//            ShardedService instead: K nnz-balanced shards each with its
//            own plan/arms/store entry, T tenants admitted through the
//            fair queue (--queue-policy fair|fifo, --tenant-weights 4,1,
//            --queue-high-water N); prints per-shard GFLOP/s and a
//            per-tenant table including queue-full rejections
//   adapt-bench  (same inputs) [--requests R] [--trial-fraction F]
//            [--workers W] [--store store.json] [--profile out.json]
//            [--explore-u] [--unit-fraction F]
//            start from a deliberately mispredicted plan and let the
//            online BanditTuner refine it in-flight: prints windowed
//            request throughput, promotion/trial counters, the refined
//            plan's GFLOP/s vs the exhaustive oracle, and a warm-restart
//            demo (warm hits > 0, planning passes == 0). --explore-u
//            additionally lets the tuner shadow-measure neighboring
//            binning granularities and promote whole re-binned plans
//            (U trials/promotions are printed separately)
//   plan-store ls|gc  --store store.json [--model-version V]
//            [--ttl-hours H]
//            ls: print load/skip accounting and every plan visible under
//            this device/model scope; gc: drop preserved foreign entries
//            (and, with --ttl-hours, own entries not used within H hours)
//            and rewrite the store file
//   compare-profiles  baseline.json current.json [--threshold 1.15]
//            diff two RunProfile artifacts (run time, per-bin kernel time,
//            serve percentiles); exits 1 when current regresses past the
//            threshold, 2 when the baseline carries metric sections the
//            current profile lost (schema mismatch — a renamed metric must
//            not read as "no regression") — the CI perf gate
//   perf-trajectory  append|check|render --file trajectory.json
//            append: --bench BENCH_x.json --label L  fold one benchmark
//            snapshot's numeric leaves into the committed trajectory file
//            check:  [--window 5] [--threshold 1.25] [--learned]  gate the
//            newest entry against the rolling window mean; exits 1 on
//            regression, 2 on schema drift (head entry lost metrics).
//            --learned gates each metric at max(threshold, (mean+3sigma)/
//            mean) of its own window — noisy metrics earn headroom, flat
//            ones tighten to the floor
//            render: [--out dashboard.md] [--window 20]  markdown +
//            sparkline dashboard of every tracked metric
//
// Examples:
//   spmv_tool train --matrices 120 --out model.txt
//   spmv_tool run --matrix crankseg_2 --model model.txt
//   spmv_tool run --matrix cant --profile cant.json
//   spmv_tool tune --family power_law --rows 50000
//   spmv_tool serve-bench --matrix cant --clients 8 --profile serve.json
//   spmv_tool serve-bench --matrix cant --trace cant.trace.json
//   spmv_tool serve-bench --matrix cant --plan-store plans.json
//   spmv_tool adapt-bench --matrix cant --store plans.json
//   spmv_tool plan-store ls --store plans.json
//   spmv_tool compare-profiles main.json pr.json --threshold 1.15
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "autospmv.hpp"

using namespace spmv;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spmv_tool "
               "<info|tune|run|train|gen|serve-bench|adapt-bench|"
               "plan-store|compare-profiles|perf-trajectory> [flags]\n"
               "  input flags: --mtx file.mtx | --matrix <table2 name> |\n"
               "               --family <corpus family> --rows N [--param P]\n"
               "  backend:     --backend clsim|native (run, tune,\n"
               "               serve-bench, adapt-bench; default clsim)\n"
               "  format:      --format csr|auto (run, serve-bench,\n"
               "               adapt-bench; per-bin physical layouts via\n"
               "               the fmt estimator; default csr)\n"
               "  run flags:   --model model.txt --reps K --profile out.json\n"
               "               --trace out.trace.json\n"
               "  tune flags:  --profile out.json\n"
               "  train flags: --matrices N --out model.txt\n"
               "  gen flags:   --out file.mtx --seed S\n"
               "  serve-bench flags: --requests R --clients C --workers W\n"
               "               --max-batch B --profile out.json\n"
               "               --trace out.trace.json --trace-sample N\n"
               "               --metrics-out m.txt --plan-store store.json\n"
               "               --obs-dir dir\n"
               "               sharded: --shards K --tenants T\n"
               "               --queue-policy fair|fifo --tenant-weights "
               "4,1\n"
               "               --queue-high-water N\n"
               "  adapt-bench flags: --requests R --trial-fraction F\n"
               "               --workers W --store store.json "
               "--profile out.json\n"
               "               --explore-u --unit-fraction F\n"
               "               --explore-backend --backend-fraction F\n"
               "               --explore-format --format-fraction F\n"
               "  plan-store:  ls|gc --store store.json [--model-version V]\n"
               "               [--ttl-hours H]\n"
               "  compare-profiles: baseline.json current.json "
               "[--threshold 1.15]\n"
               "  perf-trajectory: append|check|render --file t.json\n"
               "               append: --bench BENCH.json --label L\n"
               "               [--max-entries N]\n"
               "               check: [--window 5] [--threshold 1.25]\n"
               "               [--learned]\n"
               "               render: [--out dashboard.md] [--window 20]\n");
  return 2;
}

/// The uniform `--backend clsim|native` flag (run, tune, serve-bench,
/// adapt-bench and the fig benches all spell it the same way).
exec::BackendKind backend_from_cli(const util::Cli& cli) {
  return exec::backend_from_name(cli.get("backend", "clsim"));
}

/// The uniform `--format csr|auto` flag (run, serve-bench, adapt-bench).
fmt::FormatMode format_from_cli(const util::Cli& cli) {
  return fmt::format_mode_from_name(cli.get("format", "csr"));
}

/// One-line per-bin format provenance: which bins left CSR and for what.
void print_format_provenance(const core::Plan& plan) {
  if (!plan.uses_formats()) return;
  std::string desc;
  for (const auto& bp : plan.bin_kernels) {
    if (bp.format == fmt::FormatKind::Csr) continue;
    if (!desc.empty()) desc += ", ";
    desc += "bin " + std::to_string(bp.bin_id) + " -> " +
            fmt::format_cname(bp.format);
  }
  std::printf("formats: %s (other bins stay csr)\n", desc.c_str());
}

gen::Family family_from_name(const std::string& name) {
  for (int f = 0; f < static_cast<int>(gen::Family::kCount); ++f) {
    if (gen::family_name(static_cast<gen::Family>(f)) == name)
      return static_cast<gen::Family>(f);
  }
  throw std::invalid_argument("unknown family: " + name);
}

CsrMatrix<float> load_input(const util::Cli& cli) {
  const std::string mtx = cli.get("mtx");
  if (!mtx.empty()) {
    std::printf("input: %s\n", mtx.c_str());
    return coo_to_csr(read_matrix_market_file<float>(mtx));
  }
  const std::string name = cli.get("matrix");
  if (!name.empty()) {
    std::printf("input: Table-II analogue %s\n", name.c_str());
    return gen::make_representative<float>(name);
  }
  gen::CorpusSpec spec;
  spec.family = family_from_name(cli.get("family", "power_law"));
  spec.rows = static_cast<index_t>(cli.get_int("rows", 100000));
  spec.cols = spec.rows;
  spec.param = static_cast<index_t>(cli.get_int("param", 100));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  std::printf("input: synthetic %s, %d rows\n",
              gen::family_name(spec.family).c_str(), spec.rows);
  return gen::make_corpus_matrix<float>(spec);
}

void print_features(const CsrMatrix<float>& a) {
  const auto stats = compute_row_stats(a);
  const auto features = ml::stage1_features(stats);
  const auto& names = ml::stage1_attr_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("  %-8s = %.6g\n", names[i].c_str(), features[i]);
}

int cmd_info(const util::Cli& cli) {
  const auto a = load_input(cli);
  std::printf("\nTable-I features:\n");
  print_features(a);
  const auto unit = static_cast<index_t>(cli.get_int("unit", 100));
  const auto bins = binning::bin_matrix(a, unit);
  std::printf("\nbins at U=%d (%zu occupied):\n", unit,
              bins.occupied_bins().size());
  for (int b : bins.occupied_bins()) {
    std::printf("  bin %-3d: %8zu virtual rows, %9d rows\n", b,
                bins.bin(b).size(), bins.rows_in_bin(b));
  }
  return 0;
}

int cmd_tune(const util::Cli& cli) {
  const auto a = load_input(cli);
  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  auto pools = core::default_pools();
  pools.include_single_bin = cli.get_bool("single-bin", true);
  core::ExhaustiveOptions opts;
  opts.measure = {.warmup = 1, .reps = 3, .max_total_s = 0.5};

  const std::string profile_path = cli.get("profile");
  prof::RunProfile profile;
  profile.label = "spmv_tool tune";
  if (!profile_path.empty()) opts.profile = &profile;

  const auto backend = exec::shared_backend(backend_from_cli(cli));
  const auto result = core::exhaustive_tune(
      *backend, a, std::span<const float>(x), pools, opts);
  std::printf("\n%-12s %12s   %s\n", "candidate", "time[ms]",
              "per-bin kernels");
  for (const auto& ur : result.per_unit) {
    std::string label =
        ur.single_bin ? "single-bin" : "U=" + std::to_string(ur.unit);
    std::string kernels_str;
    for (const auto& bk : ur.bin_kernels) {
      if (!kernels_str.empty()) kernels_str += ", ";
      kernels_str += std::to_string(bk.bin_id) + ":" +
                     kernels::kernel_name(bk.kernel);
    }
    std::printf("%-12s %12.3f   {%s}\n", label.c_str(), 1e3 * ur.total_s,
                kernels_str.c_str());
  }
  std::printf("\nbest plan: %s (%.3f ms end-to-end)\n",
              result.best_plan.to_string().c_str(), 1e3 * result.best_s);
  if (!profile_path.empty()) {
    const auto stats = compute_row_stats(a);
    profile.rows = stats.rows;
    profile.cols = stats.cols;
    profile.nnz = stats.nnz;
    profile.plan = result.best_plan.to_string();
    prof::write_profile_file(profile_path, profile);
    std::printf("tuning profile written to %s\n", profile_path.c_str());
  }
  return 0;
}

int cmd_run(const util::Cli& cli) {
  const auto a = load_input(cli);
  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  const int reps = static_cast<int>(cli.get_int("reps", 10));
  const util::MeasureOptions mopts{.warmup = 2, .reps = reps,
                                   .max_total_s = 5.0};

  std::unique_ptr<core::Predictor> pred;
  const std::string model_path = cli.get("model");
  if (!model_path.empty()) {
    pred = std::make_unique<core::ModelPredictor>(
        core::load_model_file(model_path));
  } else {
    pred = std::make_unique<core::HeuristicPredictor>();
  }

  // Telemetry: --profile enables the engine counters and attaches a
  // RunProfile to the auto runtime, so every timed repetition below also
  // accumulates per-bin kernel wall time.
  const std::string profile_path = cli.get("profile");
  prof::RunProfile profile;
  profile.label = cli.get("matrix", cli.get("mtx", cli.get("family", "")));
  prof::set_enabled(!profile_path.empty());
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) trace::start();

  const exec::BackendKind backend_kind = backend_from_cli(cli);
  const auto backend = exec::shared_backend(backend_kind);
  const auto auto_spmv =
      core::Tuner(a)
          .predictor(*pred)
          .backend(backend_kind)
          .formats(format_from_cli(cli))
          .profile(profile_path.empty() ? nullptr : &profile)
          .build();
  std::printf("auto plan: %s (backend %s)\n",
              auto_spmv.plan().to_string().c_str(),
              exec::backend_cname(backend_kind));
  print_format_provenance(auto_spmv.plan());
  std::printf("\n");

  baseline::CsrAdaptive<float> adaptive(a, clsim::default_engine());
  struct Row {
    const char* name;
    double seconds;
  };
  std::vector<Row> rows;
  rows.push_back({"kernel-auto", util::measure([&] {
                    auto_spmv.run(x, std::span<float>(y));
                  }, mopts).best_s});
  rows.push_back({"kernel-serial", util::measure([&] {
                    backend->run_full(kernels::KernelId::Serial, a,
                                      std::span<const float>(x),
                                      std::span<float>(y));
                  }, mopts).best_s});
  rows.push_back({"kernel-vector", util::measure([&] {
                    backend->run_full(kernels::KernelId::Vector, a,
                                      std::span<const float>(x),
                                      std::span<float>(y));
                  }, mopts).best_s});
  rows.push_back({"csr-adaptive", util::measure([&] {
                    adaptive.run(std::span<const float>(x),
                                 std::span<float>(y));
                  }, mopts).best_s});
  rows.push_back({"merge", util::measure([&] {
                    baseline::spmv_merge(a, std::span<const float>(x),
                                         std::span<float>(y));
                  }, mopts).best_s});
  rows.push_back({"omp-csr", util::measure([&] {
                    kernels::spmv_omp_rows(a, std::span<const float>(x),
                                           std::span<float>(y));
                  }, mopts).best_s});

  std::printf("%-14s %12s %12s\n", "strategy", "time[ms]", "GFLOP/s");
  for (const auto& row : rows) {
    std::printf("%-14s %12.3f %12.2f\n", row.name, 1e3 * row.seconds,
                2.0 * static_cast<double>(a.nnz()) / row.seconds * 1e-9);
  }
  if (!profile_path.empty()) {
    prof::write_profile_file(profile_path, profile);
    std::printf("\nprofile written to %s (%llu runs recorded)\n",
                profile_path.c_str(),
                static_cast<unsigned long long>(profile.runs));
  }
  if (!trace_path.empty()) {
    trace::stop();
    const auto snap = trace::snapshot();
    trace::write_chrome_trace_file(trace_path);
    std::printf("trace written to %s (%zu events, %llu dropped)\n",
                trace_path.c_str(), snap.events.size(),
                static_cast<unsigned long long>(snap.dropped));
  }
  return 0;
}

int cmd_train(const util::Cli& cli) {
  gen::CorpusOptions copts;
  copts.count = static_cast<int>(cli.get_int("matrices", 100));
  copts.min_rows = static_cast<index_t>(cli.get_int("min-rows", 1500));
  copts.max_rows = static_cast<index_t>(cli.get_int("max-rows", 12000));
  core::TrainerOptions topts;
  topts.tune.measure = {.warmup = 1, .reps = 2, .max_total_s = 0.05};

  util::set_log_level(util::LogLevel::Info);
  core::TrainReport report;
  const auto model = core::train_model(gen::sample_corpus(copts), topts,
                                       clsim::default_engine(), &report);
  std::printf("stage 1: %.1f%% train / %.1f%% test error\n",
              100.0 * report.stage1_train_error,
              100.0 * report.stage1_test_error);
  std::printf("stage 2: %.1f%% train / %.1f%% test error\n",
              100.0 * report.stage2_train_error,
              100.0 * report.stage2_test_error);
  const std::string out = cli.get("out", "autospmv_model.txt");
  core::save_model_file(out, model);
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int cmd_gen(const util::Cli& cli) {
  const auto a = load_input(cli);
  const std::string out = cli.get("out");
  if (out.empty()) {
    std::fprintf(stderr, "gen: --out file.mtx required\n");
    return 2;
  }
  write_matrix_market_file(out, csr_to_coo(a));
  std::printf("wrote %s (%d x %d, %lld nnz)\n", out.c_str(), a.rows(),
              a.cols(), static_cast<long long>(a.nnz()));
  return 0;
}

// serve-bench --shards K [--tenants T]: the row-sharded serving mode. One
// matrix split into K nnz-balanced shards (each with its own plan, arms,
// and store entry), T admission tenants in front of the shard pool under
// the fair (or fifo) queue. Prints per-shard plans/GFLOP/s and a
// per-tenant table including queue-full rejections.
int cmd_serve_bench_sharded(const util::Cli& cli, int shards) {
  auto a = std::make_shared<const CsrMatrix<float>>(load_input(cli));
  const int requests = static_cast<int>(cli.get_int("requests", 64));
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int tenants = std::max(1, static_cast<int>(cli.get_int("tenants", 1)));

  std::unique_ptr<core::Predictor> pred;
  const std::string model_path = cli.get("model");
  if (!model_path.empty()) {
    pred = std::make_unique<core::ModelPredictor>(
        core::load_model_file(model_path));
  } else {
    pred = std::make_unique<core::HeuristicPredictor>();
  }

  prof::RunProfile profile;
  profile.label = cli.get("matrix", cli.get("mtx", cli.get("family", "")));
  shard::ShardedOptions opts;
  opts.partition.shards = shards;
  // --tenant-weights 4,1,1 — weights in tenant order; missing entries
  // default to 1 (equal share).
  {
    std::istringstream weights(cli.get("tenant-weights"));
    for (int t = 0; t < tenants; ++t) {
      double w = 1.0;
      std::string tok;
      if (std::getline(weights, tok, ',') && !tok.empty()) w = std::stod(tok);
      opts.tenants.push_back({"tenant" + std::to_string(t), w});
    }
  }
  opts.queue_policy =
      shard::queue_policy_from_name(cli.get("queue-policy", "fair"));
  opts.queue_high_water = static_cast<std::size_t>(
      cli.get_int("queue-high-water", requests + 16));
  opts.workers_per_shard = static_cast<int>(cli.get_int("workers", 1));
  opts.backend = backend_from_cli(cli);
  opts.format = format_from_cli(cli);
  opts.profile = &profile;
  std::unique_ptr<adapt::PlanStore> store;
  const std::string store_path = cli.get("plan-store");
  if (!store_path.empty()) {
    store = std::make_unique<adapt::PlanStore>(store_path);
    opts.plan_store = store.get();
  }
  const std::string obs_dir = cli.get("obs-dir");
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty() || !obs_dir.empty()) {
    trace::TraceConfig tconfig;
    tconfig.sample_every_n =
        static_cast<std::uint64_t>(cli.get_int("trace-sample", 1));
    trace::start(tconfig);
  }
  std::unique_ptr<obs::StreamingSink> sink;
  if (!obs_dir.empty()) {
    obs::SinkOptions sopts;
    sopts.directory = obs_dir;
    // One ring per shard partition plus ring 0 for non-shard threads.
    sopts.producer_groups = static_cast<std::size_t>(shards) + 1;
    sink = std::make_unique<obs::StreamingSink>(sopts);
    sink->attach();
    opts.obs_sink = sink.get();
  }

  std::vector<std::vector<float>> xs;
  xs.reserve(static_cast<std::size_t>(requests));
  util::Xoshiro256 rng(7);
  for (int i = 0; i < requests; ++i) {
    std::vector<float> x(static_cast<std::size_t>(a->cols()));
    for (auto& v : x) v = static_cast<float>(rng.uniform(0.5, 1.5));
    xs.push_back(std::move(x));
  }

  double serve_s = 0.0;
  prof::ServeStats live;
  {
    shard::ShardedService<float> service(a, *pred, opts);
    std::printf("\npartition: %d shard(s) over %lld rows / %lld nnz\n",
                service.shard_count(), static_cast<long long>(a->rows()),
                static_cast<long long>(a->nnz()));
    for (const auto& info : service.shard_infos()) {
      std::printf("  shard %d: rows [%d, %d)  %10lld nnz%s  %s\n", info.index,
                  info.range.row_begin, info.range.row_end,
                  static_cast<long long>(info.range.nnz),
                  info.warm_start ? "  (warm)" : "", info.plan.to_string().c_str());
    }

    std::atomic<int> next{0};
    std::vector<std::future<std::vector<float>>> futs(
        static_cast<std::size_t>(requests));
    std::vector<char> ok(static_cast<std::size_t>(requests), 0);
    util::Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests) return;
          const std::string tenant = "tenant" + std::to_string(i % tenants);
          try {
            futs[static_cast<std::size_t>(i)] =
                service.submit(tenant, xs[static_cast<std::size_t>(i)]);
            ok[static_cast<std::size_t>(i)] = 1;
          } catch (const serve::QueueFullError&) {
            // Bounced by admission (global or tenant quota) — counted in
            // the tenant's stats block; the bench just sheds it.
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < futs.size(); ++i)
      if (ok[i] != 0) (void)futs[i].get();
    serve_s = wall.elapsed_s();
    live = service.stats();
    service.shutdown();
  }
  if (!trace_path.empty() || !obs_dir.empty()) {
    trace::stop();
    const auto snap = trace::snapshot();
    profile.trace_stats.events = snap.events.size();
    profile.trace_stats.dropped_spans = snap.dropped;
    profile.trace_stats.threads = snap.threads;
  }
  if (sink != nullptr) {
    sink->detach();
    sink->close();
    const auto ss = sink->stats();
    std::string per_ring;
    for (std::size_t r = 0; r < ss.dropped_by_ring.size(); ++r)
      per_ring += (r == 0 ? "" : "/") + std::to_string(ss.dropped_by_ring[r]);
    std::printf("obs sink %s: %llu record(s) flushed into %zu segment(s), "
                "%llu dropped (per ring: %s)\n",
                obs_dir.c_str(), static_cast<unsigned long long>(ss.flushed),
                sink->segment_files().size(),
                static_cast<unsigned long long>(ss.dropped), per_ring.c_str());
  }

  std::printf("\n%d request(s) in %.1f ms — %.1f requests/s "
              "(%d tenant(s), %s queue)\n",
              static_cast<int>(live.requests), 1e3 * serve_s,
              static_cast<double>(live.requests) / serve_s, tenants,
              shard::queue_policy_name(opts.queue_policy));
  std::printf("\n%-10s %14s %12s %10s %8s\n", "shard", "nnz", "execs",
              "GFLOP/s", "promos");
  for (const auto& sh : live.shards) {
    const double gf =
        sh.exec_total_s > 0.0
            ? 2.0 * static_cast<double>(sh.nnz) *
                  static_cast<double>(sh.executions) / sh.exec_total_s * 1e-9
            : 0.0;
    std::printf("%-10d %14lld %12llu %10.2f %8llu\n", sh.shard,
                static_cast<long long>(sh.nnz),
                static_cast<unsigned long long>(sh.executions), gf,
                static_cast<unsigned long long>(sh.promotions));
  }
  std::printf("\n%-12s %8s %10s %10s %12s %12s %12s\n", "tenant", "weight",
              "accepted", "rejected", "p50[ms]", "p95[ms]", "p99[ms]");
  for (const auto& t : live.tenants) {
    std::printf("%-12s %8.2f %10llu %10llu %12.3f %12.3f %12.3f\n",
                t.name.c_str(), t.weight,
                static_cast<unsigned long long>(t.requests),
                static_cast<unsigned long long>(t.rejected),
                1e3 * t.latency.percentile(50), 1e3 * t.latency.percentile(95),
                1e3 * t.latency.percentile(99));
  }
  if (store != nullptr) {
    std::printf("\nplan store %s: %llu warm start(s), %llu planning "
                "pass(es)\n",
                store_path.c_str(),
                static_cast<unsigned long long>(live.cache_warm_hits),
                static_cast<unsigned long long>(live.planning_passes));
  }
  const std::string profile_path = cli.get("profile");
  if (!profile_path.empty()) {
    prof::write_profile_file(profile_path, profile);
    std::printf("serve profile written to %s\n", profile_path.c_str());
  }
  if (!trace_path.empty()) {
    const auto snap = trace::snapshot();
    trace::write_chrome_trace_file(trace_path);
    std::printf("trace written to %s (%zu events across %d threads, %llu "
                "dropped)\n",
                trace_path.c_str(), snap.events.size(), snap.threads,
                static_cast<unsigned long long>(snap.dropped));
  }
  const std::string metrics_path = cli.get("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) throw std::runtime_error("cannot open " + metrics_path);
    out << prof::prometheus_text(profile);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

int cmd_serve_bench(const util::Cli& cli) {
  if (const int shards = static_cast<int>(cli.get_int("shards", 1));
      shards > 1 || cli.has("tenants"))
    return cmd_serve_bench_sharded(cli, std::max(1, shards));
  auto a = std::make_shared<const CsrMatrix<float>>(load_input(cli));
  const int requests = static_cast<int>(cli.get_int("requests", 64));
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const int workers = static_cast<int>(cli.get_int("workers", 2));
  const int max_batch = static_cast<int>(cli.get_int("max-batch", 8));

  std::unique_ptr<core::Predictor> pred;
  const std::string model_path = cli.get("model");
  if (!model_path.empty()) {
    pred = std::make_unique<core::ModelPredictor>(
        core::load_model_file(model_path));
  } else {
    pred = std::make_unique<core::HeuristicPredictor>();
  }

  std::vector<std::vector<float>> xs;
  xs.reserve(static_cast<std::size_t>(requests));
  util::Xoshiro256 rng(7);
  for (int i = 0; i < requests; ++i) {
    std::vector<float> x(static_cast<std::size_t>(a->cols()));
    for (auto& v : x) v = static_cast<float>(rng.uniform(0.5, 1.5));
    xs.push_back(std::move(x));
  }

  // Claim request indices from `clients` threads; returns wall seconds.
  const auto drive = [&](const std::function<void(int)>& fn) {
    std::atomic<int> next{0};
    util::Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests) return;
          fn(i);
        }
      });
    }
    for (auto& t : threads) t.join();
    return wall.elapsed_s();
  };

  const double naive_s = drive([&](int i) {
    const auto spmv = core::Tuner(*a)
                          .predictor(*pred)
                          .backend(backend_from_cli(cli))
                          .formats(format_from_cli(cli))
                          .build();
    std::vector<float> y(static_cast<std::size_t>(a->rows()));
    spmv.run(xs[static_cast<std::size_t>(i)], std::span<float>(y));
  });

  prof::RunProfile profile;
  profile.label = cli.get("matrix", cli.get("mtx", cli.get("family", "")));
  serve::ServiceOptions opts;
  opts.workers = workers;
  opts.max_batch = max_batch;
  opts.queue_high_water = static_cast<std::size_t>(requests) + 16;
  opts.backend = backend_from_cli(cli);
  opts.format = format_from_cli(cli);
  opts.profile = &profile;
  // --plan-store warm-starts the cache from disk (and flushes plans back
  // on shutdown), so a repeated bench run skips the planning pass.
  std::unique_ptr<adapt::PlanStore> store;
  const std::string store_path = cli.get("plan-store");
  if (!store_path.empty()) {
    store = std::make_unique<adapt::PlanStore>(store_path);
    opts.plan_store = store.get();
  }
  // --trace records the served half of the bench (submit -> queue ->
  // batch-claim -> execute -> complete, request-id-correlated across the
  // worker threads) as a Chrome trace-event file. --trace-sample N keeps
  // one request in N so long benches stay within the ring buffers.
  // --obs-dir streams spans/stats continuously. The sink needs tracing on
  // to see spans, so it implies --trace-style recording even without a
  // Chrome-trace output path.
  const std::string obs_dir = cli.get("obs-dir");
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty() || !obs_dir.empty()) {
    trace::TraceConfig tconfig;
    tconfig.sample_every_n =
        static_cast<std::uint64_t>(cli.get_int("trace-sample", 1));
    trace::start(tconfig);
  }
  std::unique_ptr<obs::StreamingSink> sink;
  if (!obs_dir.empty()) {
    obs::SinkOptions sopts;
    sopts.directory = obs_dir;
    sink = std::make_unique<obs::StreamingSink>(sopts);
    sink->attach();
    opts.obs_sink = sink.get();
  }
  double serve_s = 0.0;
  {
    serve::SpmvService<float> service(*pred, opts);
    (void)service.run(a, xs.front());  // warm the plan cache off-clock
    {
      const auto entry = service.cache().get(a);
      std::printf("served plan: %s\n", entry->runtime.plan().to_string().c_str());
      print_format_provenance(entry->runtime.plan());
    }
    // Pipelined clients: submit everything, then collect — queue depth is
    // what lets workers coalesce multi-vector batches.
    std::vector<std::future<std::vector<float>>> futs(
        static_cast<std::size_t>(requests));
    util::Timer wall;
    (void)drive([&](int i) {
      futs[static_cast<std::size_t>(i)] =
          service.submit(a, xs[static_cast<std::size_t>(i)]);
    });
    for (auto& f : futs) (void)f.get();
    serve_s = wall.elapsed_s();
    service.shutdown();
  }
  if (!trace_path.empty() || !obs_dir.empty()) {
    trace::stop();
    // Account the trace stream into the profile: span counts AND the spans
    // lost to ring wrap-around, so the artifact records its own holes.
    const auto snap = trace::snapshot();
    profile.trace_stats.events = snap.events.size();
    profile.trace_stats.dropped_spans = snap.dropped;
    profile.trace_stats.threads = snap.threads;
  }
  if (sink != nullptr) {
    sink->detach();  // safe: the service's workers joined, tracing stopped
    sink->close();
    const auto ss = sink->stats();
    std::printf("obs sink %s: %llu record(s) flushed into %zu segment(s), "
                "%llu dropped\n",
                obs_dir.c_str(), static_cast<unsigned long long>(ss.flushed),
                sink->segment_files().size(),
                static_cast<unsigned long long>(ss.dropped));
  }

  const auto& s = profile.serve;
  std::printf("\n%-24s %12s %14s\n", "strategy", "wall[ms]", "requests/s");
  std::printf("%-24s %12.1f %14.1f\n", "naive plan-and-run", 1e3 * naive_s,
              requests / naive_s);
  std::printf("%-24s %12.1f %14.1f\n", "SpmvService", 1e3 * serve_s,
              requests / serve_s);
  std::printf("speedup %.2fx; %llu batches, cache hit rate %.0f%%, mean "
              "queue wait %.3f ms\n",
              naive_s / serve_s, static_cast<unsigned long long>(s.batches),
              100.0 * s.cache_hit_rate(),
              s.requests == 0 ? 0.0
                              : 1e3 * s.queue_wait_total_s /
                                    static_cast<double>(s.requests));
  if (!s.request_latency.empty()) {
    std::printf("request latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
                1e3 * s.request_latency.percentile(50),
                1e3 * s.request_latency.percentile(95),
                1e3 * s.request_latency.percentile(99));
  }
  if (store != nullptr) {
    std::printf("plan store %s: %llu warm hit(s), %llu planning pass(es)\n",
                store_path.c_str(),
                static_cast<unsigned long long>(s.cache_warm_hits),
                static_cast<unsigned long long>(s.planning_passes));
  }
  const std::string profile_path = cli.get("profile");
  if (!profile_path.empty()) {
    prof::write_profile_file(profile_path, profile);
    std::printf("serve profile written to %s\n", profile_path.c_str());
  }
  if (!trace_path.empty()) {
    const auto snap = trace::snapshot();
    trace::write_chrome_trace_file(trace_path);
    std::printf("trace written to %s (%zu events across %d threads, %llu "
                "dropped)\n",
                trace_path.c_str(), snap.events.size(), snap.threads,
                static_cast<unsigned long long>(snap.dropped));
  }
  const std::string metrics_path = cli.get("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) throw std::runtime_error("cannot open " + metrics_path);
    out << prof::prometheus_text(profile);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}

// Deliberately bad predictor: a coarse fixed unit with Serial in every
// bin. adapt-bench's starting point — every hot bin has headroom, so the
// online BanditTuner has something real to recover.
class MispredictPredictor final : public core::Predictor {
 public:
  explicit MispredictPredictor(index_t unit) : unit_(unit) {}
  [[nodiscard]] UnitChoice predict_unit(const RowStats&) const override {
    return {unit_, false};
  }
  [[nodiscard]] kernels::KernelId predict_kernel(const RowStats&, index_t,
                                                 int) const override {
    return kernels::KernelId::Serial;
  }

 private:
  index_t unit_;
};

// Time one plan end-to-end (no service in the loop) and return GFLOP/s.
// The plan's own backend resolves automatically through the Tuner.
double plan_gflops(const CsrMatrix<float>& a, const core::Plan& plan,
                   std::span<const float> x) {
  const auto rt = core::Tuner(a).plan(plan).build();
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  const auto m = util::measure(
      [&] { rt.run(x, std::span<float>(y)); },
      {.warmup = 1, .reps = 5, .max_total_s = 1.0});
  return 2.0 * static_cast<double>(a.nnz()) / m.best_s * 1e-9;
}

// The online-refinement story in one command: tune exhaustively (the
// oracle), start a service from a mispredicted plan, let the BanditTuner
// shadow-measure and promote, then compare the refined plan against both
// endpoints and demonstrate the warm restart.
int cmd_adapt_bench(const util::Cli& cli) {
  auto a = std::make_shared<const CsrMatrix<float>>(load_input(cli));
  const int requests = static_cast<int>(cli.get_int("requests", 400));
  const double trial_fraction = cli.get_double("trial-fraction", 0.5);
  const int workers = static_cast<int>(cli.get_int("workers", 1));
  const auto unit = static_cast<index_t>(cli.get_int("unit", 100));
  std::string store_path = cli.get("store");
  const bool temp_store = store_path.empty();
  if (temp_store) store_path = "adapt_bench_store.tmp.json";

  std::vector<float> x(static_cast<std::size_t>(a->cols()));
  util::Xoshiro256 rng(7);
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.5, 1.5));

  // Oracle: what exhaustive tuning would pick, and what it's worth.
  core::ExhaustiveOptions topts;
  topts.measure = {.warmup = 1, .reps = 3, .max_total_s = 0.5};
  const auto oracle_backend = exec::shared_backend(backend_from_cli(cli));
  const auto tuned =
      core::exhaustive_tune(*oracle_backend, *a, std::span<const float>(x),
                            core::default_pools(), topts);
  const double oracle_gf = plan_gflops(*a, tuned.best_plan, x);

  // Starting point: the mispredicted plan the service will begin from.
  MispredictPredictor mis(unit);
  const auto mis_plan =
      core::Tuner(*a).predictor(mis).build().plan();
  const double mis_gf = plan_gflops(*a, mis_plan, x);
  std::printf("\noracle plan:       %s  (%.2f GFLOP/s)\n",
              tuned.best_plan.to_string().c_str(), oracle_gf);
  std::printf("mispredicted plan: %s  (%.2f GFLOP/s)\n",
              mis_plan.to_string().c_str(), mis_gf);

  // Serve from the mispredicted plan with online adaptation enabled.
  prof::RunProfile profile;
  profile.label = "adapt-bench";
  serve::ServiceOptions opts;
  opts.workers = workers;
  opts.backend = backend_from_cli(cli);
  opts.format = format_from_cli(cli);
  opts.profile = &profile;
  adapt::AdaptOptions aopts;
  aopts.trial_fraction = trial_fraction;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.05;
  aopts.hot_bins = 4;
  if (cli.get_bool("explore-u", false)) {
    aopts.explore_units = true;
    aopts.unit_trial_fraction = cli.get_double("unit-fraction", 0.5);
    aopts.unit_min_samples = 2;
    aopts.unit_hysteresis = 1.05;
    aopts.unit_cooldown = 4;
  }
  if (cli.get_bool("explore-backend", false)) {
    aopts.explore_backends = true;
    aopts.backend_trial_fraction = cli.get_double("backend-fraction", 0.5);
    aopts.backend_min_samples = 2;
    aopts.backend_hysteresis = 1.05;
    aopts.backend_cooldown = 4;
  }
  if (cli.get_bool("explore-format", false)) {
    aopts.explore_formats = true;
    aopts.format_trial_fraction = cli.get_double("format-fraction", 0.5);
    aopts.format_min_samples = 2;
    aopts.format_hysteresis = 1.05;
    aopts.format_cooldown = 4;
  }
  opts.adapt = aopts;
  adapt::PlanStore store(store_path);
  opts.plan_store = &store;

  std::printf("\n%-8s %12s %14s %12s\n", "window", "wall[ms]", "requests/s",
              "promotions");
  {
    serve::SpmvService<float> service(mis, opts);
    const int window = std::max(1, requests / 10);
    util::Timer win;
    for (int i = 0; i < requests; ++i) {
      (void)service.run(a, x);
      if ((i + 1) % window == 0 || i + 1 == requests) {
        const double w = win.elapsed_s();
        std::printf("%-8d %12.1f %14.1f %12llu\n", i + 1, 1e3 * w,
                    static_cast<double>(window) / w,
                    static_cast<unsigned long long>(
                        service.stats().cache_promotions));
        win.reset();
      }
    }
    service.shutdown();
  }
  const auto& ad = profile.adapt;
  std::printf("\nadapt: %llu trials, %llu promotions, %.3f ms regret\n",
              static_cast<unsigned long long>(ad.trials),
              static_cast<unsigned long long>(ad.promotions),
              1e3 * ad.regret_s);
  if (ad.u_trials > 0 || ad.u_promotions > 0)
    std::printf("adapt U: %llu trials, %llu promotions (%llu re-binned "
                "cache swaps)\n",
                static_cast<unsigned long long>(ad.u_trials),
                static_cast<unsigned long long>(ad.u_promotions),
                static_cast<unsigned long long>(
                    profile.serve.cache_rebin_promotions));
  if (ad.b_trials > 0 || ad.b_promotions > 0)
    std::printf("adapt backend: %llu trials, %llu promotions\n",
                static_cast<unsigned long long>(ad.b_trials),
                static_cast<unsigned long long>(ad.b_promotions));
  if (ad.f_trials > 0 || ad.f_promotions > 0)
    std::printf("adapt format: %llu trials, %llu promotions\n",
                static_cast<unsigned long long>(ad.f_trials),
                static_cast<unsigned long long>(ad.f_promotions));

  // What shipped to the store is the refined plan; time it oracle-style.
  adapt::PlanStore reread(store_path);
  (void)reread.load();
  const auto stored = reread.lookup(serve::fingerprint_of(*a));
  if (stored.has_value()) {
    const double refined_gf = plan_gflops(*a, stored->plan, x);
    std::printf("refined plan:      %s  (%.2f GFLOP/s, rev %llu)\n",
                stored->plan.to_string().c_str(), refined_gf,
                static_cast<unsigned long long>(stored->plan.revision));
    print_format_provenance(stored->plan);
    std::printf("recovery: %.0f%% of oracle (mispredicted start was "
                "%.0f%%)\n",
                100.0 * refined_gf / oracle_gf, 100.0 * mis_gf / oracle_gf);
  } else {
    std::printf("refined plan: store has no entry for this fingerprint\n");
  }

  // Warm-restart demo: a fresh service over the same store must rebuild
  // from the stored plan (warm hit), never re-run the planning pass.
  {
    prof::RunProfile rprofile;
    serve::ServiceOptions ropts;
    ropts.workers = 1;
    ropts.profile = &rprofile;
    adapt::PlanStore rstore(store_path);
    ropts.plan_store = &rstore;
    serve::SpmvService<float> restarted(mis, ropts);
    (void)restarted.run(a, x);
    restarted.shutdown();
    std::printf("warm restart: %llu warm hit(s), %llu planning pass(es)\n",
                static_cast<unsigned long long>(
                    rprofile.serve.cache_warm_hits),
                static_cast<unsigned long long>(
                    rprofile.serve.planning_passes));
  }

  const std::string profile_path = cli.get("profile");
  if (!profile_path.empty()) {
    prof::write_profile_file(profile_path, profile);
    std::printf("adapt profile written to %s\n", profile_path.c_str());
  }
  if (temp_store) {
    std::remove(store_path.c_str());
  } else {
    std::printf("plan store kept at %s\n", store_path.c_str());
  }
  return 0;
}

// Inspect or compact a persistent plan store without starting a service.
int cmd_plan_store(const util::Cli& cli) {
  const auto& pos = cli.positional();
  if (pos.empty() || (pos[0] != "ls" && pos[0] != "gc")) {
    std::fprintf(stderr,
                 "plan-store: expected ls|gc --store store.json\n");
    return 2;
  }
  const std::string path = cli.get("store");
  if (path.empty()) {
    std::fprintf(stderr, "plan-store: --store store.json required\n");
    return 2;
  }
  adapt::PlanStore store(path, adapt::PlanStore::device_config_string(),
                         cli.get("model-version", "default"));
  (void)store.load();
  const auto st = store.stats();
  std::printf("store %s (device \"%s\", model \"%s\")\n", path.c_str(),
              store.device_config().c_str(), store.model_version().c_str());
  std::printf("loaded %llu; skipped: %llu schema, %llu device, %llu model, "
              "%llu malformed\n",
              static_cast<unsigned long long>(st.loaded),
              static_cast<unsigned long long>(st.skipped_schema),
              static_cast<unsigned long long>(st.skipped_device),
              static_cast<unsigned long long>(st.skipped_model),
              static_cast<unsigned long long>(st.skipped_malformed));
  if (pos[0] == "gc") {
    const std::size_t dropped = store.gc();
    std::size_t expired = 0;
    const double ttl_hours = cli.get_double("ttl-hours", 0.0);
    if (ttl_hours > 0.0)
      expired = store.gc_expired(
          static_cast<std::int64_t>(ttl_hours * 3600.0 * 1000.0));
    store.flush();
    std::printf("dropped %zu foreign entr%s, expired %zu stale; rewrote %s\n",
                dropped, dropped == 1 ? "y" : "ies", expired, path.c_str());
    return 0;
  }
  auto entries = store.entries();
  std::sort(entries.begin(), entries.end(),
            [](const auto& l, const auto& r) {
              return std::tie(l.first.rows, l.first.nnz, l.first.row_hash) <
                     std::tie(r.first.rows, r.first.nnz, r.first.row_hash);
            });
  for (const auto& [key, sp] : entries) {
    // Tuned-U provenance: "U<-U0" marks a granularity the online tuner
    // promoted away from the predictor's original choice U0.
    std::string tuned_u = "-";
    if (sp.plan.unit_tuned)
      tuned_u = std::to_string(sp.plan.unit) + "<-" +
                std::to_string(sp.plan.predicted_unit);
    // Sharded-plan provenance: which slice of which parent matrix this
    // plan was tuned for (spmv::shard).
    std::string shard_col = "-";
    if (sp.plan.shard_index >= 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%d/%d of %016llx",
                    sp.plan.shard_index, sp.plan.shard_count,
                    static_cast<unsigned long long>(sp.plan.shard_parent));
      shard_col = buf;
    }
    // Solver-loop provenance: the serving block width an IterativeSession
    // stamped when it promoted/flushed this plan (spmv::iter).
    std::string spmm_col = "-";
    if (sp.plan.spmm_width > 0) {
      spmm_col = "w";
      spmm_col += std::to_string(sp.plan.spmm_width);
    }
    std::printf("  %8lld x %-8lld %10lld nnz  hash 0x%016llx  rev %-3llu "
                "tuned-U %-12s shard %-22s spmm %-4s %6.2f GF  %4llu "
                "trials  %s\n",
                static_cast<long long>(key.rows),
                static_cast<long long>(key.cols),
                static_cast<long long>(key.nnz),
                static_cast<unsigned long long>(key.row_hash),
                static_cast<unsigned long long>(sp.plan.revision),
                tuned_u.c_str(), shard_col.c_str(), spmm_col.c_str(),
                sp.gflops, static_cast<unsigned long long>(sp.trials),
                sp.plan.to_string().c_str());
  }
  return 0;
}

// The CI perf gate: diff two RunProfile artifacts. Exit codes are a
// three-way contract: 1 = a metric regressed past the threshold, 2 = the
// profiles no longer speak the same schema (baseline sections missing from
// current — renamed bins/kernels, dropped histograms), 0 = clean. Keeping
// the two failure modes distinct stops a renamed metric from silently
// passing as "nothing regressed".
int cmd_compare_profiles(const util::Cli& cli) {
  const auto& pos = cli.positional();
  if (pos.size() != 2) {
    std::fprintf(stderr,
                 "compare-profiles: expected baseline.json current.json\n");
    return 2;
  }
  const double threshold = cli.get_double("threshold", 1.15);
  const auto baseline = prof::read_profile_file(pos[0]);
  const auto current = prof::read_profile_file(pos[1]);
  const auto result = prof::compare_profiles(baseline, current, threshold);

  if (!result.metrics.empty()) {
    std::printf("%-28s %12s %12s %8s\n", "metric", "baseline[ms]",
                "current[ms]", "ratio");
    for (const auto& m : result.metrics) {
      std::printf("%-28s %12.4f %12.4f %7.2fx%s\n", m.name.c_str(),
                  1e3 * m.baseline, 1e3 * m.current, m.ratio,
                  m.regressed ? "  REGRESSED" : "");
    }
  } else {
    std::printf("no comparable metrics between %s and %s\n", pos[0].c_str(),
                pos[1].c_str());
  }
  if (result.schema_mismatch()) {
    std::printf("\nSCHEMA MISMATCH: baseline metric section(s) missing from "
                "current:\n");
    for (const auto& name : result.missing)
      std::printf("  %s\n", name.c_str());
    std::printf("(exit 2: re-baseline or fix the rename — this is not a "
                "perf verdict)\n");
    return 2;
  }
  if (result.regressed()) {
    std::printf("\nFAIL: regression past %.2fx threshold\n", threshold);
    return 1;
  }
  std::printf("\nOK: no metric regressed past %.2fx threshold\n", threshold);
  return 0;
}

// Perf trajectory: the regression gate's time axis. `append` folds one
// BENCH_*.json snapshot into the committed history, `check` gates the
// newest entry against the rolling window (exit 1 regression, 2 schema
// drift), `render` writes the sparkline dashboard.
int cmd_perf_trajectory(const util::Cli& cli) {
  const auto& pos = cli.positional();
  if (pos.empty() ||
      (pos[0] != "append" && pos[0] != "check" && pos[0] != "render")) {
    std::fprintf(stderr,
                 "perf-trajectory: expected append|check|render "
                 "--file trajectory.json\n");
    return 2;
  }
  const std::string file = cli.get("file");
  if (file.empty()) {
    std::fprintf(stderr, "perf-trajectory: --file trajectory.json required\n");
    return 2;
  }
  prof::Trajectory traj = prof::Trajectory::load_file(file);

  if (pos[0] == "append") {
    const std::string bench_path = cli.get("bench");
    if (bench_path.empty()) {
      std::fprintf(stderr, "perf-trajectory append: --bench BENCH.json "
                           "required\n");
      return 2;
    }
    std::ifstream in(bench_path);
    if (!in) throw std::runtime_error("cannot read " + bench_path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto max_entries =
        static_cast<std::size_t>(cli.get_int("max-entries", 200));
    traj.append(prof::Json::parse(text.str()), cli.get("label", "unlabeled"),
                max_entries);
    traj.save_file(file);
    std::printf("appended %s as entry %llu (%zu total) to %s\n",
                bench_path.c_str(),
                static_cast<unsigned long long>(traj.entries().back().seq),
                traj.entries().size(), file.c_str());
    return 0;
  }

  if (pos[0] == "check") {
    const auto window = static_cast<std::size_t>(cli.get_int("window", 5));
    const double threshold = cli.get_double("threshold", 1.25);
    // --learned derives each metric's gate from its own window noise
    // (mean + 3 sigma, floored at --threshold) instead of one fixed ratio.
    const bool learned = cli.get_bool("learned", false);
    const auto check = traj.check(window, threshold, learned);
    if (check.metrics.empty()) {
      std::printf("trajectory %s: %zu entr%s — not enough history to gate\n",
                  file.c_str(), traj.entries().size(),
                  traj.entries().size() == 1 ? "y" : "ies");
      return 0;
    }
    std::printf("%-36s %12s %12s %8s %8s\n", "metric", "head", "window",
                "ratio", "gate");
    for (const auto& m : check.metrics) {
      std::printf("%-36s %12.6g %12.6g %7.2fx %7.2fx%s\n", m.name.c_str(),
                  m.head, m.window, m.ratio, m.threshold,
                  m.regressed ? "  REGRESSED" : "");
    }
    if (!check.missing.empty()) {
      std::printf("\nSCHEMA DRIFT: head entry lost metric(s):\n");
      for (const auto& name : check.missing)
        std::printf("  %s\n", name.c_str());
      return 2;
    }
    const char* gate_kind = learned ? "learned gate (floor" : "gate (fixed";
    if (check.regressed()) {
      std::printf("\nFAIL: head regressed past the %s %.2fx) vs the "
                  "%zu-entry window\n",
                  gate_kind, threshold, window);
      return 1;
    }
    std::printf("\nOK: head within the %s %.2fx) of the %zu-entry window\n",
                gate_kind, threshold, window);
    return 0;
  }

  // render
  const auto window = static_cast<std::size_t>(cli.get_int("window", 20));
  const std::string md = traj.render_markdown(window);
  const std::string out_path = cli.get("out");
  if (out_path.empty()) {
    std::printf("%s", md.c_str());
  } else {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    out << md;
    std::printf("dashboard written to %s (%zu entries)\n", out_path.c_str(),
                traj.entries().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const util::Cli cli(argc - 1, argv + 1);
  try {
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "tune") return cmd_tune(cli);
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "train") return cmd_train(cli);
    if (cmd == "gen") return cmd_gen(cli);
    if (cmd == "serve-bench") return cmd_serve_bench(cli);
    if (cmd == "adapt-bench") return cmd_adapt_bench(cli);
    if (cmd == "plan-store") return cmd_plan_store(cli);
    if (cmd == "compare-profiles") return cmd_compare_profiles(cli);
    if (cmd == "perf-trajectory") return cmd_perf_trajectory(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmv_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
