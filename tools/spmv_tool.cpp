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
//   plan-store ls|gc  --store store.json [--model-version V]
//            [--ttl-hours H]
//            ls: print load/skip accounting and every plan visible under
//            this device/model scope; gc: drop preserved foreign entries
//            (and, with --ttl-hours, own entries not used within H hours)
//            and rewrite the store file
//   perf-trajectory  append|check|render --file trajectory.json
//            append: --bench BENCH_x.json --label L  fold one benchmark
//            snapshot's numeric leaves into the committed trajectory file
//            check:  [--window 5] [--threshold 1.25] [--learned]  gate the
//            newest entry of every stream against the rolling mean of that
//            stream's window; exits 1 on regression, 2 on schema drift (a
//            stream's head lost metrics).
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
//   spmv_tool plan-store ls --store plans.json
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "autospmv.hpp"

using namespace spmv;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: spmv_tool "
               "<info|tune|run|train|gen|plan-store|perf-trajectory> "
               "[flags]\n"
               "  input flags: --mtx file.mtx | --matrix <table2 name> |\n"
               "               --family <corpus family> --rows N [--param P]\n"
               "  backend:     --backend clsim|native (run, tune;\n"
               "               default clsim)\n"
               "  format:      --format csr|auto (run; per-bin physical\n"
               "               layouts via the fmt estimator; default csr)\n"
               "  run flags:   --model model.txt --reps K --profile out.json\n"
               "               --trace out.trace.json\n"
               "  tune flags:  --profile out.json\n"
               "  train flags: --matrices N --out model.txt\n"
               "  gen flags:   --out file.mtx --seed S\n"
               "  plan-store:  ls|gc --store store.json [--model-version V]\n"
               "               [--ttl-hours H]\n"
               "  perf-trajectory: append|check|render --file t.json\n"
               "               append: --bench BENCH.json --label L\n"
               "               [--max-entries N]\n"
               "               check: [--window 5] [--threshold 1.25]\n"
               "               [--learned]\n"
               "               render: [--out dashboard.md] [--window 20]\n");
  return 2;
}

/// The uniform `--backend clsim|native` flag (run, tune and the fig
/// benches all spell it the same way).
exec::BackendKind backend_from_cli(const util::Cli& cli) {
  return exec::backend_from_name(cli.get("backend", "clsim"));
}

/// The uniform `--format csr|auto` flag (run).
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
  const auto model =
      core::train_model(gen::sample_corpus(copts), topts, &report);
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
              "%llu backend, %llu malformed\n",
              static_cast<unsigned long long>(st.loaded),
              static_cast<unsigned long long>(st.skipped_schema),
              static_cast<unsigned long long>(st.skipped_device),
              static_cast<unsigned long long>(st.skipped_model),
              static_cast<unsigned long long>(st.skipped_backend),
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

// Perf trajectory: the regression gate. `append` folds one BENCH_*.json
// snapshot into the history file, `check` gates every stream's newest
// entry against that stream's rolling window (exit 1 regression, 2 schema
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
    if (check.metrics.empty() && check.missing.empty()) {
      std::printf("trajectory %s: %zu entr%s — not enough history to gate\n",
                  file.c_str(), traj.entries().size(),
                  traj.entries().size() == 1 ? "y" : "ies");
      return 0;
    }
    // Every stream's head is gated; name each metric by its stream.
    const auto label = [](const std::string& stream, const std::string& name) {
      return stream.empty() ? name : stream + ":" + name;
    };
    if (!check.metrics.empty())
      std::printf("%-52s %12s %12s %8s %8s\n", "stream:metric", "head",
                  "window", "ratio", "gate");
    // Counters and config.* are reported but not gated (gate "-").
    for (const auto& m : check.metrics) {
      char gate[16] = "       -";
      if (m.gated) std::snprintf(gate, sizeof(gate), "%7.2fx", m.threshold);
      std::printf("%-52s %12.6g %12.6g %7.2fx %s%s\n",
                  label(m.stream, m.name).c_str(), m.head, m.window, m.ratio,
                  gate, m.regressed ? "  REGRESSED" : "");
    }
    if (!check.missing.empty()) {
      std::printf("\nSCHEMA DRIFT: a stream's head lost metric(s):\n");
      for (const auto& [stream, name] : check.missing)
        std::printf("  %s\n", label(stream, name).c_str());
      return 2;
    }
    const char* gate_kind = learned ? "learned gate (floor" : "gate (fixed";
    if (check.regressed()) {
      std::printf("\nFAIL: a stream's head regressed past the %s %.2fx) "
                  "vs its %zu-entry window\n",
                  gate_kind, threshold, window);
      return 1;
    }
    std::printf("\nOK: every stream's head within the %s %.2fx) of its "
                "%zu-entry window\n",
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
    if (cmd == "plan-store") return cmd_plan_store(cli);
    if (cmd == "perf-trajectory") return cmd_perf_trajectory(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmv_tool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
