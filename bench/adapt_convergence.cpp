// bench adapt_convergence — the online-adaptation acceptance number: serve
// from a deliberately mispredicted plan (the oracle's unit, Vector in every
// bin) with the BanditTuner shadow-measuring alternatives, and check that
// the refined plan recovers most of the exhaustively-tuned oracle's
// throughput within a bounded number of requests. Everything here serves,
// tunes and times on the native backend, the one serving executes; the
// oracle is exhaustive_tune on that backend. Also demonstrates the persistent
// warm start: a restarted service over the same plan store must rebuild
// from the stored plan (warm hit) and never re-run the planning pass.
//
//   adapt_convergence [--rows N] [--requests R] [--trial-fraction F]
//                     [--recovery-floor 0.9] [--check] [--json out.json]
//                     [--profile out.json] [--misbin] [--misbin-unit U]
//                     [--iter] [--iters N] [--width W] [--iter-floor 0.7]
//
// Any other flag is an error (exit 2), so a stale command line fails
// instead of silently running the default mode.
//
// Default mode mispredicts the per-bin kernels at the oracle's own
// granularity (the first-level bandit's recovery story). --misbin instead
// mispredicts the *binning unit U itself* — the stage-1 structural
// misprediction no kernel swap can fix — while delegating kernel choice to
// the heuristic, and enables the BanditTuner's second-level U exploration:
// recovery then requires whole-plan shadow trials at neighboring
// granularities and a re-binned promotion carrying tuned-U provenance into
// the store. Per-bin formats are not explored online: FormatMode::Auto
// picks them at plan time (BENCH_adapt_levels.json has the ablation).
//
// --profile (default and --misbin modes) writes the adapted service's
// RunProfile: its serve block (cache hits, planning passes, latency
// histograms) and adapt block (trials, promotions, regret).
//
// --check turns the acceptance criteria into the exit code:
//   0. (default mode only) the mispredicted plan reads below
//      recovery-floor * oracle GFLOP/s — otherwise there is nothing to
//      recover and the gate would pass without the bandit doing anything
//   1. refined GFLOP/s >= recovery-floor * oracle GFLOP/s, the two plans
//      timed interleaved; a refined plan equal to the oracle's recovers
//      1.0 by identity (the output says so)
//   2. restarted service: warm hits > 0 and planning passes == 0
//   3. (--misbin only) U trials ran, the promoted plan left the wrong
//      granularity behind (unit != misbin unit, unit_tuned provenance set),
//      and the corrected U is what the store serves after the restart
//
// --iter is the solver-loop gate: drive an iter::IterativeSession power
// iteration (block width W) from the same Vector-everywhere misprediction
// with latency-feedback tuning — every iteration IS the measurement, so
// the tuner must converge on the oracle plan with ZERO shadow launches
// (adapt.trials == 0; the latency path counts l_trials / l_promotions
// instead). --check then also requires the flushed plan to carry the
// serving width (Plan::spmm_width == W, the provenance the PlanStore
// round-trips) and a restarted session to warm-start from it without a
// planning pass.
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

namespace {

/// The mispredicting starting point: a given unit, Vector everywhere. On
/// the native backend Serial is no misprediction at all (it reads about
/// 84-111% of the oracle on this corpus), while one 32-lane vector per row
/// wastes most of its lanes on the short rows that dominate a power law.
class MispredictPredictor final : public core::Predictor {
 public:
  explicit MispredictPredictor(index_t unit) : unit_(unit) {}
  [[nodiscard]] UnitChoice predict_unit(const RowStats&) const override {
    return {unit_, false};
  }
  [[nodiscard]] kernels::KernelId predict_kernel(const RowStats&, index_t,
                                                 int) const override {
    return kernels::KernelId::Vector;
  }

 private:
  index_t unit_;
};

/// The --misbin starting point: a deliberately wrong stage-1 granularity,
/// but kernels picked sensibly (heuristic) for the bins that wrong U
/// produces. Isolates the structural misprediction — the first-level
/// bandit can only shuffle kernels inside the broken bin layout, so only
/// U exploration can recover.
class MisbinPredictor final : public core::Predictor {
 public:
  explicit MisbinPredictor(index_t unit) : unit_(unit) {}
  [[nodiscard]] UnitChoice predict_unit(const RowStats&) const override {
    return {unit_, false};
  }
  [[nodiscard]] kernels::KernelId predict_kernel(const RowStats& stats,
                                                 index_t unit,
                                                 int bin_id) const override {
    return heuristic_.predict_kernel(stats, unit, bin_id);
  }

 private:
  index_t unit_;
  core::HeuristicPredictor heuristic_;
};

/// SpMV GFLOP/s of each plan, timed interleaved: every round times each
/// plan once and each plan keeps its best round, so host load that drifts
/// during the measurement hits every plan alike instead of whichever one
/// happened to be timed in the burst. The gate divides two of these
/// numbers (refined vs oracle) against --recovery-floor.
std::vector<double> plans_gflops(const CsrMatrix<float>& a,
                                 const std::vector<core::Plan>& plans,
                                 std::span<const float> x) {
  // Layouts build on first touch: a plan carrying non-CSR formats is timed
  // with its layouts already materialized (steady state); all-CSR plans
  // never consult the policy.
  std::vector<core::AutoSpmv<float>> rts;
  for (const core::Plan& plan : plans)
    rts.push_back(
        core::Tuner(a).plan(plan).format_policy({.min_reuse = 0}).build());
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  std::vector<double> best(plans.size(), 0.0);
  for (int round = 0; round < 5; ++round)
    for (std::size_t i = 0; i < rts.size(); ++i)
      best[i] = std::max(best[i], gflops(a.nnz(), time_spmv([&] {
                                   rts[i].run(x, std::span<float>(y));
                                 })));
  return best;
}

/// Blocked iteration throughput of `plan`: best-of-3 Y = A·X at `width`
/// through the true-SpMM path — the number a solver loop actually sees.
double iter_gflops(const CsrMatrix<float>& a, const core::Plan& plan,
                   std::span<const float> xb, int width) {
  const auto rt = core::Tuner(a)
                      .plan(plan)
                      .format_policy({.min_reuse = 0})
                      .build();
  std::vector<float> y(static_cast<std::size_t>(a.rows()) *
                       static_cast<std::size_t>(width));
  double best = 0.0;
  for (int i = 0; i < 3; ++i)
    best = std::max(
        best, gflops(a.nnz() * width, time_spmv([&] {
          rt.run_spmm(xb, std::span<float>(y), width);
        })));
  return best;
}

/// The --iter gate: latency-feedback convergence inside a solver loop.
int run_iter_gate(const util::Cli& cli) {
  // Default rows keeps the working set cache-resident: in the streaming
  // regime (~20k+ rows here) every kernel hits the same memory ceiling,
  // the misprediction measures even with the oracle, and nothing is left
  // for the latency bandit to promote — the gate needs a corpus where kernel
  // choice is visible in the per-iteration latencies.
  const auto rows = static_cast<index_t>(cli.get_int("rows", 12000));
  const int iters = static_cast<int>(cli.get_int("iters", 400));
  const int width = static_cast<int>(cli.get_int("width", 4));
  const double floor = cli.get_double("iter-floor", 0.7);
  const bool check = cli.get_bool("check", false);
  const std::string store_path = "adapt_iter_store.tmp.json";
  std::remove(store_path.c_str());

  std::printf("=== bench adapt_convergence --iter (rows=%d, iters=%d, "
              "width=%d) ===\n\n",
              rows, iters, width);

  // Same long-tailed corpus as the request/response gate: the bins want
  // different kernels, so Vector-everywhere leaves throughput on the table.
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(rows, rows, 2.0, 300, 1));
  const auto n = static_cast<std::size_t>(a->cols());
  std::vector<float> xb(n * static_cast<std::size_t>(width));
  for (int c = 0; c < width; ++c) {
    const auto col = random_x(n, 4242 + static_cast<std::uint64_t>(c));
    std::copy(col.begin(), col.end(),
              xb.begin() + static_cast<std::size_t>(c) * n);
  }

  // Oracle: exhaustively tuned on the native backend (the session's
  // backend) for one column, scored at the serving width.
  const auto nat = exec::shared_backend(exec::BackendKind::Native);
  const auto tuned = oracle_plan(*a, std::span<const float>(xb).subspan(0, n),
                                 bench_pools(), *nat);
  const double oracle_gf = iter_gflops(*a, tuned, xb, width);

  MispredictPredictor mis(tuned.unit);
  const auto mis_plan = core::Tuner(*a)
                            .predictor(mis)
                            .backend(exec::BackendKind::Native)
                            .build()
                            .plan();
  const double mis_gf = iter_gflops(*a, mis_plan, xb, width);

  // The solver loop: power iteration at the block width, every iteration
  // timed and fed back. No shadow launches anywhere on this path.
  prof::RunProfile profile;
  profile.label = "adapt_convergence_iter";
  iter::SessionOptions sopts;
  sopts.spmm_width = width;
  sopts.profile = &profile;
  adapt::AdaptOptions aopts;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.05;
  aopts.hot_bins = static_cast<int>(mis_plan.bin_kernels.size());
  sopts.adapt = aopts;
  adapt::PlanStore store(store_path);
  sopts.plan_store = &store;
  std::uint64_t iterations = 0;
  {
    iter::IterativeSession<float> session(a, mis, sopts);
    session.seed(std::span<const float>(xb));
    for (int i = 0; i < iters; ++i) {
      (void)session.step();
      // Per-column inf-norm normalization keeps the iterate finite — the
      // standard power-iteration step, and it keeps every timed launch
      // numerically comparable.
      auto it = session.iterate();
      for (int c = 0; c < width; ++c) {
        auto col = it.subspan(static_cast<std::size_t>(c) * n, n);
        float norm = 0.0f;
        for (const float v : col) norm = std::max(norm, std::abs(v));
        if (norm > 0.0f)
          for (float& v : col) v /= norm;
      }
    }
    session.flush();
    iterations = session.stats().iterations;
  }

  adapt::PlanStore reread(store_path);
  (void)reread.load();
  const auto stored = reread.lookup(serve::fingerprint_of(*a));
  const core::Plan refined = stored.has_value() ? stored->plan : mis_plan;
  const double refined_gf = iter_gflops(*a, refined, xb, width);
  const double recovery = refined_gf / oracle_gf;

  std::printf("%-14s %10s %10s   %s\n", "plan", "GFLOP/s", "recovery",
              "detail");
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "oracle", oracle_gf, 100.0,
              tuned.to_string().c_str());
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "mispredicted", mis_gf,
              100.0 * mis_gf / oracle_gf, mis_plan.to_string().c_str());
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "refined", refined_gf,
              100.0 * recovery, refined.to_string().c_str());
  std::printf("\nadapt: %llu latency trials, %llu latency promotions over "
              "%llu iterations; %llu shadow trials\n",
              static_cast<unsigned long long>(profile.adapt.l_trials),
              static_cast<unsigned long long>(profile.adapt.l_promotions),
              static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(profile.adapt.trials));

  // Warm restart: a fresh session over the same store must adopt the
  // refined plan (width provenance and all) without a planning pass.
  std::uint64_t warm_starts = 0, planning_passes = 0;
  {
    iter::SessionOptions ropts;
    ropts.spmm_width = width;
    adapt::PlanStore rstore(store_path);
    ropts.plan_store = &rstore;
    iter::IterativeSession<float> restarted(a, mis, ropts);
    restarted.seed(std::span<const float>(xb));
    (void)restarted.step();
    warm_starts = restarted.stats().warm_starts;
    planning_passes = restarted.stats().planning_passes;
  }
  std::printf("warm restart: %llu warm start(s), %llu planning pass(es)\n",
              static_cast<unsigned long long>(warm_starts),
              static_cast<unsigned long long>(planning_passes));

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    prof::Json j = prof::Json::object();
    j.set("bench", "iter");
    j.set("rows", static_cast<double>(rows));
    j.set("iters", static_cast<double>(iters));
    j.set("width", static_cast<double>(width));
    j.set("oracle_gflops", oracle_gf);
    j.set("mispredicted_gflops", mis_gf);
    j.set("refined_gflops", refined_gf);
    j.set("recovery", recovery);
    j.set("l_trials", static_cast<double>(profile.adapt.l_trials));
    j.set("l_promotions", static_cast<double>(profile.adapt.l_promotions));
    j.set("shadow_trials", static_cast<double>(profile.adapt.trials));
    j.set("stored_spmm_width",
          static_cast<double>(stored.has_value() ? stored->plan.spmm_width
                                                 : 0));
    j.set("warm_starts", static_cast<double>(warm_starts));
    std::ofstream out(json_path);
    out << j.dump(2) << "\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }
  std::remove(store_path.c_str());

  if (!check) return 0;
  bool ok = true;
  if (profile.adapt.l_trials == 0) {
    std::printf("FAIL: no latency-feedback trials ran\n");
    ok = false;
  }
  if (profile.adapt.l_promotions == 0) {
    std::printf("FAIL: latency feedback never promoted a plan\n");
    ok = false;
  }
  if (profile.adapt.trials != 0) {
    std::printf("FAIL: %llu shadow trials ran in a latency-only session\n",
                static_cast<unsigned long long>(profile.adapt.trials));
    ok = false;
  }
  if (recovery < floor) {
    std::printf("FAIL: recovery %.0f%% below floor %.0f%%\n",
                100.0 * recovery, 100.0 * floor);
    ok = false;
  }
  if (!stored.has_value() || stored->plan.spmm_width != width) {
    std::printf("FAIL: stored plan missing spmm_width == %d provenance\n",
                width);
    ok = false;
  }
  if (warm_starts == 0 || planning_passes != 0) {
    std::printf("FAIL: warm restart expected warm starts > 0 and planning "
                "passes == 0\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("OK: latency feedback recovered %.0f%% of oracle with zero "
              "shadow launches; width-%d provenance persisted\n",
              100.0 * recovery, width);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  try {
    cli.reject_unknown({"rows", "requests", "trial-fraction",
                        "recovery-floor", "check", "json", "profile",
                        "misbin", "misbin-unit", "iter", "iters", "width",
                        "iter-floor"});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "adapt_convergence: %s\n", e.what());
    return 2;
  }
  if (cli.get_bool("iter", false)) return run_iter_gate(cli);
  const auto rows = static_cast<index_t>(cli.get_int("rows", 20000));
  const bool misbin = cli.get_bool("misbin", false);
  const auto misbin_unit =
      static_cast<index_t>(cli.get_int("misbin-unit", 50000));
  // The structural recovery walks the granularity grid, so it gets a
  // larger (still bounded) request budget by default.
  const int requests =
      static_cast<int>(cli.get_int("requests", misbin ? 1000 : 600));
  const double trial_fraction = cli.get_double("trial-fraction", 1.0);
  const double floor = cli.get_double("recovery-floor", 0.9);
  const bool check = cli.get_bool("check", false);
  const std::string store_path = "adapt_convergence_store.tmp.json";
  std::remove(store_path.c_str());

  // A long-tailed matrix: the bins genuinely want different kernels, so a
  // Vector-everywhere misprediction leaves real throughput on the table.
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(rows, rows, 2.0, 300, 1));
  const auto x = random_x(static_cast<std::size_t>(a->cols()), 4242);

  std::printf("=== bench adapt_convergence (rows=%d, requests=%d, "
              "trial_fraction=%.2f%s) ===\n\n",
              rows, requests, trial_fraction,
              misbin ? ", mode=misbin" : "");

  // Oracle: exhaustive tuning on the serving backend, the throughput
  // ceiling being recovered.
  const core::Plan oracle =
      oracle_plan(*a, std::span<const float>(x), core::default_pools(),
                  *exec::shared_backend(exec::BackendKind::Native));

  // Default mode mispredicts at the oracle's own granularity (recovery
  // target = the per-bin kernel choice). --misbin forces a wrong stage-1 U
  // instead (recovery target = the bin structure itself).
  MispredictPredictor kernel_mis(oracle.unit);
  MisbinPredictor unit_mis(misbin_unit);
  const core::Predictor& mis =
      misbin ? static_cast<const core::Predictor&>(unit_mis) : kernel_mis;
  const auto mis_plan = core::Tuner(*a)
                            .predictor(mis)
                            .backend(exec::BackendKind::Native)
                            .build()
                            .plan();

  // Serve `requests` requests from the mispredicted plan with online
  // adaptation writing through to the store.
  prof::RunProfile profile;
  profile.label = "adapt_convergence";
  serve::ServiceOptions opts;
  opts.workers = 1;
  opts.profile = &profile;
  adapt::AdaptOptions aopts;
  aopts.trial_fraction = trial_fraction;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.05;
  // Cover every occupied bin: this bench measures full recovery, not the
  // hottest-subset steady-state configuration.
  aopts.hot_bins = static_cast<int>(mis_plan.bin_kernels.size());
  if (misbin) {
    // Second-level exploration is the whole point of this mode. Low
    // hysteresis/cooldown: the bench wants fast convergence within the
    // request budget; production defaults are more conservative.
    aopts.explore_units = true;
    aopts.unit_trial_fraction = 0.5;
    aopts.unit_min_samples = 2;
    aopts.unit_hysteresis = 1.05;
    aopts.unit_cooldown = 2;
    // After a U promotion the rebinned plan can have more bins than the
    // degenerate starting layout, so size the hot set for the recovered
    // plan, not the broken one.
    aopts.hot_bins = 8;
  }
  opts.adapt = aopts;
  adapt::PlanStore store(store_path);
  opts.plan_store = &store;
  {
    serve::SpmvService<float> service(mis, opts);
    for (int i = 0; i < requests; ++i) (void)service.run(a, x);
    service.shutdown();
  }

  // The refined plan is whatever the service flushed for this fingerprint.
  adapt::PlanStore reread(store_path);
  (void)reread.load();
  const auto stored = reread.lookup(serve::fingerprint_of(*a));
  const core::Plan refined = stored.has_value() ? stored->plan : mis_plan;
  const auto gf = plans_gflops(*a, {oracle, mis_plan, refined}, x);
  const double oracle_gf = gf[0], mis_gf = gf[1], refined_gf = gf[2];
  // A refined plan that IS the oracle's recovers all of it by definition;
  // dividing two timings of one plan would only measure the host's noise.
  const bool refined_is_oracle =
      refined.to_string() == oracle.to_string();
  const double recovery = refined_is_oracle ? 1.0 : refined_gf / oracle_gf;

  std::printf("%-14s %10s %10s   %s\n", "plan", "GFLOP/s", "recovery",
              "detail");
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "oracle", oracle_gf, 100.0,
              oracle.to_string().c_str());
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "mispredicted", mis_gf,
              100.0 * mis_gf / oracle_gf, mis_plan.to_string().c_str());
  std::printf("%-14s %10.2f %9.0f%%   %s\n", "refined", refined_gf,
              100.0 * recovery, refined.to_string().c_str());
  if (refined_is_oracle)
    std::printf("refined plan equals the oracle's: recovery 100%% by "
                "identity (timed %.0f%%)\n",
                100.0 * refined_gf / oracle_gf);
  std::printf("\nadapt: %llu trials, %llu promotions, %.3f ms regret over "
              "%d requests\n",
              static_cast<unsigned long long>(profile.adapt.trials),
              static_cast<unsigned long long>(profile.adapt.promotions),
              1e3 * profile.adapt.regret_s, requests);
  if (misbin)
    std::printf("adapt U: %llu trials, %llu promotions; refined unit %d "
                "(started from %d, oracle %d)%s\n",
                static_cast<unsigned long long>(profile.adapt.u_trials),
                static_cast<unsigned long long>(profile.adapt.u_promotions),
                refined.unit, misbin_unit, oracle.unit,
                refined.unit_tuned ? ", tuned-U provenance" : "");

  // Warm restart over the same store file.
  prof::RunProfile rprofile;
  {
    serve::ServiceOptions ropts;
    ropts.workers = 1;
    ropts.profile = &rprofile;
    adapt::PlanStore rstore(store_path);
    ropts.plan_store = &rstore;
    serve::SpmvService<float> restarted(mis, ropts);
    (void)restarted.run(a, x);
    restarted.shutdown();
  }
  std::printf("warm restart: %llu warm hit(s), %llu planning pass(es)\n",
              static_cast<unsigned long long>(rprofile.serve.cache_warm_hits),
              static_cast<unsigned long long>(
                  rprofile.serve.planning_passes));
  write_profile(cli, profile);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    prof::Json j = prof::Json::object();
    j.set("rows", static_cast<double>(rows));
    j.set("requests", static_cast<double>(requests));
    j.set("oracle_gflops", oracle_gf);
    j.set("mispredicted_gflops", mis_gf);
    j.set("refined_gflops", refined_gf);
    j.set("recovery", recovery);
    j.set("refined_is_oracle", refined_is_oracle);
    j.set("trials", static_cast<double>(profile.adapt.trials));
    j.set("promotions", static_cast<double>(profile.adapt.promotions));
    j.set("u_trials", static_cast<double>(profile.adapt.u_trials));
    j.set("u_promotions",
          static_cast<double>(profile.adapt.u_promotions));
    j.set("refined_unit", static_cast<double>(refined.unit));
    j.set("unit_tuned", refined.unit_tuned);
    j.set("warm_hits",
          static_cast<double>(rprofile.serve.cache_warm_hits));
    std::ofstream out(json_path);
    out << j.dump(2) << "\n";
    std::printf("summary written to %s\n", json_path.c_str());
  }
  std::remove(store_path.c_str());

  if (check) {
    bool ok = true;
    if (!misbin && mis_gf >= floor * oracle_gf) {
      std::printf("FAIL: nothing to recover: the mispredicted plan already "
                  "reads %.0f%% of oracle (floor %.0f%%)\n",
                  100.0 * mis_gf / oracle_gf, 100.0 * floor);
      ok = false;
    }
    if (recovery < floor) {
      std::printf("FAIL: recovery %.0f%% below floor %.0f%%\n",
                  100.0 * recovery, 100.0 * floor);
      ok = false;
    }
    if (rprofile.serve.cache_warm_hits == 0 ||
        rprofile.serve.planning_passes != 0) {
      std::printf("FAIL: warm restart expected warm hits > 0 and planning "
                  "passes == 0\n");
      ok = false;
    }
    if (misbin) {
      if (profile.adapt.u_trials == 0) {
        std::printf("FAIL: no U trials ran in --misbin mode\n");
        ok = false;
      }
      if (!stored.has_value() || stored->plan.unit == misbin_unit ||
          !stored->plan.unit_tuned) {
        std::printf("FAIL: store still serves the mispredicted unit %d "
                    "(expected a tuned-U promotion)\n",
                    misbin_unit);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("OK: refined plan recovers %.0f%% of oracle; warm restart "
                "verified%s\n",
                100.0 * recovery,
                misbin ? "; corrected U persisted" : "");
  }
  return 0;
}
