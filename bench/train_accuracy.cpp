// §III-C / §IV-A reproduction: the two-stage C5.0-style training pipeline.
//
// The paper trains on 2000+ UF matrices (75% train / 25% test) and observes
// ~5% test error for stage 1 (binning-scheme selection) and up to ~15% for
// stage 2 (kernel selection). This bench runs the full pipeline on the
// synthetic corpus — exhaustive measurement for ground truth, two-stage
// tree + rule-set training, holdout evaluation — and additionally reports
// the end-to-end cost of a *mispredicted* plan: the fraction of achievable
// (oracle) performance the predicted plans reach on held-out matrices.
#include <cstdio>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  gen::CorpusOptions copts;
  copts.count = static_cast<int>(cli.get_int("matrices", 300));
  copts.min_rows = static_cast<index_t>(cli.get_int("min-rows", 1500));
  copts.max_rows = static_cast<index_t>(cli.get_int("max-rows", 12000));
  copts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2017));

  core::TrainerOptions topts;
  topts.pools = bench_pools(cli.get_bool("full-pool", false));
  topts.tune.measure = {.warmup = 1, .reps = 4, .max_total_s = 0.08};
  topts.use_rulesets = cli.get_bool("rulesets", true);

  std::printf(
      "=== bench train_accuracy (matrices=%d, units=%zu, kernels=%zu) "
      "===\n\n",
      copts.count, topts.pools.units.size(), topts.pools.kernel_pool.size());
  std::printf("harvesting oracle labels (exhaustive tuning per matrix)...\n");

  const auto specs = gen::sample_corpus(copts);
  util::Timer timer;
  core::TrainReport report;
  const auto model = core::train_model(specs, topts, &report);
  std::printf("training pipeline took %.1f s\n\n", timer.elapsed_s());

  std::printf("%-34s %12s %12s\n", "stage", "train error", "test error");
  rule(60);
  std::printf("%-34s %11.1f%% %11.1f%%\n",
              "stage 1 (binning scheme U)", 100.0 * report.stage1_train_error,
              100.0 * report.stage1_test_error);
  std::printf("%-34s %11.1f%% %11.1f%%\n", "stage 2 (kernel per bin)",
              100.0 * report.stage2_train_error,
              100.0 * report.stage2_test_error);
  rule(60);
  std::printf("paper reference: stage 1 ~5%%, stage 2 up to ~15%% test error\n");
  std::printf(
      "samples: stage1 %zu train / %zu test; stage2 %zu train / %zu test\n",
      report.stage1_train_samples, report.stage1_test_samples,
      report.stage2_train_samples, report.stage2_test_samples);
  std::printf("stage-1 tree: %zu leaves, depth %d; stage-2 tree: %zu leaves, "
              "depth %d\n",
              model.stage1.leaf_count(), model.stage1.depth(),
              model.stage2.leaf_count(), model.stage2.depth());

  // End-to-end value of the predictions: on fresh matrices, what fraction
  // of the oracle plan's performance do the predicted plans reach?
  const int holdout = static_cast<int>(cli.get_int("holdout", 12));
  gen::CorpusOptions hopts = copts;
  hopts.count = holdout;
  hopts.seed = copts.seed + 999;  // unseen matrices
  core::ModelPredictor pred(model);
  std::vector<double> efficiency;
  for (const auto& spec : gen::sample_corpus(hopts)) {
    const auto a = gen::make_corpus_matrix<float>(spec);
    const auto x = random_x(static_cast<std::size_t>(a.cols()));
    std::vector<float> y(static_cast<std::size_t>(a.rows()));

    const auto oracle = oracle_plan(a, x, topts.pools);
    const auto oracle_bins = core::bins_for_plan(a, oracle);
    const double t_oracle = time_spmv([&] {
      core::execute_plan(*exec::shared_backend(exec::BackendKind::Clsim), a,
                         std::span<const float>(x), std::span<float>(y),
                         oracle_bins, oracle);
    });

    const auto spmv = core::Tuner(a).predictor(pred).build();
    const double t_pred =
        time_spmv([&] { spmv.run(std::span<const float>(x), std::span<float>(y)); });
    efficiency.push_back(t_oracle / t_pred);
  }
  std::printf(
      "\npredicted plans on %d unseen matrices reach %.0f%% of oracle "
      "performance (geomean)\n",
      holdout, 100.0 * util::geometric_mean(efficiency));

  const std::string out = cli.get("save-model");
  if (!out.empty()) {
    core::save_model_file(out, model);
    std::printf("model saved to %s\n", out.c_str());
  }
  return 0;
}
