// Offline training walkthrough (paper Figure 3, green arrows): sample a
// training corpus, harvest oracle labels with the exhaustive tuner, train
// the two-stage model, inspect the learned rule sets, save the model, and
// verify the reloaded model plans an unseen matrix.
//
// Usage: train_and_save [--matrices N] [--out model.txt] [--show-rules]
#include <cstdio>

#include "autospmv.hpp"

using namespace spmv;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string out = cli.get("out", "autospmv_model.txt");

  // 1. Corpus: modest sizes keep the exhaustive labeling quick; scale up
  //    --matrices for a production model (the paper uses 2000+).
  gen::CorpusOptions copts;
  copts.count = static_cast<int>(cli.get_int("matrices", 60));
  copts.min_rows = 1000;
  copts.max_rows = 8000;

  core::TrainerOptions topts;
  topts.pools.units = {10, 100, 1000, 10000, 100000};
  topts.pools.kernel_pool = kernels::all_kernels();
  topts.tune.measure = {.warmup = 1, .reps = 2, .max_total_s = 0.05};

  std::printf("training on %d synthetic UF-like matrices...\n", copts.count);
  util::Timer timer;
  core::TrainReport report;
  const auto model =
      core::train_model(gen::sample_corpus(copts), topts, &report);
  std::printf("done in %.1f s\n", timer.elapsed_s());
  std::printf("stage 1 (U):      train %.1f%%, test %.1f%% error\n",
              100.0 * report.stage1_train_error,
              100.0 * report.stage1_test_error);
  std::printf("stage 2 (kernel): train %.1f%%, test %.1f%% error\n",
              100.0 * report.stage2_train_error,
              100.0 * report.stage2_test_error);

  // 2. The C5.0-style artifact: ordered if-then rules.
  if (cli.get_bool("show-rules", false)) {
    std::printf("\nstage-1 rule set:\n%s", model.rules1.to_string().c_str());
  } else {
    std::printf("stage-1 rules: %zu, stage-2 rules: %zu (--show-rules to "
                "print)\n",
                model.rules1.rules().size(), model.rules2.rules().size());
  }

  // 3. Persist and reload.
  core::save_model_file(out, model);
  std::printf("model written to %s\n", out.c_str());
  core::ModelPredictor predictor(core::load_model_file(out));

  // 4. Plan an unseen matrix with the reloaded model.
  const auto a = gen::mixed_regime<float>(20000, 20000, 0.5, 0.3, 3, 30, 300,
                                          64, /*seed=*/4096);
  const auto spmv = core::Tuner(a).predictor(predictor).build();
  std::printf("unseen mixed-regime matrix -> plan %s\n",
              spmv.plan().to_string().c_str());

  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y));
  double checksum = 0.0;
  for (float v : y) checksum += v;
  std::printf("verification SpMV checksum: %.6g\n", checksum);
  return 0;
}
