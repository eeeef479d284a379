// Tests for the offline trainer and model persistence. Uses a tiny corpus
// and reduced pools so the exhaustive measurements stay fast; statistical
// quality of the full pipeline is evaluated by bench/train_accuracy.
#include <gtest/gtest.h>

#include <sstream>

#include "core/model_io.hpp"
#include "core/trainer.hpp"
#include "gen/generators.hpp"

namespace {

using namespace spmv;
using namespace spmv::core;

TrainerOptions fast_options() {
  TrainerOptions opts;
  opts.pools = small_pools();
  opts.tune.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.02};
  return opts;
}

std::vector<gen::CorpusSpec> tiny_corpus(int count) {
  gen::CorpusOptions copts;
  copts.count = count;
  copts.min_rows = 500;
  copts.max_rows = 3000;
  return gen::sample_corpus(copts);
}

TEST(HarvestLabels, ProducesValidClasses) {
  const auto opts = fast_options();
  const auto a = gen::mixed_regime<float>(2000, 2000, 0.5, 0.3, 3, 40, 300,
                                          32, 21);
  const auto labels = harvest_labels(a, opts);
  EXPECT_GE(labels.best_unit_class, 0);
  EXPECT_LT(labels.best_unit_class,
            static_cast<int>(opts.pools.units.size()) + 1);
  EXPECT_FALSE(labels.stage2.empty());
  for (const auto& s : labels.stage2) {
    EXPECT_GE(s.kernel_class, 0);
    EXPECT_LT(s.kernel_class, static_cast<int>(opts.pools.kernel_pool.size()));
    EXPECT_GE(s.bin_id, 0);
    EXPECT_LT(s.bin_id, binning::kMaxBins);
  }
  EXPECT_EQ(labels.stats.rows, 2000);
}

TEST(HarvestLabels, WinnerOnlyModeEmitsFewerSamples) {
  auto all = fast_options();
  auto winner = fast_options();
  winner.stage2_all_units = false;
  const auto a = gen::power_law<float>(1500, 1500, 2.0, 200, 22);
  const auto labels_all = harvest_labels(a, all);
  const auto labels_winner = harvest_labels(a, winner);
  EXPECT_LT(labels_winner.stage2.size(), labels_all.stage2.size());
  EXPECT_FALSE(labels_winner.stage2.empty());
}

TEST(Trainer, TrainsOnTinyCorpusAndReports) {
  const auto opts = fast_options();
  const auto specs = tiny_corpus(12);
  TrainReport report;
  const auto model = train_model(specs, opts, &report);

  EXPECT_EQ(report.matrices, 12u);
  EXPECT_EQ(report.stage1_train_samples + report.stage1_test_samples, 12u);
  EXPECT_GT(report.stage2_train_samples, 0u);
  EXPECT_GE(report.stage1_train_error, 0.0);
  EXPECT_LE(report.stage1_train_error, 1.0);
  EXPECT_TRUE(model.stage1.trained());
  EXPECT_TRUE(model.stage2.trained());
  EXPECT_FALSE(model.rules1.rules().empty());
}

TEST(Trainer, ModelPredictorProducesValidPlans) {
  const auto opts = fast_options();
  const auto model = train_model(tiny_corpus(10), opts, nullptr);
  ModelPredictor pred(model);

  const auto a = gen::banded<float>(4000, 5, 0.5, 23);
  const auto stats = compute_row_stats(a);
  const auto choice = pred.predict_unit(stats);
  if (!choice.single_bin) {
    EXPECT_GE(opts.pools.unit_index(choice.unit), 0);
  }
  const auto kernel = pred.predict_kernel(stats, choice.unit, 0);
  EXPECT_GE(opts.pools.kernel_index(kernel), 0);
}

TEST(Trainer, EmptyCorpusThrows) {
  EXPECT_THROW(train_model({}, fast_options(), nullptr),
               std::invalid_argument);
}

TEST(ModelIo, RoundTripPreservesPredictions) {
  const auto opts = fast_options();
  const auto model = train_model(tiny_corpus(10), opts, nullptr);

  std::stringstream ss;
  save_model(ss, model);
  const auto loaded = load_model(ss);

  EXPECT_EQ(loaded.pools.units, model.pools.units);
  EXPECT_EQ(loaded.pools.kernel_pool, model.pools.kernel_pool);
  EXPECT_EQ(loaded.use_rulesets, model.use_rulesets);

  // Predictions must agree on a grid of feature vectors.
  for (double rows : {1e3, 1e5, 1e7}) {
    for (double avg : {1.0, 20.0, 500.0}) {
      const std::vector<double> f1 = {rows, rows,      rows * avg, avg * avg,
                                      avg,  avg * 0.5, avg * 4.0};
      ASSERT_EQ(loaded.predict_unit_class(f1), model.predict_unit_class(f1));
      for (double u : {10.0, 1000.0}) {
        for (double bin : {0.0, 5.0, 99.0}) {
          auto f2 = f1;
          f2.push_back(u);
          f2.push_back(bin);
          ASSERT_EQ(loaded.predict_kernel_class(f2),
                    model.predict_kernel_class(f2));
        }
      }
    }
  }
}

TEST(ModelIo, FileHelpersRoundTrip) {
  const auto opts = fast_options();
  const auto model = train_model(tiny_corpus(8), opts, nullptr);
  const std::string path = ::testing::TempDir() + "/autospmv_model.txt";
  save_model_file(path, model);
  const auto loaded = load_model_file(path);
  EXPECT_EQ(loaded.pools.units, model.pools.units);
}

TEST(ModelIo, LoadRejectsGarbage) {
  std::stringstream ss("AutoSpmvModel v999\n");
  EXPECT_THROW(load_model(ss), std::runtime_error);
}

}  // namespace
