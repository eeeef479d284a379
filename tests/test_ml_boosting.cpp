// Tests for the C5.0-style boosting trials.
#include <gtest/gtest.h>

#include "ml/boosting.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv::ml;

Dataset noisy_bands(int n, std::uint64_t seed) {
  Dataset data({"x", "y"}, {"a", "b", "c"});
  spmv::util::Xoshiro256 rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(), y = rng.uniform();
    int label = x < 0.33 ? 0 : x < 0.66 ? 1 : 2;
    if (rng.uniform() < 0.2) label = (label + 1) % 3;  // random label noise
    data.add({x, y}, label);
  }
  return data;
}

TEST(Boosting, SingleTrialMatchesPlainTree) {
  const auto data = noisy_bands(400, 1);
  BoostedTrees boosted;
  boosted.train(data, 1);
  DecisionTree plain;
  plain.train(data);
  EXPECT_EQ(boosted.trial_count(), 1u);
  std::size_t disagree = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (boosted.predict(data.features(i)) != plain.predict(data.features(i)))
      ++disagree;
  }
  EXPECT_EQ(disagree, 0u);
}

TEST(Boosting, ImprovesOrMatchesTrainingFit) {
  const auto data = noisy_bands(600, 2);
  DecisionTree plain;
  TreeParams shallow;
  shallow.max_depth = 3;
  plain.train(data, shallow);
  BoostedTrees boosted;
  boosted.train(data, 10, shallow);
  EXPECT_LE(boosted.error_rate(data), plain.error_rate(data) + 0.05);
  EXPECT_GT(boosted.trial_count(), 1u);
}

TEST(Boosting, PredictionsAreValidLabels) {
  const auto data = noisy_bands(300, 3);
  BoostedTrees boosted;
  boosted.train(data, 5);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int p = boosted.predict(data.features(i));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

TEST(Boosting, StopsEarlyOnPerfectFit) {
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 100; ++i)
    data.add({static_cast<double>(i)}, i < 50 ? 0 : 1);
  BoostedTrees boosted;
  boosted.train(data, 25);
  EXPECT_LT(boosted.trial_count(), 25u);  // perfect after trial 1
  EXPECT_EQ(boosted.error_rate(data), 0.0);
}

TEST(Boosting, RejectsBadArguments) {
  Dataset data({"x"}, {"a", "b"});
  BoostedTrees boosted;
  EXPECT_THROW(boosted.train(data, 3), std::invalid_argument);  // empty
  data.add({1.0}, 0);
  EXPECT_THROW(boosted.train(data, 0), std::invalid_argument);  // trials<1
}

TEST(Boosting, UntrainedPredictThrows) {
  BoostedTrees boosted;
  EXPECT_THROW((void)boosted.predict(std::vector<double>{1.0}),
               std::logic_error);
}

TEST(Boosting, GeneralizationNotWorseThanSingleTree) {
  auto data = noisy_bands(1500, 4);
  const auto [train, test] = data.split(0.7, 5);
  DecisionTree plain;
  plain.train(train);
  BoostedTrees boosted;
  boosted.train(train, 8);
  EXPECT_LE(boosted.error_rate(test), plain.error_rate(test) + 0.05);
}

}  // namespace
