// Tests for the C4.5/C5.0-style decision tree: entropy math, pessimistic
// error bounds, induction on separable data, pruning, weighting, and
// serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv::ml;

Dataset two_class(const std::vector<std::string>& attrs = {"x", "y"}) {
  return Dataset(attrs, {"neg", "pos"});
}

TEST(Entropy, KnownValues) {
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{4.0, 0.0}), 0.0);
  EXPECT_NEAR(entropy(std::vector<double>{1.0, 1.0, 1.0, 1.0}), 2.0, 1e-12);
  EXPECT_NEAR(entropy(std::vector<double>{3.0, 1.0}),
              -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25)), 1e-12);
}

TEST(Entropy, EmptyAndZeroSafe) {
  EXPECT_DOUBLE_EQ(entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{0.0, 0.0}), 0.0);
}

TEST(PessimisticErrors, ZeroErrorStillPenalized) {
  const double add = pessimistic_errors(10.0, 0.0, 0.25);
  EXPECT_GT(add, 0.0);
  EXPECT_LT(add, 10.0);
}

TEST(PessimisticErrors, ShrinksWithMoreData) {
  // Same observed error *rate*, more data -> tighter bound.
  const double small = pessimistic_errors(10.0, 1.0, 0.25) / 10.0;
  const double large = pessimistic_errors(1000.0, 100.0, 0.25) / 1000.0;
  EXPECT_GT(small, large);
}

TEST(PessimisticErrors, GrowsWithErrors) {
  const double e1 = pessimistic_errors(100.0, 5.0, 0.25);
  const double e2 = pessimistic_errors(100.0, 20.0, 0.25);
  // The *total* pessimistic estimate (observed + slack) must grow.
  EXPECT_GT(20.0 + e2, 5.0 + e1);
}

TEST(PessimisticErrors, ConfidenceOneDisables) {
  EXPECT_DOUBLE_EQ(pessimistic_errors(50.0, 5.0, 1.0), 0.0);
}

TEST(Dataset, AddValidatesShapes) {
  auto data = two_class();
  EXPECT_THROW(data.add({1.0}, 0), std::invalid_argument);       // bad width
  EXPECT_THROW(data.add({1.0, 2.0}, 2), std::invalid_argument);  // bad label
  data.add({1.0, 2.0}, 1);
  EXPECT_EQ(data.size(), 1u);
}

TEST(Dataset, SplitPartitionsAllInstances) {
  auto data = two_class();
  for (int i = 0; i < 100; ++i)
    data.add({static_cast<double>(i), 0.0}, i % 2);
  const auto [train, test] = data.split(0.75, 42);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
}

TEST(Dataset, SplitIsDeterministic) {
  auto data = two_class();
  for (int i = 0; i < 50; ++i) data.add({static_cast<double>(i), 1.0}, i % 2);
  const auto [a_train, a_test] = data.split(0.5, 9);
  const auto [b_train, b_test] = data.split(0.5, 9);
  ASSERT_EQ(a_train.size(), b_train.size());
  for (std::size_t i = 0; i < a_train.size(); ++i) {
    EXPECT_EQ(a_train.features(i), b_train.features(i));
    EXPECT_EQ(a_train.label(i), b_train.label(i));
  }
}

TEST(Dataset, ClassHistogram) {
  auto data = two_class();
  data.add({0, 0}, 0);
  data.add({1, 0}, 1);
  data.add({2, 0}, 1);
  EXPECT_EQ(data.class_histogram(), (std::vector<std::size_t>{1, 2}));
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  auto data = two_class();
  for (int i = 0; i < 50; ++i) {
    data.add({static_cast<double>(i), 0.5}, i < 25 ? 0 : 1);
  }
  DecisionTree tree;
  tree.train(data);
  EXPECT_EQ(tree.error_rate(data), 0.0);
  // One split suffices: root + 2 leaves reachable.
  EXPECT_EQ(tree.leaf_count(), 2u);
  EXPECT_EQ(tree.depth(), 2);
  // Threshold near the class boundary.
  EXPECT_EQ(tree.nodes()[0].attr, 0);
  EXPECT_NEAR(tree.nodes()[0].threshold, 24.5, 0.51);
}

TEST(DecisionTree, IgnoresUselessAttribute) {
  auto data = two_class();
  spmv::util::Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const double signal = rng.uniform();
    data.add({rng.uniform(), signal}, signal > 0.5 ? 1 : 0);
  }
  DecisionTree tree;
  tree.train(data);
  EXPECT_EQ(tree.nodes()[0].attr, 1);  // splits on the signal, not noise
  EXPECT_LT(tree.error_rate(data), 0.02);
}

TEST(DecisionTree, LearnsNestedConceptWithDepth) {
  // label = (x > 0.3) AND (y > 0.6): needs two split levels; verifies
  // recursion past the first split. (Perfectly balanced XOR is a known
  // blind spot of greedy gain-based induction and is not required here.)
  auto data = two_class();
  spmv::util::Xoshiro256 rng(6);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform();
    const double y = rng.uniform();
    data.add({x, y}, (x > 0.3 && y > 0.6) ? 1 : 0);
  }
  DecisionTree tree;
  tree.train(data);
  EXPECT_LT(tree.error_rate(data), 0.02);
  EXPECT_GE(tree.depth(), 3);
}

TEST(DecisionTree, MulticlassBands) {
  Dataset data({"v"}, {"a", "b", "c", "d"});
  for (int i = 0; i < 400; ++i) {
    const double v = static_cast<double>(i % 100);
    data.add({v}, static_cast<int>(v / 25.0));
  }
  DecisionTree tree;
  tree.train(data);
  EXPECT_EQ(tree.error_rate(data), 0.0);
  EXPECT_EQ(tree.predict(std::vector<double>{10.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{30.0}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{60.0}), 2);
  EXPECT_EQ(tree.predict(std::vector<double>{90.0}), 3);
}

TEST(DecisionTree, PruningShrinksNoisyTree) {
  auto data = two_class();
  spmv::util::Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform();
    // 15% label noise around a simple threshold concept.
    int label = x > 0.5 ? 1 : 0;
    if (rng.uniform() < 0.15) label = 1 - label;
    data.add({x, rng.uniform()}, label);
  }
  // Disable the MDL induction penalty so the raw tree overfits the noise,
  // then check pessimistic-error pruning cuts it back.
  DecisionTree pruned, unpruned;
  TreeParams grow;
  grow.mdl_penalty = false;
  grow.pruning_cf = 1.0;
  unpruned.train(data, grow);
  TreeParams with_pruning = grow;
  with_pruning.pruning_cf = 0.25;
  pruned.train(data, with_pruning);
  EXPECT_LT(pruned.leaf_count(), unpruned.leaf_count());
  EXPECT_GT(unpruned.leaf_count(), 10u);  // it really did overfit
}

TEST(DecisionTree, RespectsMaxDepth) {
  auto data = two_class();
  spmv::util::Xoshiro256 rng(8);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(), y = rng.uniform();
    data.add({x, y}, (static_cast<int>(x * 8) + static_cast<int>(y * 8)) % 2);
  }
  DecisionTree tree;
  TreeParams p;
  p.max_depth = 2;
  p.pruning_cf = 1.0;
  tree.train(data, p);
  EXPECT_LE(tree.depth(), 3);  // root level 1 + 2 split levels
}

TEST(DecisionTree, WeightsShiftTheMajority) {
  // Identical feature, conflicting labels: weights decide the leaf class.
  auto data = two_class();
  data.add({1.0, 0.0}, 0);
  data.add({1.0, 0.0}, 1);
  const std::vector<double> favor_pos = {0.1, 5.0};
  DecisionTree tree;
  tree.train(data, {}, favor_pos);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0, 0.0}), 1);
  const std::vector<double> favor_neg = {5.0, 0.1};
  tree.train(data, {}, favor_neg);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0, 0.0}), 0);
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  auto data = two_class();
  spmv::util::Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(), y = rng.uniform();
    data.add({x, y}, x + y > 1.0 ? 1 : 0);
  }
  DecisionTree tree;
  tree.train(data);
  std::stringstream ss;
  tree.save(ss);
  const DecisionTree loaded = DecisionTree::load(ss);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(loaded.predict(data.features(i)), tree.predict(data.features(i)));
  }
}

TEST(DecisionTree, LoadRejectsGarbage) {
  std::stringstream ss("not a tree");
  EXPECT_THROW(DecisionTree::load(ss), std::runtime_error);
}

TEST(DecisionTree, ToStringMentionsAttributes) {
  auto data = two_class({"alpha", "beta"});
  for (int i = 0; i < 40; ++i)
    data.add({static_cast<double>(i), 0.0}, i < 20 ? 0 : 1);
  DecisionTree tree;
  tree.train(data);
  const std::string text = tree.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("pos"), std::string::npos);
}

TEST(DecisionTree, UntrainedThrows) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}),
               std::logic_error);
}

TEST(DecisionTree, EmptyDatasetThrows) {
  Dataset data({"x"}, {"a", "b"});
  DecisionTree tree;
  EXPECT_THROW(tree.train(data), std::invalid_argument);
}

TEST(DecisionTree, GeneralizesOnHoldout) {
  auto data = two_class();
  spmv::util::Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(), y = rng.uniform();
    data.add({x, y}, 2.0 * x + y > 1.4 ? 1 : 0);
  }
  const auto [train, test] = data.split(0.75, 3);
  DecisionTree tree;
  tree.train(train);
  EXPECT_LT(tree.error_rate(test), 0.10);
}

}  // namespace
