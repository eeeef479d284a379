#include "core/trainer.hpp"

#include <numeric>
#include <stdexcept>

#include "ml/features.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace spmv::core {

template <typename T>
MatrixLabels harvest_labels(const CsrMatrix<T>& a, const TrainerOptions& opts) {
  MatrixLabels labels;
  labels.stats = compute_row_stats(a);

  // Input vector values do not affect timing; any dense x works.
  std::vector<T> x(static_cast<std::size_t>(a.cols()));
  util::Xoshiro256 rng(12345);
  for (auto& v : x) v = static_cast<T>(rng.uniform(0.5, 1.5));

  const TuneResult tuned =
      exhaustive_tune(*exec::shared_backend(exec::BackendKind::Clsim), a,
                      std::span<const T>(x), opts.pools, opts.tune);

  if (tuned.best_plan.single_bin) {
    labels.best_unit_class = static_cast<int>(opts.pools.units.size());
  } else {
    labels.best_unit_class = opts.pools.unit_index(tuned.best_plan.unit);
  }
  if (labels.best_unit_class < 0)
    throw std::logic_error("harvest_labels: winning unit not in pool");

  for (const UnitResult& ur : tuned.per_unit) {
    const bool is_winner =
        ur.single_bin == tuned.best_plan.single_bin &&
        (ur.single_bin || ur.unit == tuned.best_plan.unit);
    if (!opts.stage2_all_units && !is_winner) continue;
    for (const BinPlan& bp : ur.bin_kernels) {
      const int kernel_class = opts.pools.kernel_index(bp.kernel);
      if (kernel_class < 0)
        throw std::logic_error("harvest_labels: kernel not in pool");
      labels.stage2.push_back({ur.unit, bp.bin_id, kernel_class});
    }
  }
  return labels;
}

TrainedModel train_model(const std::vector<gen::CorpusSpec>& specs,
                         const TrainerOptions& opts, TrainReport* report) {
  if (specs.empty()) throw std::invalid_argument("train_model: empty corpus");

  // Per-matrix shuffled split (the paper splits the matrix collection, not
  // individual samples, so no matrix leaks between train and test).
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Xoshiro256 rng(opts.split_seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.bounded(i));
    std::swap(order[i - 1], order[j]);
  }
  const auto cut = static_cast<std::size_t>(
      opts.train_frac * static_cast<double>(specs.size()));

  ml::Dataset s1_train(ml::stage1_attr_names(), opts.pools.unit_class_names());
  ml::Dataset s1_test(ml::stage1_attr_names(), opts.pools.unit_class_names());
  ml::Dataset s2_train(ml::stage2_attr_names(),
                       opts.pools.kernel_class_names());
  ml::Dataset s2_test(ml::stage2_attr_names(), opts.pools.kernel_class_names());

  for (std::size_t k = 0; k < order.size(); ++k) {
    const gen::CorpusSpec& spec = specs[order[k]];
    // Kernels measure in float, matching the paper's OpenCL kernels.
    const auto a = gen::make_corpus_matrix<float>(spec);
    util::Timer harvest_wall;
    const MatrixLabels labels = harvest_labels(a, opts);
    if (opts.profile != nullptr) {
      opts.profile->add_candidate(
          "matrix " + std::to_string(k + 1) + "/" +
              std::to_string(order.size()) + " " +
              gen::family_name(spec.family),
          harvest_wall.elapsed_s(),
          static_cast<std::int64_t>(labels.stage2.size()), 0.0);
    }

    auto& s1 = k < cut ? s1_train : s1_test;
    auto& s2 = k < cut ? s2_train : s2_test;
    s1.add(ml::stage1_features(labels.stats), labels.best_unit_class);
    for (const auto& sample : labels.stage2) {
      s2.add(ml::stage2_features(labels.stats, sample.unit, sample.bin_id),
             sample.kernel_class);
    }
    util::log_info() << "trainer: matrix " << (k + 1) << "/" << order.size()
                     << " (" << gen::family_name(spec.family) << ", "
                     << spec.rows << " rows) harvested";
  }
  if (s1_train.empty() || s2_train.empty())
    throw std::runtime_error("train_model: training split is empty");

  TrainedModel model;
  model.pools = opts.pools;
  model.use_rulesets = opts.use_rulesets;
  model.stage1.train(s1_train, opts.tree);
  model.stage2.train(s2_train, opts.tree);
  model.rules1 = ml::RuleSet::from_tree(model.stage1, &s1_train);
  model.rules2 = ml::RuleSet::from_tree(model.stage2, &s2_train);

  if (report != nullptr) {
    report->matrices = specs.size();
    report->stage1_train_samples = s1_train.size();
    report->stage1_test_samples = s1_test.size();
    report->stage2_train_samples = s2_train.size();
    report->stage2_test_samples = s2_test.size();
    if (opts.use_rulesets) {
      report->stage1_train_error = model.rules1.error_rate(s1_train);
      report->stage1_test_error = model.rules1.error_rate(s1_test);
      report->stage2_train_error = model.rules2.error_rate(s2_train);
      report->stage2_test_error = model.rules2.error_rate(s2_test);
    } else {
      report->stage1_train_error = model.stage1.error_rate(s1_train);
      report->stage1_test_error = model.stage1.error_rate(s1_test);
      report->stage2_train_error = model.stage2.error_rate(s2_train);
      report->stage2_test_error = model.stage2.error_rate(s2_test);
    }
  }
  return model;
}

template MatrixLabels harvest_labels(const CsrMatrix<float>&,
                                     const TrainerOptions&);
template MatrixLabels harvest_labels(const CsrMatrix<double>&,
                                     const TrainerOptions&);

}  // namespace spmv::core
