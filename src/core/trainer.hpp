// Offline training (paper Figure 3, green arrows): run the exhaustive
// tuner over a corpus of matrices, harvest (features -> best U) and
// (features+U+binId -> best kernel) samples, train the two-stage model,
// and report train/test error rates on a per-matrix 75/25 split.
#pragma once

#include <cstdint>
#include <vector>

#include "core/exhaustive.hpp"
#include "core/predictor.hpp"
#include "gen/corpus.hpp"
#include "ml/dataset.hpp"

namespace spmv::core {

struct TrainerOptions {
  CandidatePools pools = default_pools();
  /// Label harvesting: more repetitions and a wide tie band make the
  /// "best" labels stable — candidates within 20% are considered
  /// equivalent and resolve to the coarsest granularity / narrowest
  /// kernel, which is what makes the mapping learnable (and is
  /// performance-safe: the tie band bounds the cost of the canonical
  /// choice).
  ExhaustiveOptions tune{
      .measure = {.warmup = 1, .reps = 4, .max_total_s = 0.25},
      .tie_tolerance = 0.20};
  /// Fraction of *matrices* (not samples) used for training; the paper
  /// uses 75%.
  double train_frac = 0.75;
  std::uint64_t split_seed = 7;
  /// Emit stage-2 samples under every candidate U (more data) instead of
  /// only the winning U.
  bool stage2_all_units = true;
  ml::TreeParams tree{};
  /// Classify through extracted rule sets (the C5.0 artifact) rather than
  /// the raw trees.
  bool use_rulesets = true;
  /// Optional telemetry sink: train_model appends one CandidateCost per
  /// corpus matrix (wall time of its exhaustive harvest, stage-2 samples
  /// harvested). Set tune.profile as well for per-granularity costs.
  prof::RunProfile* profile = nullptr;
};

struct TrainReport {
  std::size_t matrices = 0;
  std::size_t stage1_train_samples = 0;
  std::size_t stage1_test_samples = 0;
  std::size_t stage2_train_samples = 0;
  std::size_t stage2_test_samples = 0;
  double stage1_train_error = 0.0;
  double stage1_test_error = 0.0;  ///< paper observes ~5%
  double stage2_train_error = 0.0;
  double stage2_test_error = 0.0;  ///< paper observes up to ~15%
};

/// Harvested labels for one matrix (exposed so benches can cache them).
struct MatrixLabels {
  RowStats stats;
  int best_unit_class = 0;  ///< index into pools.unit_class_names()
  /// (unit, bin_id, kernel class) triples.
  struct Stage2Label {
    index_t unit;
    int bin_id;
    int kernel_class;
  };
  std::vector<Stage2Label> stage2;
};

/// Measure one matrix on the shared clsim backend and harvest its labels.
template <typename T>
MatrixLabels harvest_labels(const CsrMatrix<T>& a, const TrainerOptions& opts);

/// Full pipeline: tune every corpus matrix, split per-matrix, train both
/// stages, fill `report` (optional).
TrainedModel train_model(const std::vector<gen::CorpusSpec>& specs,
                         const TrainerOptions& opts,
                         TrainReport* report = nullptr);

extern template MatrixLabels harvest_labels(const CsrMatrix<float>&,
                                            const TrainerOptions&);
extern template MatrixLabels harvest_labels(const CsrMatrix<double>&,
                                            const TrainerOptions&);

}  // namespace spmv::core
