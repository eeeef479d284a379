// Cheap per-bin format suitability estimation.
//
// One pass over a bin's covered rows produces the feature vector (row
// count, nnz, empty fraction, max/avg length, would-be ELL padding ratio,
// max intra-row column span) and the estimator maps it to a FormatKind —
// the same lightweight-features-to-structure-decision move as the paper's
// Table-I kernel predictor, lifted one level up to physical layout
// (Elafrou et al.'s feature-based selection in PAPERS.md). The estimator is
// deliberately conservative: it only leaves CSR when the features say the
// transformation is near-certain to pay. It is the only format selector:
// online per-bin format trials did not beat it (BENCH_adapt_levels.json).
#pragma once

#include <span>

#include "fmt/format.hpp"
#include "sparse/csr.hpp"

namespace spmv::fmt {

/// Feature vector of one bin's covered rows, computed in a single pass.
struct BinFeatures {
  std::size_t rows = 0;        ///< covered actual rows (incl. empty)
  offset_t nnz = 0;
  std::size_t empty_rows = 0;
  offset_t max_len = 0;
  double avg_len = 0.0;        ///< nnz / rows (0 for an empty bin)
  double padding_ratio = 0.0;  ///< rows * max_len / nnz (ELL expansion)
  index_t max_row_span = 0;    ///< max over rows of (max col - min col)
};

/// One pass over the bin's rows. Every field reduces from integers, so the
/// result is exact, and on a matrix that plans_in_parallel() the pass is an
/// OpenMP reduction over the bin's virtual rows.
template <typename T>
[[nodiscard]] BinFeatures compute_bin_features(const CsrMatrix<T>& a,
                                               std::span<const index_t> vrows,
                                               index_t unit);

/// The estimator's single best guess for the bin. Priority: ELL for
/// near-uniform short rows (padding <= ~1.25, width <= 64), Dcsr for banded
/// rows (every gap provably fits 16 bits, avg length >= 8), COO for
/// scatter/mostly-empty bins, CSR otherwise.
[[nodiscard]] FormatKind estimate_bin_format(const BinFeatures& f);

extern template BinFeatures compute_bin_features(const CsrMatrix<float>&,
                                                 std::span<const index_t>,
                                                 index_t);
extern template BinFeatures compute_bin_features(const CsrMatrix<double>&,
                                                 std::span<const index_t>,
                                                 index_t);

}  // namespace spmv::fmt
