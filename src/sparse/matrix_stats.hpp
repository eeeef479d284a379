// Row-length statistics of a sparse matrix — the raw material for both the
// paper's Table-I feature vector and the Figure-5 histogram.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"
#include "util/stats.hpp"

namespace spmv {

/// Aggregate statistics of the non-zeros-per-row distribution.
struct RowStats {
  index_t rows = 0;
  index_t cols = 0;
  offset_t nnz = 0;
  double avg_nnz = 0.0;  ///< Avg_NNZ in Table I
  double var_nnz = 0.0;  ///< Var_NNZ in Table I (population variance)
  offset_t min_nnz = 0;  ///< Min_NNZ in Table I
  offset_t max_nnz = 0;  ///< Max_NNZ in Table I
};

/// Matrices with at least this many row_ptr plus col_idx entries plan in
/// parallel: compute_row_stats and fmt::compute_bin_features become OpenMP
/// reductions. Smaller ones stay on the calling thread, because serve and
/// shard workers plan small matrices beside each other.
inline constexpr std::int64_t kParallelPlanSize = std::int64_t{1} << 22;

template <typename T>
[[nodiscard]] bool plans_in_parallel(const CsrMatrix<T>& a) {
  return static_cast<std::int64_t>(a.rows()) + a.nnz() >= kParallelPlanSize;
}

/// Compute RowStats in one pass over row_ptr: exact integer sums of the row
/// lengths and their squares, min and max, then the mean and population
/// variance from those.
template <typename T>
RowStats compute_row_stats(const CsrMatrix<T>& a);

/// Per-row NNZ counts (length rows()).
template <typename T>
std::vector<offset_t> row_lengths(const CsrMatrix<T>& a);

/// Accumulate this matrix's row lengths into a histogram (used to build the
/// Figure-5 collection-wide histogram).
template <typename T>
void accumulate_row_histogram(const CsrMatrix<T>& a, util::Histogram& hist);

extern template RowStats compute_row_stats(const CsrMatrix<float>&);
extern template RowStats compute_row_stats(const CsrMatrix<double>&);
extern template std::vector<offset_t> row_lengths(const CsrMatrix<float>&);
extern template std::vector<offset_t> row_lengths(const CsrMatrix<double>&);
extern template void accumulate_row_histogram(const CsrMatrix<float>&,
                                              util::Histogram&);
extern template void accumulate_row_histogram(const CsrMatrix<double>&,
                                              util::Histogram&);

}  // namespace spmv
