#include "sparse/matrix_stats.hpp"

#include <algorithm>

namespace spmv {

template <typename T>
RowStats compute_row_stats(const CsrMatrix<T>& a) {
  RowStats s;
  s.rows = a.rows();
  s.cols = a.cols();
  s.nnz = a.nnz();
  if (a.rows() == 0) return s;
  const auto rp = a.row_ptr();
  const auto m = static_cast<std::int64_t>(a.rows());
  std::uint64_t sum_sq = 0;
  offset_t lo = a.row_nnz(0);
  offset_t hi = lo;
#pragma omp parallel for schedule(static) reduction(+ : sum_sq) \
    reduction(min : lo) reduction(max : hi) if (plans_in_parallel(a))
  for (std::int64_t i = 0; i < m; ++i) {
    const auto r = static_cast<std::size_t>(i);
    const offset_t len = rp[r + 1] - rp[r];
    sum_sq += static_cast<std::uint64_t>(len) * static_cast<std::uint64_t>(len);
    lo = std::min(lo, len);
    hi = std::max(hi, len);
  }
  // The row lengths sum to nnz. m * sum_sq - nnz^2 = m^2 * variance is an
  // exact integer, so the variance rounds once per division.
  const auto n = static_cast<double>(m);
  const auto sum = static_cast<unsigned __int128>(a.nnz());
  const unsigned __int128 scaled = static_cast<unsigned __int128>(m) * sum_sq -
                                   sum * sum;
  s.avg_nnz = static_cast<double>(a.nnz()) / n;
  s.var_nnz = static_cast<double>(scaled) / n / n;
  s.min_nnz = lo;
  s.max_nnz = hi;
  return s;
}

template <typename T>
std::vector<offset_t> row_lengths(const CsrMatrix<T>& a) {
  std::vector<offset_t> lengths(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i)
    lengths[static_cast<std::size_t>(i)] = a.row_nnz(i);
  return lengths;
}

template <typename T>
void accumulate_row_histogram(const CsrMatrix<T>& a, util::Histogram& hist) {
  for (index_t i = 0; i < a.rows(); ++i)
    hist.add(static_cast<std::uint64_t>(a.row_nnz(i)));
}

template RowStats compute_row_stats(const CsrMatrix<float>&);
template RowStats compute_row_stats(const CsrMatrix<double>&);
template std::vector<offset_t> row_lengths(const CsrMatrix<float>&);
template std::vector<offset_t> row_lengths(const CsrMatrix<double>&);
template void accumulate_row_histogram(const CsrMatrix<float>&,
                                       util::Histogram&);
template void accumulate_row_histogram(const CsrMatrix<double>&,
                                       util::Histogram&);

}  // namespace spmv
