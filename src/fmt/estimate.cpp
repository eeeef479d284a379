#include "fmt/estimate.hpp"

#include <algorithm>

#include "sparse/matrix_stats.hpp"

namespace spmv::fmt {

template <typename T>
BinFeatures compute_bin_features(const CsrMatrix<T>& a,
                                 std::span<const index_t> vrows,
                                 index_t unit) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const index_t m = a.rows();
  const auto nv = static_cast<std::int64_t>(vrows.size());
  std::size_t rows = 0;
  std::size_t empty_rows = 0;
  offset_t nnz = 0;
  offset_t max_len = 0;
  index_t max_row_span = 0;
#pragma omp parallel for schedule(static) \
    reduction(+ : rows, empty_rows, nnz) \
    reduction(max : max_len, max_row_span) if (plans_in_parallel(a))
  for (std::int64_t i = 0; i < nv; ++i) {
    const auto first =
        static_cast<std::int64_t>(vrows[static_cast<std::size_t>(i)]) * unit;
    const auto last = std::min<std::int64_t>(first + unit, m);
    for (std::int64_t r = first; r < last; ++r) {
      rows += 1;
      const offset_t beg = rp[static_cast<std::size_t>(r)];
      const offset_t end = rp[static_cast<std::size_t>(r) + 1];
      nnz += end - beg;
      max_len = std::max(max_len, end - beg);
      if (beg == end) {
        empty_rows += 1;
        continue;
      }
      index_t lo = ci[static_cast<std::size_t>(beg)];
      index_t hi = lo;
      for (offset_t j = beg + 1; j < end; ++j) {
        lo = std::min(lo, ci[static_cast<std::size_t>(j)]);
        hi = std::max(hi, ci[static_cast<std::size_t>(j)]);
      }
      max_row_span = std::max(max_row_span, hi - lo);
    }
  }
  BinFeatures f;
  f.rows = rows;
  f.nnz = nnz;
  f.empty_rows = empty_rows;
  f.max_len = max_len;
  f.max_row_span = max_row_span;
  if (f.rows > 0 && f.nnz > 0) {
    f.avg_len = static_cast<double>(f.nnz) / static_cast<double>(f.rows);
    f.padding_ratio = static_cast<double>(f.rows) *
                      static_cast<double>(f.max_len) /
                      static_cast<double>(f.nnz);
  }
  return f;
}

FormatKind estimate_bin_format(const BinFeatures& f) {
  if (f.nnz == 0) return FormatKind::Csr;
  // Near-uniform short rows: padding is negligible and the column-major
  // walk vectorizes — the textbook ELL case.
  if (f.padding_ratio <= 1.25 && f.max_len <= 64 && f.max_len >= 1)
    return FormatKind::Ell;
  // Banded: a span within 16 bits is exactly what the base-relative
  // offsets need; longer rows amortize the per-row base-column indirection.
  if (f.max_row_span <= kDcsrMaxSpan && f.avg_len >= 8.0)
    return FormatKind::Dcsr;
  // Scatter: mostly-empty bins or rows of one or two entries — iterating
  // triples skips the empty-slot probing CSR pays per covered row.
  if (f.empty_rows * 2 >= f.rows || f.avg_len <= 2.0) return FormatKind::Coo;
  return FormatKind::Csr;
}

template BinFeatures compute_bin_features(const CsrMatrix<float>&,
                                          std::span<const index_t>, index_t);
template BinFeatures compute_bin_features(const CsrMatrix<double>&,
                                          std::span<const index_t>, index_t);

}  // namespace spmv::fmt
