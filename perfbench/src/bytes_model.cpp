#include "bytes_model.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

using spmv::index_t;
using spmv::offset_t;

namespace {

constexpr double kIdx = sizeof(index_t);
constexpr double kOff = sizeof(offset_t);
constexpr double kVal = sizeof(Scalar);

/// x window and y block of one execution.
double vector_bytes(std::size_t distinct_cols, std::size_t rows, int width) {
  return (static_cast<double>(distinct_cols) + static_cast<double>(rows)) *
         kVal * width;
}

}  // namespace

std::size_t distinct_columns(const spmv::CsrMatrix<Scalar>& a,
                             std::span<const index_t> vrows, index_t unit) {
  std::vector<bool> seen(static_cast<std::size_t>(a.cols()), false);
  std::size_t count = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (const index_t v : vrows) {
    const index_t lo = v * unit;
    const index_t hi = std::min(lo + unit, a.rows());
    for (offset_t k = rp[static_cast<std::size_t>(lo)];
         k < rp[static_cast<std::size_t>(hi)]; ++k) {
      const auto c = static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
      if (!seen[c]) {
        seen[c] = true;
        ++count;
      }
    }
  }
  return count;
}

double csr_bin_bytes(const spmv::CsrMatrix<Scalar>& a,
                     std::span<const index_t> vrows, index_t unit,
                     std::size_t distinct_cols, int width) {
  std::size_t rows = 0;
  offset_t nnz = 0;
  const auto rp = a.row_ptr();
  for (const index_t v : vrows) {
    const index_t lo = v * unit;
    const index_t hi = std::min(lo + unit, a.rows());
    rows += static_cast<std::size_t>(hi - lo);
    nnz += rp[static_cast<std::size_t>(hi)] - rp[static_cast<std::size_t>(lo)];
  }
  const double row_ptr =
      static_cast<double>(rows + vrows.size()) * kOff;
  const double entries = static_cast<double>(nnz) * (kIdx + kVal);
  return row_ptr + entries + vector_bytes(distinct_cols, rows, width);
}

double layout_bytes(const spmv::fmt::BinLayout<Scalar>& l,
                    std::size_t distinct_cols, int width) {
  using spmv::fmt::FormatKind;
  switch (l.kind) {
    case FormatKind::Ell: {
      const auto rows = l.ell.rows.size();
      const double padded = static_cast<double>(rows) *
                            static_cast<double>(l.ell.width) * (kIdx + kVal);
      return static_cast<double>(rows) * kIdx + padded +
             vector_bytes(distinct_cols, rows, width);
    }
    case FormatKind::Coo: {
      const auto rows = l.coo.rows.size();
      const auto nnz = l.coo.entry_val.size();
      return static_cast<double>(rows) * kIdx +
             static_cast<double>(nnz) * (2 * kIdx + kVal) +
             static_cast<double>(l.coo.chunk_ptr.size()) *
                 sizeof(std::size_t) +
             vector_bytes(distinct_cols, rows, width);
    }
    case FormatKind::Dcsr: {
      const auto rows = l.dcsr.rows.size();
      const auto nnz = l.dcsr.vals.size();
      return static_cast<double>(rows) * kIdx +
             static_cast<double>(l.dcsr.row_ptr.size()) * kOff +
             static_cast<double>(l.dcsr.base_col.size()) * kIdx +
             static_cast<double>(nnz) * (sizeof(std::uint16_t) + kVal) +
             vector_bytes(distinct_cols, rows, width);
    }
    case FormatKind::Csr:
      break;
  }
  return 0.0;
}

}  // namespace perfbench
