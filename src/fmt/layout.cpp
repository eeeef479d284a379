#include "fmt/layout.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/timer.hpp"

namespace spmv::fmt {

namespace {

/// Actual row ids a bin covers: each virtual row v expands to rows
/// [v*unit, min((v+1)*unit, m)), in slot order. Includes empty rows — the
/// layout kernels own the zeroing of every covered y entry.
std::vector<index_t> covered_rows(std::span<const index_t> vrows,
                                  index_t unit, index_t m) {
  std::vector<index_t> rows;
  rows.reserve(vrows.size() * static_cast<std::size_t>(unit));
  for (const index_t v : vrows) {
    const auto first = static_cast<std::int64_t>(v) * unit;
    for (index_t k = 0; k < unit; ++k) {
      const std::int64_t r = first + k;
      if (r >= m) break;
      rows.push_back(static_cast<index_t>(r));
    }
  }
  return rows;
}

template <typename T>
void build_ell(const CsrMatrix<T>& a, std::vector<index_t> rows,
               BinLayout<T>& out, const BuildLimits& limits) {
  auto& e = out.ell;
  offset_t nnz = 0;
  index_t width = 0;
  for (const index_t r : rows) {
    const offset_t len = a.row_nnz(r);
    nnz += len;
    width = std::max(width, static_cast<index_t>(len));
  }
  if (width > limits.ell_max_width)
    throw std::length_error("fmt: ELL bin width " + std::to_string(width) +
                            " exceeds limit");
  const auto padded = static_cast<double>(rows.size()) *
                      static_cast<double>(width);
  if (nnz > 0 && padded > limits.ell_max_expansion * static_cast<double>(nnz))
    throw std::length_error("fmt: ELL padding would expand bin " +
                            std::to_string(out.bin_id) + " beyond " +
                            std::to_string(limits.ell_max_expansion) + "x");
  e.width = width;
  const std::size_t n = rows.size() * static_cast<std::size_t>(width);
  std::vector<index_t> col(n, index_t{-1});
  e.val.assign(n, T(0));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  for (std::size_t pr = 0; pr < rows.size(); ++pr) {
    const auto r = static_cast<std::size_t>(rows[pr]);
    const offset_t beg = rp[r];
    const offset_t end = rp[r + 1];
    for (offset_t j = beg; j < end; ++j) {
      const auto k = static_cast<std::size_t>(j - beg);
      col[k * rows.size() + pr] = ci[static_cast<std::size_t>(j)];
      e.val[k * rows.size() + pr] = va[static_cast<std::size_t>(j)];
    }
  }
  e.rows = std::move(rows);
  e.col = std::move(col);
  out.bytes = e.rows.size() * sizeof(index_t) + e.col.size() * sizeof(index_t) +
              e.val.size() * sizeof(T);
}

template <typename T>
void build_coo(const CsrMatrix<T>& a, std::vector<index_t> rows,
               BinLayout<T>& out) {
  auto& c = out.coo;
  offset_t nnz = 0;
  for (const index_t r : rows) nnz += a.row_nnz(r);
  std::vector<index_t> entry_row;
  std::vector<index_t> entry_col;
  entry_row.reserve(static_cast<std::size_t>(nnz));
  entry_col.reserve(static_cast<std::size_t>(nnz));
  c.entry_val.reserve(static_cast<std::size_t>(nnz));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  for (const index_t r : rows) {
    const offset_t beg = rp[static_cast<std::size_t>(r)];
    const offset_t end = rp[static_cast<std::size_t>(r) + 1];
    for (offset_t j = beg; j < end; ++j) {
      entry_row.push_back(r);
      entry_col.push_back(ci[static_cast<std::size_t>(j)]);
      c.entry_val.push_back(va[static_cast<std::size_t>(j)]);
    }
  }
  // Chunk boundaries every ~8192 entries, snapped forward to the next row
  // boundary so a row never straddles two chunks (keeps the parallel
  // accumulation race-free without atomics).
  constexpr std::size_t kChunkTarget = 8192;
  std::vector<std::size_t> chunk_ptr{0};
  std::size_t i = 0;
  while (i < entry_row.size()) {
    std::size_t next = std::min(i + kChunkTarget, entry_row.size());
    while (next < entry_row.size() && entry_row[next] == entry_row[next - 1])
      ++next;
    chunk_ptr.push_back(next);
    i = next;
  }
  c.rows = std::move(rows);
  c.entry_row = std::move(entry_row);
  c.entry_col = std::move(entry_col);
  c.chunk_ptr = std::move(chunk_ptr);
  out.bytes = c.rows.size() * sizeof(index_t) +
              c.entry_row.size() * (2 * sizeof(index_t) + sizeof(T)) +
              c.chunk_ptr.size() * sizeof(std::size_t);
}

template <typename T>
void build_dcsr(const CsrMatrix<T>& a, std::vector<index_t> rows,
                BinLayout<T>& out) {
  auto& d = out.dcsr;
  offset_t nnz = 0;
  for (const index_t r : rows) nnz += a.row_nnz(r);
  std::vector<offset_t> row_ptr;
  std::vector<index_t> base_col;
  std::vector<std::uint16_t> offsets;
  row_ptr.reserve(rows.size() + 1);
  base_col.reserve(rows.size());
  offsets.reserve(static_cast<std::size_t>(nnz));
  d.vals.reserve(static_cast<std::size_t>(nnz));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  row_ptr.push_back(0);
  for (const index_t r : rows) {
    const auto first =
        static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
    const auto len = static_cast<std::size_t>(a.row_nnz(r));
    const auto cols = ci.subspan(first, len);
    index_t base = 0;
    if (len > 0) {
      const auto [lo, hi] = std::minmax_element(cols.begin(), cols.end());
      if (*hi - *lo > kDcsrMaxSpan)
        throw std::length_error("fmt: Dcsr row " + std::to_string(r) +
                                " spans " + std::to_string(*hi - *lo) +
                                " columns, over 16 bits");
      base = *lo;
    }
    base_col.push_back(base);
    for (const index_t c : cols)
      offsets.push_back(static_cast<std::uint16_t>(c - base));
    const auto vals = va.subspan(first, len);
    d.vals.insert(d.vals.end(), vals.begin(), vals.end());
    row_ptr.push_back(row_ptr.back() + static_cast<offset_t>(len));
  }
  d.rows = std::move(rows);
  d.row_ptr = std::move(row_ptr);
  d.base_col = std::move(base_col);
  d.offsets = std::move(offsets);
  out.bytes = d.rows.size() * sizeof(index_t) +
              d.row_ptr.size() * sizeof(offset_t) +
              d.base_col.size() * sizeof(index_t) +
              d.offsets.size() * sizeof(std::uint16_t) +
              d.vals.size() * sizeof(T);
}

}  // namespace

template <typename T>
BinLayout<T> build_bin_layout(const CsrMatrix<T>& a,
                              std::span<const index_t> vrows, index_t unit,
                              FormatKind kind, int bin_id,
                              const BuildLimits& limits) {
  if (kind == FormatKind::Csr)
    throw std::invalid_argument(
        "fmt: CSR bins execute from the shared arrays; nothing to build");
  util::Timer t;
  BinLayout<T> out;
  out.kind = kind;
  out.bin_id = bin_id;
  out.source_structure = a.structure_id();
  auto rows = covered_rows(vrows, unit, a.rows());
  switch (kind) {
    case FormatKind::Ell:
      build_ell(a, std::move(rows), out, limits);
      break;
    case FormatKind::Coo:
      build_coo(a, std::move(rows), out);
      break;
    case FormatKind::Dcsr:
      build_dcsr(a, std::move(rows), out);
      break;
    case FormatKind::Csr:
      break;  // unreachable
  }
  out.build_s = t.elapsed_s();
  return out;
}

template <typename T>
BinLayout<T> refresh_layout_values(const CsrMatrix<T>& a,
                                   const BinLayout<T>& old,
                                   std::vector<T> values) {
  if (old.kind == FormatKind::Csr)
    throw std::invalid_argument(
        "fmt: CSR bins execute from the shared arrays; nothing to refresh");
  if (a.structure_id() != old.source_structure)
    throw std::length_error(
        "fmt: refresh needs the structure the layout was built from");
  BinLayout<T> out;
  out.kind = old.kind;
  out.bin_id = old.bin_id;
  out.build_s = old.build_s;
  out.bytes = old.bytes;
  out.source_structure = old.source_structure;
  const auto rp = a.row_ptr();
  const auto va = a.vals();
  const auto src = [&](index_t r) {
    return va.subspan(
        static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(a.row_nnz(r)));
  };
  // Every entry of the value array is written below (ELL padding too), so
  // whatever `values` held before does not matter — only its size.
  const std::size_t n = layout_values(old).size();
  if (values.size() != n) values = std::vector<T>(n);
  switch (old.kind) {
    case FormatKind::Ell: {
      auto& e = out.ell;
      e.width = old.ell.width;
      e.rows = old.ell.rows;
      e.col = old.ell.col;
      e.val = std::move(values);
      const std::size_t nrows = e.rows.size();
      const auto sn = static_cast<std::int64_t>(nrows);
#pragma omp parallel for schedule(static) if (sn > 1024)
      for (std::int64_t i = 0; i < sn; ++i) {
        const auto pr = static_cast<std::size_t>(i);
        const auto row = src(e.rows[pr]);
        for (std::size_t k = 0; k < static_cast<std::size_t>(e.width); ++k)
          e.val[k * nrows + pr] = k < row.size() ? row[k] : T(0);
      }
      break;
    }
    case FormatKind::Coo: {
      // Chunks start on row boundaries and hold whole rows in entry order.
      auto& c = out.coo;
      c.rows = old.coo.rows;
      c.entry_row = old.coo.entry_row;
      c.entry_col = old.coo.entry_col;
      c.chunk_ptr = old.coo.chunk_ptr;
      c.entry_val = std::move(values);
      const auto nchunks = static_cast<std::int64_t>(c.chunk_ptr.size()) - 1;
#pragma omp parallel for schedule(dynamic, 1) if (nchunks > 1)
      for (std::int64_t ch = 0; ch < nchunks; ++ch) {
        std::size_t j = c.chunk_ptr[static_cast<std::size_t>(ch)];
        const std::size_t hi = c.chunk_ptr[static_cast<std::size_t>(ch) + 1];
        while (j < hi) {
          const auto row = src(c.entry_row[j]);
          std::copy(row.begin(), row.end(),
                    c.entry_val.begin() + static_cast<std::ptrdiff_t>(j));
          j += row.size();
        }
      }
      break;
    }
    case FormatKind::Dcsr: {
      auto& d = out.dcsr;
      d.rows = old.dcsr.rows;
      d.row_ptr = old.dcsr.row_ptr;
      d.base_col = old.dcsr.base_col;
      d.offsets = old.dcsr.offsets;
      d.vals = std::move(values);
      const auto sn = static_cast<std::int64_t>(d.rows.size());
#pragma omp parallel for schedule(static) if (sn > 1024)
      for (std::int64_t i = 0; i < sn; ++i) {
        const auto pr = static_cast<std::size_t>(i);
        const auto row = src(d.rows[pr]);
        std::copy(row.begin(), row.end(),
                  d.vals.begin() + static_cast<std::ptrdiff_t>(d.row_ptr[pr]));
      }
      break;
    }
    case FormatKind::Csr:
      break;  // unreachable
  }
  return out;
}

#define SPMV_FMT_LAYOUT_INSTANTIATE(T)                                    \
  template struct BinLayout<T>;                                           \
  template BinLayout<T> build_bin_layout(                                 \
      const CsrMatrix<T>&, std::span<const index_t>, index_t, FormatKind, \
      int, const BuildLimits&);                                           \
  template BinLayout<T> refresh_layout_values(                            \
      const CsrMatrix<T>&, const BinLayout<T>&, std::vector<T>);
SPMV_FMT_LAYOUT_INSTANTIATE(float)
SPMV_FMT_LAYOUT_INSTANTIATE(double)
#undef SPMV_FMT_LAYOUT_INSTANTIATE

}  // namespace spmv::fmt
