// Bin-local physical layouts and their builders.
//
// A layout is a materialized copy of one bin's rows in an alternative
// storage scheme. All three layouts carry the packed list of *actual* row
// ids the bin covers (`rows`) — every covered row, including empty ones —
// so a layout kernel can zero its y slice completely before accumulating,
// exactly like the CSR slot loop does. Builders are deterministic, bounded
// (they throw std::length_error when the transformation would not pay —
// e.g. ELL padding blow-up or a row span overflowing 16 bits), and
// record their own wall-clock cost so the lazy materialization layer can
// amortize it against observed reuse.
//
// Layout arrays are written once. The value arrays, Dcsr's offsets and its
// other per-row arrays are util::Buffers, which allocate without
// value-initialising: the builder's (parallel, for large Dcsr bins) walk
// over the bin is each entry's first write, and so the first touch of each
// page. ELL padding is the one explicit fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fmt/format.hpp"
#include "sparse/csr.hpp"
#include "util/buffer.hpp"

namespace spmv::fmt {

/// Immutable, reference-counted array: copies share one buffer. A layout's
/// structure arrays are SharedArrays, so a value refresh hands the new
/// layout the old one's structure without copying a byte of it. Reads like
/// a const std::vector (size, data, [] and a span view), and takes over any
/// std::vector, util::Buffer included.
template <typename X>
class SharedArray {
 public:
  SharedArray() = default;
  template <typename Alloc>
  SharedArray(std::vector<X, Alloc> v) {  // NOLINT: implicit, like a vector
    auto owner = std::make_shared<const std::vector<X, Alloc>>(std::move(v));
    data_ = owner->data();
    size_ = owner->size();
    owner_ = std::move(owner);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const X* data() const { return data_; }
  const X& operator[](std::size_t i) const { return data_[i]; }
  operator std::span<const X>() const { return {data_, size_}; }
  /// The shared buffer (null when default-constructed).
  [[nodiscard]] const std::shared_ptr<const void>& owner() const {
    return owner_;
  }

 private:
  std::shared_ptr<const void> owner_;
  const X* data_ = nullptr;
  std::size_t size_ = 0;
};

/// ELL-packed bin: every covered row padded to the bin's max row length,
/// columns/values column-major over the packed rows — entry (r, k) lives at
/// k*rows.size() + r, padded with col -1 / value 0. Mirrors sparse/ell.hpp
/// but packs only the bin's rows.
template <typename T>
struct EllBin {
  index_t width = 0;               ///< max row length in the bin
  SharedArray<index_t> rows;       ///< covered actual row ids (incl. empty)
  SharedArray<index_t> col;        ///< column-major, rows.size()*width
  util::Buffer<T> val;             ///< same shape, padded with 0
};

/// Coordinate-triple bin for scatter / mostly-empty bins: only the actual
/// non-zeros are stored (row-major order), so execution skips empty rows
/// entirely instead of probing row_ptr per slot. `chunk_ptr` partitions the
/// triples into parallel chunks that never split a row, so concurrent
/// chunks accumulate into disjoint y entries without atomics. There is
/// always at least one chunk, empty when the bin has no entries, and chunk
/// c owns packed rows [chunk_row[c], chunk_row[c+1]) — its entries' rows
/// plus the empty rows before the next chunk's — so it can zero exactly
/// the rows it accumulates into.
template <typename T>
struct CooBin {
  SharedArray<index_t> rows;        ///< covered actual row ids (for zeroing)
  SharedArray<index_t> entry_row;   ///< per-entry row id, non-decreasing
  SharedArray<index_t> entry_col;
  util::Buffer<T> entry_val;
  SharedArray<std::size_t> chunk_ptr;  ///< chunk offsets into the triples
  SharedArray<std::size_t> chunk_row;  ///< chunk offsets into `rows`
};

/// Compressed-column CSR bin for banded rows: per covered row, a full-width
/// base column (the row's smallest) plus one 16-bit offset from it per
/// entry — an entry of packed row p sits in column base_col[p] + its
/// offset. A row whose span (max col - min col) exceeds kDcsrMaxSpan makes
/// the bin unsuitable (the builder throws).
///
/// Entries are stored in slices of `slice` consecutive packed rows; slice
/// s occupies [row_ptr[s*slice], row_ptr[(s+1)*slice]) of offsets/vals.
/// Inside a slice, step k holds one entry of each of the slice's rows
/// longer than k, in packed order, so each row's entries keep their CSR
/// order and nothing is padded.
/// * slice == 1: plain CSR order, rows in covered order. The kernel splits
///   each row over independent accumulators.
/// * slice == kDcsrSlice: rows sorted by descending length inside each
///   kDcsrSortWindow window, so a slice's live rows are always a prefix.
///   The kernel runs one SIMD lane per row. The builder slices a bin only
///   when its slice fill reaches kDcsrMinSliceFill.
template <typename T>
struct DeltaBin {
  int slice = 1;                       ///< rows per slice: 1 or kDcsrSlice
  SharedArray<index_t> rows;           ///< covered actual row ids, packed
  SharedArray<offset_t> row_ptr;       ///< packed, rows.size()+1 entries
  SharedArray<index_t> base_col;       ///< smallest column per row (0 if empty)
  SharedArray<std::uint16_t> offsets;  ///< per-entry column - base_col
  util::Buffer<T> vals;                ///< the covered rows' CSR values
};

/// One bin's materialized layout: exactly one of the three payloads is
/// populated, selected by `kind` (never Csr — CSR bins execute straight
/// from the shared arrays and are never materialized). The structure
/// arrays are shared with every value refresh of the layout; only the
/// value array is per layout.
template <typename T>
struct BinLayout {
  FormatKind kind = FormatKind::Csr;
  int bin_id = -1;
  double build_s = 0.0;    ///< wall-clock cost of the transformation
  std::size_t bytes = 0;   ///< heap footprint of the materialized arrays
  /// CsrMatrix::structure_id() of the matrix the layout was built from: a
  /// value refresh is valid exactly for matrices on the same block.
  std::uint64_t source_structure = 0;
  EllBin<T> ell;
  CooBin<T> coo;
  DeltaBin<T> dcsr;
};

/// The value array of `l`'s populated payload.
template <typename T>
[[nodiscard]] const util::Buffer<T>& layout_values(const BinLayout<T>& l) {
  switch (l.kind) {
    case FormatKind::Ell: return l.ell.val;
    case FormatKind::Coo: return l.coo.entry_val;
    default: return l.dcsr.vals;
  }
}
template <typename T>
[[nodiscard]] util::Buffer<T>& layout_values(BinLayout<T>& l) {
  return const_cast<util::Buffer<T>&>(
      layout_values(static_cast<const BinLayout<T>&>(l)));
}

/// Owning handle on `l`'s structure (its covered-row array, shared by
/// every value refresh), for keying value recycling by structure.
template <typename T>
[[nodiscard]] std::shared_ptr<const void> layout_structure(
    const BinLayout<T>& l) {
  switch (l.kind) {
    case FormatKind::Ell: return l.ell.rows.owner();
    case FormatKind::Coo: return l.coo.rows.owner();
    default: return l.dcsr.rows.owner();
  }
}

/// Guardrails the builders enforce (the estimator applies tighter,
/// heuristic thresholds; these are correctness/memory bounds).
struct BuildLimits {
  double ell_max_expansion = 16.0;  ///< padded entries / bin nnz ceiling
  index_t ell_max_width = 4096;     ///< refuse absurdly wide ELL bins
};

/// Materialize one bin (virtual rows `vrows` at granularity `unit`) of `a`
/// in layout `kind`. Throws std::invalid_argument for kind == Csr and
/// std::length_error when the bin is unsuitable for the requested layout
/// (ELL expansion/width over the limits, a Dcsr row span over
/// kDcsrMaxSpan).
template <typename T>
[[nodiscard]] BinLayout<T> build_bin_layout(const CsrMatrix<T>& a,
                                            std::span<const index_t> vrows,
                                            index_t unit, FormatKind kind,
                                            int bin_id,
                                            const BuildLimits& limits = {});

/// Value-refreshed copy of `old` for `a`'s values: the structure arrays
/// are shared with `old`, and only the value array is written, in the
/// same parallel walk the builder makes. The old layout is never
/// mutated, because in-flight launches may still hold shared_ptrs to it.
/// `values` is the array to write into: a spare from an earlier refresh of
/// the same layout structure saves the page faults of a fresh allocation;
/// any other size is replaced by a fresh, unwritten array. Every entry is
/// written either way, so what `values` held does not matter. Used after
/// CsrMatrix::update_values / with_values so a matrix on an unchanged
/// structure keeps its materialized layouts instead of paying a rebuild.
/// Validation is O(1): `a` must be on the structure block the layout was
/// built from (BinLayout::source_structure), else std::length_error
/// (callers treat that as "drop and rebuild lazily").
template <typename T>
[[nodiscard]] BinLayout<T> refresh_layout_values(const CsrMatrix<T>& a,
                                                 const BinLayout<T>& old,
                                                 util::Buffer<T> values = {});

#define SPMV_FMT_LAYOUT_EXTERN(T)                                         \
  extern template struct BinLayout<T>;                                    \
  extern template BinLayout<T> build_bin_layout(                          \
      const CsrMatrix<T>&, std::span<const index_t>, index_t, FormatKind, \
      int, const BuildLimits&);                                           \
  extern template BinLayout<T> refresh_layout_values(                     \
      const CsrMatrix<T>&, const BinLayout<T>&, util::Buffer<T>);
SPMV_FMT_LAYOUT_EXTERN(float)
SPMV_FMT_LAYOUT_EXTERN(double)
#undef SPMV_FMT_LAYOUT_EXTERN

}  // namespace spmv::fmt
