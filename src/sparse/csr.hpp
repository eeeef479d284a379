// Compressed Sparse Row matrix — the storage format the whole paper (and
// therefore this library) is built around (Figure 1 of the paper).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sparse/types.hpp"
#include "util/buffer.hpp"

namespace spmv {

namespace detail {
/// Process-unique, never-recycled id source for CsrMatrix::instance_id()
/// and CsrMatrix::structure_id(). Thread-safe; starts at 1 so 0 can mean
/// "no instance".
std::uint64_t next_matrix_instance_id();

/// dst[i] = src[i], split across OpenMP threads when the arrays are large
/// (value refreshes of DRAM-sized matrices are bandwidth-bound, and one
/// thread reaches a fraction of it). Sizes must match.
template <typename T>
void parallel_copy(std::span<const T> src, std::span<T> dst);
}  // namespace detail

/// CSR sparse matrix.
///
/// Invariants (checked by validate()):
///  * row_ptr has rows()+1 entries, is non-decreasing, row_ptr[0] == 0 and
///    row_ptr[rows()] == nnz();
///  * col_idx/vals have nnz() entries; every column index is in [0, cols()).
/// Column indices within a row are not required to be sorted (generators
/// produce sorted rows, but kernels never rely on it).
///
/// The structure (shape, row_ptr, col_idx) lives in one immutable,
/// reference-counted block; the values are per instance. Copies and
/// with_values() share the block, so a value-only change never copies
/// structure bytes, and structure_id() tells in O(1) whether two matrices
/// share it.
template <typename T>
class CsrMatrix {
 public:
  using value_type = T;

  CsrMatrix() : s_(empty_structure()) {}

  /// Adopt pre-built arrays; the values are copied, on the calling thread,
  /// into the matrix's own util::Buffer. Throws std::invalid_argument when the basic shape
  /// constraints are violated (full validation is validate()).
  CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<T> vals);

  // The instance id identifies "these values in this object". A copy is a
  // new instance (its values can diverge after the copy); a move carries
  // the buffers, so the id travels with them and the moved-from shell — an
  // empty 0x0 matrix — is re-issued a fresh one. Ids are never recycled,
  // so — unlike a buffer address — an id observed once can never later
  // denote different values. Copies share the structure block.
  CsrMatrix(const CsrMatrix& o) : s_(o.s_), vals_(o.vals_) {}
  CsrMatrix& operator=(const CsrMatrix& o) {
    s_ = o.s_;
    vals_ = o.vals_;
    instance_id_ = detail::next_matrix_instance_id();
    return *this;
  }
  CsrMatrix(CsrMatrix&& o) noexcept
      : s_(std::exchange(o.s_, empty_structure())),
        vals_(std::move(o.vals_)),
        instance_id_(o.instance_id_) {
    o.vals_.clear();
    o.instance_id_ = detail::next_matrix_instance_id();
  }
  CsrMatrix& operator=(CsrMatrix&& o) noexcept {
    if (this != &o) {
      s_ = std::exchange(o.s_, empty_structure());
      vals_ = std::move(o.vals_);
      o.vals_.clear();
      instance_id_ = o.instance_id_;
      o.instance_id_ = detail::next_matrix_instance_id();
    }
    return *this;
  }
  ~CsrMatrix() = default;

  [[nodiscard]] index_t rows() const { return s_->rows; }
  [[nodiscard]] index_t cols() const { return s_->cols; }
  [[nodiscard]] offset_t nnz() const { return s_->row_ptr.back(); }

  [[nodiscard]] std::span<const offset_t> row_ptr() const {
    return s_->row_ptr;
  }
  [[nodiscard]] std::span<const index_t> col_idx() const {
    return s_->col_idx;
  }
  [[nodiscard]] std::span<const T> vals() const { return vals_; }
  /// Mutable values. Anything keyed to instance_id() embeds the values it
  /// saw (e.g. a materialized fmt layout), so handing out write access
  /// re-issues the id — the caller is free to diverge the buffer.
  [[nodiscard]] std::span<T> vals_mutable() {
    instance_id_ = detail::next_matrix_instance_id();
    return vals_;
  }

  /// Replace the nonzero values in place, keeping the structure (row_ptr /
  /// col_idx) untouched. `new_vals` must hold exactly nnz() entries in CSR
  /// order, else std::invalid_argument. A value-only mutation: plans and
  /// bins stay valid (they are structure-derived), but anything keyed to
  /// instance_id() embeds the old values, so the id is re-issued — layout
  /// caches revalidate via fmt::PlanLayouts::refresh_values instead of
  /// rebuilding from scratch.
  void update_values(std::span<const T> new_vals) {
    check_value_count(new_vals.size());
    std::copy(new_vals.begin(), new_vals.end(), vals_.begin());
    instance_id_ = detail::next_matrix_instance_id();
  }

  /// A new instance on this matrix's structure block (nothing structural
  /// is copied) holding a parallel copy of `new_vals` — nnz() entries in
  /// CSR order, else std::invalid_argument.
  [[nodiscard]] CsrMatrix with_values(std::span<const T> new_vals) const {
    check_value_count(new_vals.size());
    util::Buffer<T> v(new_vals.size());
    detail::parallel_copy(new_vals, std::span<T>(v));
    return with_values(std::move(v));
  }
  /// Same, adopting `new_vals` as the value array without copying it.
  [[nodiscard]] CsrMatrix with_values(util::Buffer<T>&& new_vals) const {
    check_value_count(new_vals.size());
    CsrMatrix m;
    m.s_ = s_;
    m.vals_ = std::move(new_vals);
    return m;
  }

  /// Move the value array out, leaving *this an empty 0x0 matrix — how a
  /// retiring matrix hands its (already page-touched) buffer to the next
  /// value write on the same structure.
  [[nodiscard]] util::Buffer<T> release_values() && {
    util::Buffer<T> v = std::move(vals_);
    *this = CsrMatrix();
    return v;
  }

  /// Process-unique identity of this (object, values) pairing — stable
  /// across const reads, re-issued by copies/moves and vals_mutable().
  /// Never recycled, so it is safe to key caches of values-derived data by
  /// it even after the matrix dies (a buffer address is not: allocators
  /// reuse addresses).
  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

  /// Process-unique, never-recycled identity of the structure block. Equal
  /// ids mean identical structure (the block is immutable); unequal ids
  /// say nothing — two blocks built from equal arrays differ.
  [[nodiscard]] std::uint64_t structure_id() const { return s_->id; }
  /// Opaque owning handle on the structure block, for keying
  /// structure-derived caches by weak reference.
  [[nodiscard]] std::shared_ptr<const void> structure() const { return s_; }
  /// Same shape, row_ptr and col_idx: O(1) when the block is shared, a
  /// full array compare otherwise.
  [[nodiscard]] bool same_structure(const CsrMatrix& o) const {
    return s_ == o.s_ ||
           (s_->rows == o.s_->rows && s_->cols == o.s_->cols &&
            s_->row_ptr == o.s_->row_ptr && s_->col_idx == o.s_->col_idx);
  }

  /// Number of non-zeros in row i.
  [[nodiscard]] offset_t row_nnz(index_t i) const {
    return s_->row_ptr[static_cast<std::size_t>(i) + 1] -
           s_->row_ptr[static_cast<std::size_t>(i)];
  }

  /// Full structural validation; returns an explanation on failure.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

  /// Approximate heap footprint in bytes (arrays only; a shared structure
  /// block counts in full for every matrix on it).
  [[nodiscard]] std::size_t bytes() const {
    return s_->row_ptr.size() * sizeof(offset_t) +
           s_->col_idx.size() * sizeof(index_t) + vals_.size() * sizeof(T);
  }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.same_structure(b) && a.vals_ == b.vals_;
  }

 private:
  struct Structure {
    index_t rows = 0;
    index_t cols = 0;
    std::vector<offset_t> row_ptr;
    std::vector<index_t> col_idx;
    std::uint64_t id = detail::next_matrix_instance_id();
  };

  static const std::shared_ptr<const Structure>& empty_structure();

  void check_value_count(std::size_t n) const {
    if (n != static_cast<std::size_t>(nnz()))
      throw std::invalid_argument(
          "CsrMatrix: expected " + std::to_string(nnz()) + " values, got " +
          std::to_string(n));
  }

  std::shared_ptr<const Structure> s_;
  /// A util::Buffer, so a fresh value array is not zero-filled before its
  /// first write (with_values, the constructor's copy) touches it.
  util::Buffer<T> vals_;
  std::uint64_t instance_id_ = detail::next_matrix_instance_id();
};

extern template class CsrMatrix<float>;
extern template class CsrMatrix<double>;

}  // namespace spmv
