#include "sparse/csr.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace spmv {

namespace detail {
std::uint64_t next_matrix_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

template <typename T>
void parallel_copy(std::span<const T> src, std::span<T> dst) {
  if (src.size() != dst.size())
    throw std::invalid_argument("parallel_copy: size mismatch");
  // 64K-entry chunks: below a few chunks the thread start-up costs more
  // than the copy.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const auto chunks =
      static_cast<std::int64_t>((src.size() + kChunk - 1) / kChunk);
#pragma omp parallel for schedule(static) if (chunks > 4)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kChunk;
    const std::size_t hi = std::min(lo + kChunk, src.size());
    std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo),
              src.begin() + static_cast<std::ptrdiff_t>(hi),
              dst.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

template void parallel_copy(std::span<const float>, std::span<float>);
template void parallel_copy(std::span<const double>, std::span<double>);
}  // namespace detail

template <typename T>
const std::shared_ptr<const typename CsrMatrix<T>::Structure>&
CsrMatrix<T>::empty_structure() {
  static const std::shared_ptr<const Structure> empty = [] {
    auto s = std::make_shared<Structure>();
    s->row_ptr.assign(1, 0);
    return std::shared_ptr<const Structure>(std::move(s));
  }();
  return empty;
}

template <typename T>
CsrMatrix<T>::CsrMatrix(index_t rows, index_t cols,
                        std::vector<offset_t> row_ptr,
                        std::vector<index_t> col_idx, std::vector<T> vals)
    : vals_(vals.begin(), vals.end()) {
  if (rows < 0 || cols < 0)
    throw std::invalid_argument("CsrMatrix: negative dimensions");
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1)
    throw std::invalid_argument("CsrMatrix: row_ptr size != rows+1");
  if (col_idx.size() != vals_.size())
    throw std::invalid_argument("CsrMatrix: col_idx/vals size mismatch");
  if (row_ptr.back() != static_cast<offset_t>(col_idx.size()))
    throw std::invalid_argument("CsrMatrix: row_ptr.back() != nnz");
  if (row_ptr.front() != 0)
    throw std::invalid_argument("CsrMatrix: row_ptr[0] != 0");
  for (std::size_t i = 1; i < row_ptr.size(); ++i) {
    if (row_ptr[i] < row_ptr[i - 1])
      throw std::invalid_argument("CsrMatrix: row_ptr not monotone");
  }
  auto s = std::make_shared<Structure>();
  s->rows = rows;
  s->cols = cols;
  s->row_ptr = std::move(row_ptr);
  s->col_idx = std::move(col_idx);
  s_ = std::move(s);
}

template <typename T>
bool CsrMatrix<T>::validate(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  const auto& rp = s_->row_ptr;
  if (rp.empty() || rp.front() != 0) return fail("row_ptr[0] != 0");
  for (std::size_t i = 1; i < rp.size(); ++i) {
    if (rp[i] < rp[i - 1]) return fail("row_ptr not monotone");
  }
  if (rp.back() != static_cast<offset_t>(s_->col_idx.size()))
    return fail("row_ptr.back() != col_idx.size()");
  for (index_t c : s_->col_idx) {
    if (c < 0 || c >= s_->cols) return fail("column index out of range");
  }
  if (why) why->clear();
  return true;
}

template class CsrMatrix<float>;
template class CsrMatrix<double>;

}  // namespace spmv
