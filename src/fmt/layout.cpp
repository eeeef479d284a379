#include "fmt/layout.hpp"

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/simd.hpp"
#include "util/timer.hpp"

namespace spmv::fmt {

namespace {

/// Dcsr bins with at least this many entries build and refresh in
/// parallel; smaller ones stay on the calling thread, because serving
/// builds layouts on the request path beside its other workers. The
/// covered-row list of any bin that large is filled in parallel too.
constexpr offset_t kParallelDcsrNnz = offset_t{1} << 20;

/// Actual row ids a bin covers: each virtual row v expands to rows
/// [v*unit, min((v+1)*unit, m)), in slot order. Includes empty rows — the
/// layout kernels own the zeroing of every covered y entry. `nnz` gets the
/// covered rows' entry count, one row_ptr difference per virtual row.
///
/// Only the matrix's last virtual row covers fewer than `unit` rows, so a
/// slot's rows start at slot * unit less what the short slots before it
/// lack: one counting pass, then a fill that is parallel for bins of
/// kParallelDcsrNnz entries or more.
template <typename T>
util::Buffer<index_t> covered_rows(const CsrMatrix<T>& a,
                                   std::span<const index_t> vrows,
                                   index_t unit, offset_t& nnz) {
  const auto rp = a.row_ptr();
  const std::int64_t m = a.rows();
  const auto nv = static_cast<std::int64_t>(vrows.size());
  const auto span_of = [&](std::int64_t i) {
    const auto first =
        static_cast<std::int64_t>(vrows[static_cast<std::size_t>(i)]) * unit;
    return std::pair{first, std::max(first, std::min<std::int64_t>(
                                                first + unit, m))};
  };
  // Short slots in slot order, each with the rows lacking up to it.
  std::vector<std::pair<std::int64_t, std::int64_t>> short_slots;
  std::int64_t lacking = 0;
  nnz = 0;
  for (std::int64_t i = 0; i < nv; ++i) {
    const auto [first, last] = span_of(i);
    if (first < last)
      nnz += rp[static_cast<std::size_t>(last)] -
             rp[static_cast<std::size_t>(first)];
    if (last - first < unit) {
      lacking += unit - (last - first);
      short_slots.emplace_back(i, lacking);
    }
  }
  util::Buffer<index_t> rows(static_cast<std::size_t>(nv * unit - lacking));
  index_t* const out = rows.data();
#pragma omp parallel for schedule(static) if (nnz >= kParallelDcsrNnz)
  for (std::int64_t i = 0; i < nv; ++i) {
    const auto it = std::lower_bound(
        short_slots.begin(), short_slots.end(), i,
        [](const auto& s, std::int64_t slot) { return s.first < slot; });
    const std::int64_t before =
        it == short_slots.begin() ? 0 : std::prev(it)->second;
    const auto [first, last] = span_of(i);
    index_t* dst = out + (i * unit - before);
    for (std::int64_t r = first; r < last; ++r)
      *dst++ = static_cast<index_t>(r);
  }
  return rows;
}

template <typename T>
void build_ell(const CsrMatrix<T>& a, util::Buffer<index_t> rows,
               offset_t nnz, BinLayout<T>& out, const BuildLimits& limits) {
  auto& e = out.ell;
  index_t width = 0;
  for (const index_t r : rows)
    width = std::max(width, static_cast<index_t>(a.row_nnz(r)));
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
  util::Buffer<index_t> col(n, index_t{-1});
  e.val.assign(n, T(0));  // the padding
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
void build_coo(const CsrMatrix<T>& a, util::Buffer<index_t> rows,
               offset_t nnz, BinLayout<T>& out) {
  auto& c = out.coo;
  util::Buffer<index_t> entry_row;
  util::Buffer<index_t> entry_col;
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
  if (chunk_ptr.size() == 1) chunk_ptr.push_back(0);
  // Each interior boundary starts a row's entries; the chunk owns the
  // packed rows from that row on, up to the next boundary's row.
  std::vector<std::size_t> chunk_row{0};
  std::size_t p = 0;
  std::size_t e = 0;
  for (std::size_t k = 1; k + 1 < chunk_ptr.size(); ++k) {
    while (e < chunk_ptr[k])
      e += static_cast<std::size_t>(a.row_nnz(rows[p++]));
    chunk_row.push_back(p);
  }
  chunk_row.push_back(rows.size());
  c.rows = std::move(rows);
  c.entry_row = std::move(entry_row);
  c.entry_col = std::move(entry_col);
  c.chunk_ptr = std::move(chunk_ptr);
  c.chunk_row = std::move(chunk_row);
  out.bytes = c.rows.size() * sizeof(index_t) +
              c.entry_row.size() * (2 * sizeof(index_t) + sizeof(T)) +
              2 * c.chunk_ptr.size() * sizeof(std::size_t);
}

/// Where one slice's rows sit in the CSR arrays, in packed order, and
/// where the slice starts in the layout's offsets/vals.
struct SliceRows {
  std::size_t h = 0;    ///< rows in the slice
  std::size_t dst = 0;  ///< the slice's first entry in offsets/vals
  offset_t src[kDcsrSlice] = {};
  offset_t len[kDcsrSlice] = {};
};

/// Calls put(i, dst, src) for every entry of one slice in storage order
/// (see DeltaBin): i is the row within the slice, dst the entry's index in
/// offsets/vals and src its index in the CSR arrays. The leading steps in
/// which all kDcsrSlice rows are live go to full(steps, dst) instead,
/// which must do what put() would for those steps' entries, stored from
/// dst on, kDcsrSlice to a step.
template <typename Full, typename Put>
void slice_entries(const SliceRows& s, Full full, Put put) {
  std::size_t dst = s.dst;
  if (s.h == 1) {
    for (offset_t k = 0; k < s.len[0]; ++k)
      put(std::size_t{0}, dst + static_cast<std::size_t>(k),
          static_cast<std::size_t>(s.src[0] + k));
    return;
  }
  offset_t k = 0;
  if (s.h == kDcsrSlice) {  // every row live: fixed-width steps
    k = s.len[kDcsrSlice - 1];
    full(k, dst);
    dst += static_cast<std::size_t>(k) * kDcsrSlice;
  }
  for (std::size_t live = s.h;; ++k) {
    while (live > 0 && s.len[live - 1] <= k) --live;
    if (live == 0) break;
    for (std::size_t i = 0; i < live; ++i)
      put(i, dst + i, static_cast<std::size_t>(s.src[i] + k));
    dst += live;
  }
}

/// The first `steps` steps of a slice whose kDcsrSlice rows are all live:
/// entry i of step k is CSR entry s.src[i] + k. Stores the steps' values,
/// and their column offsets from `base` (the slice's base columns) unless
/// `off` is null, from dst on. Float builds that target AVX-512 gather
/// each step's 16 lanes at once; anything else stores them one at a time.
/// Both store the same bytes.
template <typename T>
void full_steps(const SliceRows& s, offset_t steps, std::size_t dst,
                const index_t* ci, const index_t* base, std::uint16_t* off,
                const T* va, T* val) {
#ifdef SPMV_AVX512_SLICES
  if constexpr (std::is_same_v<T, float>) {
    static_assert(kDcsrSlice == 16 && sizeof(offset_t) == 8);
    // Two halves of 8 lanes, as gathers with 64-bit indices return 8.
    __m512i lo = _mm512_loadu_si512(s.src);
    __m512i hi = _mm512_loadu_si512(s.src + 8);
    const __m512i one = _mm512_set1_epi64(1);
    const auto base_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base));
    const auto base_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 8));
    const auto offsets = [&](__m512i idx, __m256i b) {
      const __m256i cols = _mm512_mask_i64gather_epi32(
          _mm256_setzero_si256(), 0xff, idx, ci, 4);
      return _mm256_maskz_cvtepi32_epi16(0xff, _mm256_sub_epi32(cols, b));
    };
    const auto values = [&](__m512i idx) {
      return _mm512_mask_i64gather_ps(_mm256_setzero_ps(), 0xff, idx, va, 4);
    };
    for (offset_t k = 0; k < steps; ++k, dst += kDcsrSlice) {
      if (off != nullptr) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(off + dst),
                         offsets(lo, base_lo));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(off + dst + 8),
                         offsets(hi, base_hi));
      }
      _mm256_storeu_ps(val + dst, values(lo));
      _mm256_storeu_ps(val + dst + 8, values(hi));
      lo = _mm512_add_epi64(lo, one);
      hi = _mm512_add_epi64(hi, one);
    }
    return;
  }
#endif
  for (offset_t k = 0; k < steps; ++k, dst += kDcsrSlice)
    for (std::size_t i = 0; i < kDcsrSlice; ++i) {
      const auto src = static_cast<std::size_t>(s.src[i] + k);
      if (off != nullptr)
        off[dst + i] = static_cast<std::uint16_t>(ci[src] - base[i]);
      val[dst + i] = va[src];
    }
}

/// A CSR array to prefetch from: its base address and element size.
struct CsrArray {
  const void* data;
  std::size_t elem;
};

/// Calls body(p0, slice) for every slice of a Dcsr bin (p0 = its first
/// packed row), in parallel when `parallel`. A sliced bin visits a
/// window's rows in length order rather than address order, which the
/// hardware prefetcher cannot follow, so each slice prefetches the CSR
/// entries — from every array in `csr_arrays` — of the slice one window
/// ahead.
template <typename Body>
void for_each_slice(std::span<const index_t> rows,
                    std::span<const offset_t> row_ptr,
                    std::span<const offset_t> csr_row_ptr, int slice,
                    bool parallel,
                    std::initializer_list<CsrArray> csr_arrays,
                    Body body) {
  const auto nrows = static_cast<std::int64_t>(rows.size());
  const std::int64_t nslices = (nrows + slice - 1) / slice;
  const std::int64_t ahead = kDcsrSortWindow / slice;
  const auto row_at = [&](std::size_t p) {
    return static_cast<std::size_t>(rows[p]);
  };
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t s = 0; s < nslices; ++s) {
    const auto p0 = static_cast<std::size_t>(s * slice);
    SliceRows sr;
    sr.h = static_cast<std::size_t>(
        std::min<std::int64_t>(slice, nrows - s * slice));
    sr.dst = static_cast<std::size_t>(row_ptr[p0]);
    for (std::size_t i = 0; i < sr.h; ++i) {
      sr.src[i] = csr_row_ptr[row_at(p0 + i)];
      sr.len[i] = row_ptr[p0 + i + 1] - row_ptr[p0 + i];
    }
    if (slice > 1 && s + ahead < nslices) {
      const auto q0 = p0 + static_cast<std::size_t>(kDcsrSortWindow);
      const std::size_t qh =
          std::min<std::size_t>(kDcsrSlice, rows.size() - q0);
      for (std::size_t i = 0; i < qh; ++i) {
        const std::size_t r = row_at(q0 + i);
        const auto first = static_cast<std::size_t>(csr_row_ptr[r]);
        const auto n = static_cast<std::size_t>(csr_row_ptr[r + 1]) - first;
        for (const CsrArray& arr : csr_arrays) {
          const char* b = static_cast<const char*>(arr.data) + first * arr.elem;
          for (std::size_t o = 0; o < n * arr.elem; o += 64)
            __builtin_prefetch(b + o);
        }
      }
    }
    body(p0, sr);
  }
}

/// Writes the rows `in` of one sort window to `out`, stably sorted by
/// descending length: a counting sort when the window's lengths span less
/// than a window, else a comparison sort.
void sort_window(std::span<const index_t> in, index_t* out,
                 std::span<const offset_t> rp) {
  offset_t len[kDcsrSortWindow];
  offset_t lo = 0;
  offset_t hi = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto r = static_cast<std::size_t>(in[i]);
    len[i] = rp[r + 1] - rp[r];
    lo = i == 0 ? len[i] : std::min(lo, len[i]);
    hi = i == 0 ? len[i] : std::max(hi, len[i]);
  }
  if (hi - lo < kDcsrSortWindow) {
    std::uint16_t at[kDcsrSortWindow + 1] = {};
    for (std::size_t i = 0; i < in.size(); ++i)
      ++at[static_cast<std::size_t>(hi - len[i]) + 1];
    for (int b = 1; b <= kDcsrSortWindow; ++b) at[b] += at[b - 1];
    for (std::size_t i = 0; i < in.size(); ++i)
      out[at[static_cast<std::size_t>(hi - len[i])]++] = in[i];
    return;
  }
  std::uint16_t order[kDcsrSortWindow];
  for (std::size_t i = 0; i < in.size(); ++i)
    order[i] = static_cast<std::uint16_t>(i);
  std::stable_sort(order, order + in.size(),
                   [&](std::uint16_t x, std::uint16_t y) {
                     return len[x] > len[y];
                   });
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[order[i]];
}

template <typename T>
void build_dcsr(const CsrMatrix<T>& a, util::Buffer<index_t> rows,
                offset_t nnz, BinLayout<T>& out) {
  auto& d = out.dcsr;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  const auto nrows = static_cast<std::int64_t>(rows.size());
  const bool parallel = nnz >= kParallelDcsrNnz;

  // σ sort, then the slice fill: each slice runs kDcsrSlice lanes for as
  // many steps as its first row, the longest after the sort. A window's
  // entry count is the same in either row order, so its start in
  // offsets/vals (win_ptr) is known before the order is.
  util::Buffer<index_t> sorted(rows.size());
  const std::int64_t nwin = (nrows + kDcsrSortWindow - 1) / kDcsrSortWindow;
  util::Buffer<offset_t> win_ptr(static_cast<std::size_t>(nwin) + 1);
  win_ptr[0] = 0;
  offset_t lane_steps = 0;
#pragma omp parallel for schedule(static) reduction(+ : lane_steps) \
    if (parallel)
  for (std::int64_t w = 0; w < nwin; ++w) {
    const auto lo = static_cast<std::size_t>(w * kDcsrSortWindow);
    const auto hi = std::min(rows.size(), lo + kDcsrSortWindow);
    sort_window(std::span<const index_t>(rows).subspan(lo, hi - lo),
                sorted.data() + lo, rp);
    offset_t entries = 0;
    for (std::size_t p = lo; p < hi; ++p) entries += a.row_nnz(sorted[p]);
    win_ptr[static_cast<std::size_t>(w) + 1] = entries;
    for (std::size_t p = lo; p < hi; p += kDcsrSlice)
      lane_steps += kDcsrSlice * a.row_nnz(sorted[p]);
  }
  for (std::size_t w = 0; w < static_cast<std::size_t>(nwin); ++w)
    win_ptr[w + 1] += win_ptr[w];
  if (nnz > 0 && static_cast<double>(nnz) >=
                     kDcsrMinSliceFill * static_cast<double>(lane_steps)) {
    d.slice = kDcsrSlice;
    rows.swap(sorted);
  }

  util::Buffer<offset_t> row_ptr(rows.size() + 1);
  row_ptr[0] = 0;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::int64_t w = 0; w < nwin; ++w) {
    const auto lo = static_cast<std::size_t>(w * kDcsrSortWindow);
    const auto hi = std::min(rows.size(), lo + kDcsrSortWindow);
    offset_t at = win_ptr[static_cast<std::size_t>(w)];
    for (std::size_t p = lo; p < hi; ++p) {
      at += a.row_nnz(rows[p]);
      row_ptr[p + 1] = at;
    }
  }
  // Written only by the slice walk below: these arrays are never
  // value-initialised, so the (parallel) walk is their first touch.
  util::Buffer<index_t> base_col(rows.size());
  util::Buffer<std::uint16_t> offsets(static_cast<std::size_t>(nnz));
  d.vals.resize(static_cast<std::size_t>(nnz));
  index_t* const base = base_col.data();
  std::uint16_t* const off = offsets.data();
  T* const val = d.vals.data();
  std::atomic<std::int64_t> bad{nrows};  // first packed row over 16 bits
  for_each_slice(
      rows, row_ptr, rp, d.slice, parallel,
      {{ci.data(), sizeof(index_t)}, {va.data(), sizeof(T)}},
      [&](std::size_t p0, const SliceRows& s) {
        for (std::size_t i = 0; i < s.h; ++i) {
          if (s.len[i] == 0) {
            base[p0 + i] = 0;
            continue;
          }
          // A plain loop, which vectorizes, where std::minmax_element
          // (which tracks positions) does not.
          const index_t* c = ci.data() + s.src[i];
          index_t lo = c[0];
          index_t hi = c[0];
          for (offset_t j = 1; j < s.len[i]; ++j) {
            lo = std::min(lo, c[j]);
            hi = std::max(hi, c[j]);
          }
          base[p0 + i] = lo;
          if (hi - lo <= kDcsrMaxSpan) continue;
          auto first = bad.load();
          const auto p = static_cast<std::int64_t>(p0 + i);
          while (p < first && !bad.compare_exchange_weak(first, p)) {
          }
        }
        slice_entries(
            s,
            [&](offset_t steps, std::size_t dst) {
              full_steps(s, steps, dst, ci.data(), base + p0, off, va.data(),
                         val);
            },
            [&](std::size_t i, std::size_t dst, std::size_t src) {
              off[dst] = static_cast<std::uint16_t>(ci[src] - base[p0 + i]);
              val[dst] = va[src];
            });
      });
  if (bad.load() < nrows) {
    const index_t r = rows[static_cast<std::size_t>(bad.load())];
    const auto cols = ci.subspan(
        static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]),
        static_cast<std::size_t>(a.row_nnz(r)));
    const auto [lo, hi] = std::minmax_element(cols.begin(), cols.end());
    throw std::length_error("fmt: Dcsr row " + std::to_string(r) + " spans " +
                            std::to_string(*hi - *lo) +
                            " columns, over 16 bits");
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
  offset_t nnz = 0;
  auto rows = covered_rows(a, vrows, unit, nnz);
  switch (kind) {
    case FormatKind::Ell:
      build_ell(a, std::move(rows), nnz, out, limits);
      break;
    case FormatKind::Coo:
      build_coo(a, std::move(rows), nnz, out);
      break;
    case FormatKind::Dcsr:
      build_dcsr(a, std::move(rows), nnz, out);
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
                                   util::Buffer<T> values) {
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
  // whatever `values` held before does not matter — only its size. A fresh
  // array is left unwritten until then.
  const std::size_t n = layout_values(old).size();
  if (values.size() != n) values = util::Buffer<T>(n);
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
      c.chunk_row = old.coo.chunk_row;
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
      d.slice = old.dcsr.slice;
      d.rows = old.dcsr.rows;
      d.row_ptr = old.dcsr.row_ptr;
      d.base_col = old.dcsr.base_col;
      d.offsets = old.dcsr.offsets;
      d.vals = std::move(values);
      T* const val = d.vals.data();
      for_each_slice(d.rows, d.row_ptr, rp, d.slice,
                     static_cast<offset_t>(n) >= kParallelDcsrNnz,
                     {{va.data(), sizeof(T)}},
                     [&](std::size_t, const SliceRows& s) {
                       slice_entries(
                           s,
                           [&](offset_t steps, std::size_t dst) {
                             full_steps<T>(s, steps, dst, nullptr, nullptr,
                                           nullptr, va.data(), val);
                           },
                           [&](std::size_t, std::size_t dst,
                               std::size_t src) { val[dst] = va[src]; });
                     });
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
      const CsrMatrix<T>&, const BinLayout<T>&, util::Buffer<T>);
SPMV_FMT_LAYOUT_INSTANTIATE(float)
SPMV_FMT_LAYOUT_INSTANTIATE(double)
#undef SPMV_FMT_LAYOUT_INSTANTIATE

}  // namespace spmv::fmt
