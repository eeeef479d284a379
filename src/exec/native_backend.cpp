#include "exec/native_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "fmt/layout.hpp"
#include "kernels/binned_common.hpp"
#include "prof/counters.hpp"
#include "util/simd.hpp"
#include "util/threads.hpp"

// Sliced Dcsr bins of float run an AVX-512 kernel when the build targets
// it (SPMV_AVX512_SLICES); everything else runs the portable loop, which
// gives the same bits.

namespace spmv::exec {

namespace {

using kernels::KernelId;
using kernels::RowMap;

// --- per-row dot products, one per kernel shape -----------------------
//
// Every shape computes the same sum over one row's nonzeros; the id only
// changes how the stream is organized, mirroring how the clsim kernels
// differ only in thread organization.
//
// The CSR-path kernels (scalar and SpMM) spell every multiply-add as
// std::fma rather than `acc += a * b`: with -ffp-contract=fast the
// compiler may contract one inlined copy of a loop to FMA and leave
// another as mul+add, which silently breaks the bit-identity contract
// between the single-vector and SpMM paths. An explicit fma is one
// correctly-rounded operation everywhere, so identical accumulation order
// in the source guarantees identical bits in the output regardless of
// inline site or optimization level.

/// Serial: plain scalar loop.
template <typename T>
T dot_plain(std::span<const offset_t> rp, std::span<const index_t> ci,
            std::span<const T> v, std::span<const T> x, index_t r) {
  const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
  const auto hi =
      static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
  T acc{};
  for (std::size_t k = lo; k < hi; ++k)
    acc = std::fma(v[k], x[static_cast<std::size_t>(ci[k])], acc);
  return acc;
}

/// Sub<X>: X partial accumulators over an X-wide unrolled stream — the CPU
/// analogue of X cooperating lanes; the partials live in SIMD registers.
template <typename T, int X>
T dot_lanes(std::span<const offset_t> rp, std::span<const index_t> ci,
            std::span<const T> v, std::span<const T> x, index_t r) {
  const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
  const auto hi =
      static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
  T part[X] = {};
  std::size_t k = lo;
  for (; k + X <= hi; k += X)
    for (int l = 0; l < X; ++l)
      part[l] =
          std::fma(v[k + l], x[static_cast<std::size_t>(ci[k + l])], part[l]);
  T acc{};
  for (int l = 0; l < X; ++l) acc += part[l];
  for (; k < hi; ++k)
    acc = std::fma(v[k], x[static_cast<std::size_t>(ci[k])], acc);
  return acc;
}

/// Vector: whole-row simd reduction. noinline: the simd pragma lets the
/// vectorizer pick the reduction shape, and two inlined copies of this
/// loop could legally vectorize differently. Keeping one out-of-line
/// instantiation per T means the single-vector path and the SpMM path
/// (which reuses this function per column) execute the same machine code,
/// so their bits cannot diverge.
template <typename T>
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline))
#endif
T dot_simd(std::span<const offset_t> rp, std::span<const index_t> ci,
           std::span<const T> v, std::span<const T> x, index_t r) {
  const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
  const auto hi =
      static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
  T acc{};
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
  for (std::size_t k = lo; k < hi; ++k)
    acc += v[k] * x[static_cast<std::size_t>(ci[k])];
  return acc;
}

/// Write each covered row's dot product for slots [s0, s1) of a bin.
template <typename T, typename Dot>
void slot_range(std::span<T> y, const RowMap& map, std::int64_t s0,
                std::int64_t s1, Dot dot) {
  for (std::int64_t s = s0; s < s1; ++s) {
    const index_t r = map.slot_to_row(s);
    if (r < 0) continue;
    y[static_cast<std::size_t>(r)] = dot(r);
  }
}

template <typename T>
void csr_range(KernelId id, const CsrMatrix<T>& a, std::span<const T> x,
               std::span<T> y, const RowMap& map, std::int64_t s0,
               std::int64_t s1) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  switch (id) {
    case KernelId::Serial:
      return slot_range(y, map, s0, s1,
                        [&](index_t r) { return dot_plain(rp, ci, v, x, r); });
    case KernelId::Sub2:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 2>(rp, ci, v, x, r);
      });
    case KernelId::Sub4:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 4>(rp, ci, v, x, r);
      });
    case KernelId::Sub8:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 8>(rp, ci, v, x, r);
      });
    case KernelId::Sub16:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 16>(rp, ci, v, x, r);
      });
    case KernelId::Sub32:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 32>(rp, ci, v, x, r);
      });
    case KernelId::Sub64:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 64>(rp, ci, v, x, r);
      });
    case KernelId::Sub128:
      return slot_range(y, map, s0, s1, [&](index_t r) {
        return dot_lanes<T, 128>(rp, ci, v, x, r);
      });
    case KernelId::Vector:
      return slot_range(y, map, s0, s1,
                        [&](index_t r) { return dot_simd(rp, ci, v, x, r); });
  }
}

// --- true SpMM (blocked multi-vector traversal) -----------------------
//
// One CSR traversal of the bin's rows feeds a register tile of output
// columns: each row's (val, col) stream is read once per column tile
// instead of once per column, which is where the memory-bound ceiling
// lifts for solver workloads. Per output column the products accumulate in
// exactly the order the single-vector kernel of the same shape uses
// (dot_plain / dot_lanes<X> / dot_simd), so a width-N SpMM is
// bit-identical to N single-vector runs — the contract run_spmm promises
// and tests/test_differential.cpp enforces.

/// Column-tile width for Sub<X>: the tile keeps X*W partial accumulators
/// on the stack, so wider lane counts take narrower tiles (X*W <= 256
/// scalars — half a 4 KiB page of doubles), capped at the column blocking
/// the other multi-vector paths use.
constexpr int spmm_tile_width(int lanes) {
  const int w = 256 / lanes;
  return w > kernels::kMaxNativeBatch
             ? kernels::kMaxNativeBatch
             : (w < 1 ? 1 : w);
}

/// What 64 evenly spaced slots of a CSR bin show: the nonzeros per slot
/// (slots past the last row count as empty) and, when `spans` is set, the
/// average column span of the non-empty rows: the slice of one X column a
/// traversal actually touches per row. For banded/stencil structures the
/// span is a narrow sliding window no matter how tall the vectors are, so
/// it — not the vector length — bounds how many columns can share one pass
/// over A. Bins hold rows of similar length (that is what binning does),
/// so the sampled length stands in for the bin's nonzeros without a walk
/// over all of its rows.
struct RowSample {
  double len = 0.0;
  std::size_t span = 1;
};

RowSample sample_rows(std::span<const offset_t> rp,
                      std::span<const index_t> ci, const RowMap& map,
                      bool spans) {
  const std::int64_t slots = map.total_slots();
  const std::int64_t stride = std::max<std::int64_t>(1, slots / 64);
  std::size_t nnz = 0, samples = 0, span = 0, rows = 0;
  for (std::int64_t s = 0; s < slots; s += stride) {
    ++samples;
    const index_t r = map.slot_to_row(s);
    if (r < 0) continue;
    const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
    const auto hi =
        static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
    nnz += hi - lo;
    if (!spans || hi <= lo) continue;
    index_t cmin = ci[lo], cmax = ci[lo];
    for (std::size_t k = lo + 1; k < hi; ++k) {
      cmin = std::min(cmin, ci[k]);
      cmax = std::max(cmax, ci[k]);
    }
    span += static_cast<std::size_t>(cmax - cmin) + 1;
    ++rows;
  }
  RowSample out;
  if (samples > 0)
    out.len = static_cast<double>(nnz) / static_cast<double>(samples);
  if (rows > 0) out.span = std::max<std::size_t>(span / rows, 1);
  return out;
}

/// Runtime column-block step: the columns traversed together must keep
/// their gathered X working set (columns x per-row span) cache-resident,
/// or each nonzero gathers `w` lines a full vector apart and the blocked
/// traversal loses more on X than it saves on A. Half an 8 MiB LLC share
/// is the budget; scattered rows (span ~ cols) take narrower blocks,
/// banded rows take the whole register tile.
template <typename T>
int spmm_block_step(int tile_w, std::size_t span) {
  constexpr std::size_t kXBudgetBytes = std::size_t{4} << 20;
  const std::size_t fit = kXBudgetBytes / (std::max<std::size_t>(span, 1) *
                                           sizeof(T));
  return std::clamp(static_cast<int>(std::min<std::size_t>(
                        fit, static_cast<std::size_t>(tile_w))),
                    1, tile_w);
}

/// Drive `tile` over slots [s0, s1) for each `step`-wide block of output
/// columns (step <= W, the tile's compile-time accumulator capacity).
/// `tile(r, xoff, w, out)` must fill out[0..w) with row r's dot products
/// against columns [xoff/n, xoff/n + w); out arrives zero-initialized for
/// exactly those w entries. Per output column the traversal order is
/// independent of `step` — blocking only decides which columns share one
/// pass over A, so the bit-identity contract is unaffected.
template <typename T, int W, typename Tile>
void spmm_loop(std::span<T> y, const RowMap& map, std::int64_t s0,
               std::int64_t s1, int width, std::size_t m, int step,
               Tile tile) {
  for (int b0 = 0; b0 < width; b0 += step) {
    const int w = std::min(step, width - b0);
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
    for (std::int64_t s = s0; s < s1; ++s) {
      const index_t r = map.slot_to_row(s);
      if (r < 0) continue;
      T out[W];
      for (int b = 0; b < w; ++b) out[b] = T{};
      tile(r, b0, w, out);
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m +
          static_cast<std::size_t>(r)] = out[b];
    }
  }
}

/// Sub<X> tile: column-outer over W*X partials. For each output column the
/// inner loops are the exact dot_lanes<T, X> shape — X-wide unrolled main
/// loop, ascending lane sum, ascending-k tail — so per column the bits
/// match by construction AND the compiler vectorizes the lane loop the
/// same way it does in the single-vector kernel. The column loop outside
/// means the row's (val, col) stream is re-read per column from L1 instead
/// of from memory: cache blocking on A, register blocking per column.
template <typename T, int X, int W>
void spmm_lanes(const CsrMatrix<T>& a, std::span<const T> x, std::span<T> y,
                int width, const RowMap& map, std::int64_t s0,
                std::int64_t s1, std::size_t span) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const int step = spmm_block_step<T>(W, span);
  spmm_loop<T, W>(
      y, map, s0, s1, width, m, step,
      [&](index_t r, int b0, int w, T* out) {
        const std::size_t xoff = static_cast<std::size_t>(b0) * n;
        const auto lo =
            static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
        const auto hi =
            static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
        for (int b = 0; b < w; ++b) {
          const std::size_t xcol = xoff + static_cast<std::size_t>(b) * n;
          T part[X] = {};
          std::size_t k = lo;
          for (; k + X <= hi; k += X)
            for (int l = 0; l < X; ++l)
              part[l] = std::fma(
                  v[k + l],
                  x[xcol + static_cast<std::size_t>(ci[k + l])], part[l]);
          T acc{};
          for (int l = 0; l < X; ++l) acc += part[l];
          for (; k < hi; ++k)
            acc = std::fma(v[k], x[xcol + static_cast<std::size_t>(ci[k])],
                           acc);
          out[b] = acc;
        }
      });
}

/// Serial: row-outer, one pass over a row's (val, col) stream feeds a
/// local block of `step` accumulators. Per column that is ascending k from
/// zero, exactly dot_plain. Written as its own loop rather than a
/// spmm_loop tile: rows here are often a few nonzeros long, and the
/// tile's per-row staging cost more than the row's work.
template <typename T>
void spmm_serial(const CsrMatrix<T>& a, std::span<const T> x, std::span<T> y,
                 int width, const RowMap& map, std::int64_t s0,
                 std::int64_t s1, int step) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  for (int b0 = 0; b0 < width; b0 += step) {
    const int w = std::min(step, width - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
    for (std::int64_t s = s0; s < s1; ++s) {
      const index_t r = map.slot_to_row(s);
      if (r < 0) continue;
      const auto lo =
          static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
      const auto hi =
          static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
      T acc[kernels::kMaxNativeBatch] = {};
      for (std::size_t k = lo; k < hi; ++k) {
        const T av = v[k];
        const std::size_t c = xoff + static_cast<std::size_t>(ci[k]);
        for (int b = 0; b < w; ++b)
          acc[b] = std::fma(av, x[c + static_cast<std::size_t>(b) * n],
                            acc[b]);
      }
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m +
          static_cast<std::size_t>(r)] = acc[b];
    }
  }
}

/// SpMM over slots [s0, s1) of a bin whose sampled column span is `span`.
template <typename T>
void csr_spmm_range(KernelId id, const CsrMatrix<T>& a, std::span<const T> x,
                    std::span<T> y, int width, const RowMap& map,
                    std::int64_t s0, std::int64_t s1, std::size_t span) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  switch (id) {
    case KernelId::Serial:
      return spmm_serial(a, x, y, width, map, s0, s1,
                         spmm_block_step<T>(kernels::kMaxNativeBatch, span));
    case KernelId::Sub2:
      return spmm_lanes<T, 2, spmm_tile_width(2)>(a, x, y, width, map, s0,
                                                  s1, span);
    case KernelId::Sub4:
      return spmm_lanes<T, 4, spmm_tile_width(4)>(a, x, y, width, map, s0,
                                                  s1, span);
    case KernelId::Sub8:
      return spmm_lanes<T, 8, spmm_tile_width(8)>(a, x, y, width, map, s0,
                                                  s1, span);
    case KernelId::Sub16:
      return spmm_lanes<T, 16, spmm_tile_width(16)>(a, x, y, width, map, s0,
                                                    s1, span);
    case KernelId::Sub32:
      return spmm_lanes<T, 32, spmm_tile_width(32)>(a, x, y, width, map, s0,
                                                    s1, span);
    case KernelId::Sub64:
      return spmm_lanes<T, 64, spmm_tile_width(64)>(a, x, y, width, map, s0,
                                                    s1, span);
    case KernelId::Sub128:
      return spmm_lanes<T, 128, spmm_tile_width(128)>(a, x, y, width, map,
                                                      s0, s1, span);
    case KernelId::Vector:
      // dot_simd's association is whatever the compiler vectorized for the
      // single-vector kernel, so the only way to match it bit-for-bit is
      // to reuse the function itself per column. The row's (val, col)
      // stream still stays L1-resident across the tile — cache blocking
      // rather than register blocking.
      return spmm_loop<T, kernels::kMaxNativeBatch>(
          y, map, s0, s1, width, m,
          spmm_block_step<T>(kernels::kMaxNativeBatch, span),
          [&](index_t r, int b0, int w, T* out) {
            const std::size_t xoff = static_cast<std::size_t>(b0) * n;
            for (int b = 0; b < w; ++b)
              out[b] = dot_simd(
                  rp, ci, v,
                  x.subspan(xoff + static_cast<std::size_t>(b) * n, n), r);
          });
  }
}

// --- layout kernels (spmv::fmt) ---------------------------------------
//
// One kernel per materialized layout, scalar + batched. Each overwrites y
// for every row the layout covers (empty covered rows get 0) and touches
// nothing else — the same composition contract as the CSR slot loop, so a
// plan can mix CSR bins and layout bins freely.

/// ELL, packed rows [r0, r1): per row, walk the column-major padded
/// stream. Entries are packed from k=0, so the first pad column (-1) ends
/// the row.
template <typename T>
void ell_range(const fmt::EllBin<T>& e, std::int64_t r0, std::int64_t r1,
               std::span<const T> x, std::span<T> y) {
  const auto nrows = e.rows.size();
  for (std::int64_t r = r0; r < r1; ++r) {
    T acc{};
    for (index_t k = 0; k < e.width; ++k) {
      const auto idx =
          static_cast<std::size_t>(k) * nrows + static_cast<std::size_t>(r);
      const index_t c = e.col[idx];
      if (c < 0) break;
      acc += e.val[idx] * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(e.rows[static_cast<std::size_t>(r)])] = acc;
  }
}

/// COO, chunks [ch0, ch1): zero the packed rows the chunks own, then
/// accumulate their triples in entry order. Chunks never split a row
/// (layout invariant), so the rows a chunk range zeroes are exactly the
/// rows it accumulates into, and concurrent ranges touch disjoint y
/// entries.
template <typename T>
void coo_range(const fmt::CooBin<T>& c, std::int64_t ch0, std::int64_t ch1,
               std::span<const T> x, std::span<T> y) {
  const auto u0 = static_cast<std::size_t>(ch0);
  const auto u1 = static_cast<std::size_t>(ch1);
  for (std::size_t p = c.chunk_row[u0]; p < c.chunk_row[u1]; ++p)
    y[static_cast<std::size_t>(c.rows[p])] = T{};
  for (std::size_t j = c.chunk_ptr[u0]; j < c.chunk_ptr[u1]; ++j)
    y[static_cast<std::size_t>(c.entry_row[j])] +=
        c.entry_val[j] * x[static_cast<std::size_t>(c.entry_col[j])];
}

/// Dcsr lane count: each row accumulates over this many partial sums.
/// The offsets are base-relative, so no entry waits on its neighbour's
/// decode; split across independent add chains, the row streams at memory
/// speed instead of one FMA latency per entry. A constant, not an option:
/// layout bins ignore the plan's kernel id.
constexpr int kLayoutLanes = 8;

/// Columns the batched Dcsr kernel accumulates in one pass over a row:
/// C x kLayoutLanes partial sums stay in registers, and every (value,
/// offset) pair loaded feeds C FMAs. Four beat one, two and eight, and
/// beat one lanes x batch block per row, on a cache-resident banded
/// corpus (4-core AVX-512 Xeon).
constexpr int kLayoutColumns = 4;

/// One Dcsr row's dot products against C columns of x, `stride` apart,
/// each shifted to the row's base column (`xb`). Per column: entry k of
/// each full kLayoutLanes chunk goes to lane k % kLayoutLanes, the lanes
/// are summed in ascending order, and the tail goes on after them in
/// ascending order. The order does not depend on C, so the single-vector
/// kernel (C = 1) and the batched one agree bit for bit per column.
template <int C, typename T>
void dcsr_dots(const T* v, const std::uint16_t* off, std::size_t len,
               const T* xb, std::size_t stride, T* out) {
  T part[C][kLayoutLanes] = {};
  std::size_t k = 0;
  for (; k + kLayoutLanes <= len; k += kLayoutLanes)
    for (int l = 0; l < kLayoutLanes; ++l) {
      const T av = v[k + l];
      const std::size_t o = off[k + l];
      for (int c = 0; c < C; ++c)
        part[c][l] = std::fma(av, xb[c * stride + o], part[c][l]);
    }
  for (int c = 0; c < C; ++c) {
    T acc{};
    for (int l = 0; l < kLayoutLanes; ++l) acc += part[c][l];
    for (std::size_t j = k; j < len; ++j)
      acc = std::fma(v[j], xb[c * stride + off[j]], acc);
    out[c] = acc;
  }
}

/// One sliced Dcsr slice's dot products against C columns of x, `stride`
/// apart: out[c][i] for packed row s0 + i. Row i runs in lane i on its own
/// std::fma chain in CSR order — the exact order of dot_plain — and a lane
/// idles once its row ends. The sort puts a slice's live rows first, so
/// step k's entries are the next `live` values and offsets.
template <int C, typename T>
void slice_dots(const fmt::DeltaBin<T>& d, std::size_t s0, const T* x,
                std::size_t stride, T (&out)[C][fmt::kDcsrSlice]) {
  constexpr int H = fmt::kDcsrSlice;
  const std::size_t h = std::min<std::size_t>(H, d.rows.size() - s0);
  const auto lo = static_cast<std::size_t>(d.row_ptr[s0]);
  const T* v = d.vals.data() + lo;
  const std::uint16_t* off = d.offsets.data() + lo;
  const index_t* base = d.base_col.data() + s0;
  offset_t len[H] = {};
  for (std::size_t i = 0; i < h; ++i)
    len[i] = d.row_ptr[s0 + i + 1] - d.row_ptr[s0 + i];
  std::size_t live = h;
#ifdef SPMV_AVX512_SLICES
  if constexpr (std::is_same_v<T, float>) {
    // Masked loads fault on no masked-off element, so a slice at an
    // array's end never reads past it.
    const __m512i basev =
        _mm512_maskz_loadu_epi32(static_cast<__mmask16>((1u << h) - 1), base);
    __m512 acc[C];
    for (int c = 0; c < C; ++c) acc[c] = _mm512_setzero_ps();
    for (offset_t k = 0;; ++k) {
      while (live > 0 && len[live - 1] <= k) --live;
      if (live == 0) break;
      const auto m = static_cast<__mmask16>((1u << live) - 1);
      const __m512i idx = _mm512_add_epi32(
          basev,
          _mm512_maskz_cvtepu16_epi32(m, _mm256_maskz_loadu_epi16(m, off)));
      const __m512 av = _mm512_maskz_loadu_ps(m, v);
      for (int c = 0; c < C; ++c) {
        const __m512 xv = _mm512_mask_i32gather_ps(
            _mm512_setzero_ps(), m, idx, x + c * stride, sizeof(float));
        acc[c] = _mm512_mask3_fmadd_ps(av, xv, acc[c], m);
      }
      v += live;
      off += live;
    }
    for (int c = 0; c < C; ++c) _mm512_storeu_ps(out[c], acc[c]);
    return;
  }
#endif
  for (int c = 0; c < C; ++c)
    for (int i = 0; i < H; ++i) out[c][i] = T{};
  for (offset_t k = 0;; ++k) {
    while (live > 0 && len[live - 1] <= k) --live;
    if (live == 0) break;
    for (std::size_t i = 0; i < live; ++i) {
      const T av = v[i];
      const T* xb = x + base[i] + off[i];
      for (int c = 0; c < C; ++c)
        out[c][i] = std::fma(av, xb[c * stride], out[c][i]);
    }
    v += live;
    off += live;
  }
}

/// Write slice_dots' results for the slice at packed row s0: column c
/// goes to y[c * m + row] for each of the slice's rows (m = y's column
/// stride, unused for one column).
template <int C, typename T>
void store_slice(const fmt::DeltaBin<T>& d, std::size_t s0,
                 const T (&out)[C][fmt::kDcsrSlice], std::span<T> y,
                 std::size_t m = 0) {
  const std::size_t h =
      std::min<std::size_t>(fmt::kDcsrSlice, d.rows.size() - s0);
  for (int c = 0; c < C; ++c)
    for (std::size_t i = 0; i < h; ++i)
      y[static_cast<std::size_t>(c) * m +
        static_cast<std::size_t>(d.rows[s0 + i])] = out[c][i];
}

/// Slices a work item of a Dcsr bin is cut at: 64 rows at slice height 1,
/// and one whole sort window when sliced — a window's rows are permuted,
/// so splitting it across threads would share y's cache lines.
constexpr std::int64_t dcsr_chunk(std::int64_t slice) {
  return slice == 1 ? 64 : fmt::kDcsrSortWindow / fmt::kDcsrSlice;
}

/// Dcsr, slices [s0, s1): one lane-split dot product per packed row, or
/// one lane per row of each slice.
template <typename T>
void dcsr_range(const fmt::DeltaBin<T>& d, std::int64_t s0, std::int64_t s1,
                std::span<const T> x, std::span<T> y) {
  const std::int64_t slice = d.slice;
  for (std::int64_t s = s0; s < s1; ++s) {
    const auto p0 = static_cast<std::size_t>(s * slice);
    if (slice == 1) {
      const auto lo = static_cast<std::size_t>(d.row_ptr[p0]);
      const auto hi = static_cast<std::size_t>(d.row_ptr[p0 + 1]);
      dcsr_dots<1>(d.vals.data() + lo, d.offsets.data() + lo, hi - lo,
                   x.data() + d.base_col[p0], 0,
                   &y[static_cast<std::size_t>(d.rows[p0])]);
      continue;
    }
    T out[1][fmt::kDcsrSlice];
    slice_dots<1>(d, p0, x.data(), 0, out);
    store_slice<1>(d, p0, out, y);
  }
}

/// Batched ELL and COO: the same traversals feeding a stack block of up
/// to kMaxNativeBatch accumulators per row, blocked by b0 for wider
/// batches.
template <typename T>
void ell_batch_range(const fmt::EllBin<T>& e, std::int64_t r0,
                     std::int64_t r1, std::span<const T> x, std::span<T> y,
                     int batch, std::size_t n, std::size_t m) {
  const auto nrows = e.rows.size();
  for (int b0 = 0; b0 < batch; b0 += kernels::kMaxNativeBatch) {
    const int w = std::min(kernels::kMaxNativeBatch, batch - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
    for (std::int64_t r = r0; r < r1; ++r) {
      T acc[kernels::kMaxNativeBatch] = {};
      for (index_t k = 0; k < e.width; ++k) {
        const auto idx =
            static_cast<std::size_t>(k) * nrows + static_cast<std::size_t>(r);
        const index_t c = e.col[idx];
        if (c < 0) break;
        const T av = e.val[idx];
        for (int b = 0; b < w; ++b)
          acc[b] += av * x[xoff + static_cast<std::size_t>(b) * n +
                           static_cast<std::size_t>(c)];
      }
      const auto row =
          static_cast<std::size_t>(e.rows[static_cast<std::size_t>(r)]);
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m + row] = acc[b];
    }
  }
}

template <typename T>
void coo_batch_range(const fmt::CooBin<T>& c, std::int64_t ch0,
                     std::int64_t ch1, std::span<const T> x, std::span<T> y,
                     int batch, std::size_t n, std::size_t m) {
  const auto u0 = static_cast<std::size_t>(ch0);
  const auto u1 = static_cast<std::size_t>(ch1);
  for (int b0 = 0; b0 < batch; b0 += kernels::kMaxNativeBatch) {
    const int w = std::min(kernels::kMaxNativeBatch, batch - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
    for (std::size_t p = c.chunk_row[u0]; p < c.chunk_row[u1]; ++p) {
      const auto row = static_cast<std::size_t>(c.rows[p]);
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m + row] = T{};
    }
    for (std::size_t j = c.chunk_ptr[u0]; j < c.chunk_ptr[u1]; ++j) {
      const auto row = static_cast<std::size_t>(c.entry_row[j]);
      const auto col = static_cast<std::size_t>(c.entry_col[j]);
      const T av = c.entry_val[j];
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m + row] +=
            av * x[xoff + static_cast<std::size_t>(b) * n + col];
    }
  }
}

/// Batched Dcsr: per row or slice, kLayoutColumns columns at a time and
/// one at a time for the rest — the exact per-column order of dcsr_range.
template <typename T>
void dcsr_batch_range(const fmt::DeltaBin<T>& d, std::int64_t s0,
                      std::int64_t s1, std::span<const T> x, std::span<T> y,
                      int batch, std::size_t n, std::size_t m) {
  const std::int64_t slice = d.slice;
  for (std::int64_t s = s0; s < s1; ++s) {
    const auto p0 = static_cast<std::size_t>(s * slice);
    if (slice == 1) {
      const auto lo = static_cast<std::size_t>(d.row_ptr[p0]);
      const auto len = static_cast<std::size_t>(d.row_ptr[p0 + 1]) - lo;
      const T* v = d.vals.data() + lo;
      const std::uint16_t* off = d.offsets.data() + lo;
      const T* xb = x.data() + static_cast<std::size_t>(d.base_col[p0]);
      const auto row = static_cast<std::size_t>(d.rows[p0]);
      T out[kLayoutColumns];
      int b = 0;
      for (; b + kLayoutColumns <= batch; b += kLayoutColumns) {
        dcsr_dots<kLayoutColumns>(
            v, off, len, xb + static_cast<std::size_t>(b) * n, n, out);
        for (int c = 0; c < kLayoutColumns; ++c)
          y[static_cast<std::size_t>(b + c) * m + row] = out[c];
      }
      for (; b < batch; ++b) {
        dcsr_dots<1>(v, off, len, xb + static_cast<std::size_t>(b) * n, 0,
                     out);
        y[static_cast<std::size_t>(b) * m + row] = out[0];
      }
      continue;
    }
    int b = 0;
    for (; b + kLayoutColumns <= batch; b += kLayoutColumns) {
      T out[kLayoutColumns][fmt::kDcsrSlice];
      slice_dots<kLayoutColumns>(
          d, p0, x.data() + static_cast<std::size_t>(b) * n, n, out);
      store_slice<kLayoutColumns>(
          d, p0, out, y.subspan(static_cast<std::size_t>(b) * m), m);
    }
    for (; b < batch; ++b) {
      T out[1][fmt::kDcsrSlice];
      slice_dots<1>(d, p0, x.data() + static_cast<std::size_t>(b) * n, 0,
                    out);
      store_slice<1>(d, p0, out, y.subspan(static_cast<std::size_t>(b) * m));
    }
  }
}

// --- the work list ----------------------------------------------------
//
// One SpMV (or SpMM) over a whole plan is one list of work items — runs of
// slots of a CSR bin, packed rows of an ELL bin, chunks of a COO bin,
// slices of a Dcsr bin — cut so that each carries about the same work,
// counted as nonzeros plus rows. The items run in one parallel region
// under dynamic scheduling; bins cover disjoint rows, and an item writes
// only rows of its own range, so no barrier separates the bins. Each row
// is computed whole by one item in its kernel's usual order, so how the
// bins are cut never changes a bit of the result.

/// Least work worth an item: below it a claim costs about what the work
/// does.
constexpr std::int64_t kItemWork = 2048;

/// Least work worth a parallel region, about 15-30 us of SpMV: below it
/// the list runs inline. A region's fork/join and its threads' spinning
/// at the closing barrier cost about what a smaller list does, and once
/// other processes share the cores, a spinning team thread costs them a
/// core for up to a scheduler slice. Above it the team is the whole
/// budget, never a size picked per list: libgomp ends the pool threads a
/// smaller team leaves idle and starts new ones for the next larger team,
/// about 200 us a switch on the 4-core test host.
constexpr std::int64_t kRegionWork = std::int64_t{1} << 15;

/// Items per thread the cut aims for, so dynamic scheduling can even out
/// what the work estimate misses.
constexpr std::int64_t kItemsPerThread = 4;

/// A task's units and how it may be cut: `units` units (slots, packed
/// rows, chunks or slices), cut only at multiples of `grain`, with `work`
/// in total. For CSR SpMM, `span` is the bin's sampled column span.
struct TaskShape {
  std::int64_t units = 0;
  std::int64_t grain = 1;
  std::int64_t work = 0;
  std::size_t span = 1;
};

/// Units [lo, hi) of task `task`.
struct Item {
  std::size_t task = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t work = 0;
};

/// Slots a CSR item is cut at: 64 rows of a bin at U = 1.
constexpr std::int64_t kSlotGrain = 64;
/// Packed rows an ELL item is cut at.
constexpr std::int64_t kRowGrain = 64;

/// Work of units [0, u) of `t`: nonzeros plus rows for every layout, and a
/// uniform share of the bin's total for CSR slots (a bin holds rows of
/// similar length — that is what binning does).
template <typename T>
std::int64_t work_before(const BinTask<T>& t, const TaskShape& sh,
                         std::int64_t u) {
  if (t.layout == nullptr)
    return sh.work * u / std::max<std::int64_t>(1, sh.units);
  const fmt::BinLayout<T>& l = *t.layout;
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      return (static_cast<std::int64_t>(l.ell.width) + 1) * u;
    case fmt::FormatKind::Coo: {
      const auto c = static_cast<std::size_t>(u);
      return static_cast<std::int64_t>(l.coo.chunk_ptr[c] +
                                       l.coo.chunk_row[c]);
    }
    default: {
      const auto p = std::min(static_cast<std::size_t>(u * l.dcsr.slice),
                              l.dcsr.rows.size());
      return static_cast<std::int64_t>(l.dcsr.row_ptr[p]) +
             static_cast<std::int64_t>(p);
    }
  }
}

/// Shape of one task. Rejects what no kernel runs (run_bins has checked
/// the kernel ids), here rather than inside the parallel region, where an
/// exception would end the process.
template <typename T>
TaskShape shape_of(const CsrMatrix<T>& a, const BinTask<T>& t, int width) {
  TaskShape sh;
  if (t.layout == nullptr) {
    const RowMap map{t.vrows, t.unit, a.rows()};
    const RowSample sample = sample_rows(a.row_ptr(), a.col_idx(), map,
                                         width > 1);
    sh.units = map.total_slots();
    sh.grain = kSlotGrain;
    sh.work = sh.units + std::llround(static_cast<double>(sh.units) *
                                      sample.len);
    sh.span = sample.span;
    return sh;
  }
  const fmt::BinLayout<T>& l = *t.layout;
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      sh.units = static_cast<std::int64_t>(l.ell.rows.size());
      sh.grain = kRowGrain;
      break;
    case fmt::FormatKind::Coo:
      sh.units = static_cast<std::int64_t>(l.coo.chunk_ptr.size()) - 1;
      break;
    case fmt::FormatKind::Dcsr:
      sh.units = (static_cast<std::int64_t>(l.dcsr.rows.size()) +
                  l.dcsr.slice - 1) /
                 l.dcsr.slice;
      sh.grain = dcsr_chunk(l.dcsr.slice);
      break;
    case fmt::FormatKind::Csr:
      throw std::invalid_argument("NativeBackend: bad layout kind");
  }
  sh.work = work_before(t, sh, sh.units);
  return sh;
}

/// Cut task `ti` into pieces of about `target` work each, at grain
/// boundaries, and append them to `items`.
template <typename T>
void cut_task(const BinTask<T>& t, const TaskShape& sh, std::size_t ti,
              std::int64_t target, std::vector<Item>& items) {
  const std::int64_t cuts = (sh.units + sh.grain - 1) / sh.grain;
  const std::int64_t pieces =
      std::clamp<std::int64_t>((sh.work + target - 1) / target, 1, cuts);
  const auto unit_at = [&](std::int64_t k) {
    return std::min(k * sh.grain, sh.units);
  };
  std::int64_t lo = 0;
  for (std::int64_t i = 1; i <= pieces; ++i) {
    std::int64_t hi = sh.units;
    if (i < pieces) {
      // The first grain boundary whose prefix work reaches i/pieces.
      const std::int64_t want = sh.work * i / pieces;
      std::int64_t k0 = 0;
      std::int64_t k1 = cuts;
      while (k0 < k1) {
        const std::int64_t k = k0 + (k1 - k0) / 2;
        if (work_before(t, sh, unit_at(k)) < want)
          k0 = k + 1;
        else
          k1 = k;
      }
      hi = unit_at(k0);
    }
    if (hi <= lo) continue;
    items.push_back({ti, lo, hi,
                     work_before(t, sh, hi) - work_before(t, sh, lo)});
    lo = hi;
  }
}

/// Run units [lo, hi) of one task over `width` columns.
template <typename T>
void run_item(const CsrMatrix<T>& a, const BinTask<T>& t, const TaskShape& sh,
              std::int64_t lo, std::int64_t hi, std::span<const T> x,
              std::span<T> y, int width) {
  if (t.layout == nullptr) {
    const RowMap map{t.vrows, t.unit, a.rows()};
    if (width == 1)
      csr_range(t.kernel, a, x, y, map, lo, hi);
    else
      csr_spmm_range(t.kernel, a, x, y, width, map, lo, hi, sh.span);
    return;
  }
  const fmt::BinLayout<T>& l = *t.layout;
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      if (width == 1) return ell_range(l.ell, lo, hi, x, y);
      return ell_batch_range(l.ell, lo, hi, x, y, width, n, m);
    case fmt::FormatKind::Coo:
      if (width == 1) return coo_range(l.coo, lo, hi, x, y);
      return coo_batch_range(l.coo, lo, hi, x, y, width, n, m);
    case fmt::FormatKind::Dcsr:
      if (width == 1) return dcsr_range(l.dcsr, lo, hi, x, y);
      return dcsr_batch_range(l.dcsr, lo, hi, x, y, width, n, m);
    case fmt::FormatKind::Csr:
      break;
  }
}

/// The native executor: every task of `tasks` over `width` columns, as one
/// work list in (at most) one parallel region of the calling thread's
/// budget (util::thread_budget), inline below kRegionWork. The backend's
/// one run hook: single-bin launches come here as a list of one.
template <typename T>
void run_work_list(const CsrMatrix<T>& a, std::span<const BinTask<T>> tasks,
                   std::span<const T> x, std::span<T> y, int width) {
  std::vector<TaskShape> shapes;
  shapes.reserve(tasks.size());
  std::int64_t total = 0;
  for (const BinTask<T>& t : tasks) {
    shapes.push_back(shape_of(a, t, width));
    total += shapes.back().work;
  }
  const int team = total < kRegionWork ? 1 : util::thread_budget();
  if (team == 1) {
    // Inline: each task runs whole on the calling thread.
    const prof::ActiveThreadScope active(1);
    for (std::size_t i = 0; i < tasks.size(); ++i)
      if (shapes[i].units > 0)
        run_item(a, tasks[i], shapes[i], 0, shapes[i].units, x, y, width);
    return;
  }
  const std::int64_t target =
      std::max(kItemWork, total / (team * kItemsPerThread));
  std::vector<Item> items;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (shapes[i].units > 0) cut_task(tasks[i], shapes[i], i, target, items);
  // Heaviest first: under dynamic scheduling the light items fill in the
  // gaps at the end instead of one heavy item trailing alone.
  std::sort(items.begin(), items.end(), [](const Item& p, const Item& q) {
    return p.work > q.work;
  });
  const auto count = static_cast<std::int64_t>(items.size());
  const int threads = count > 1 ? team : 1;
  // The gauge holds the team the region asks for from before the fork
  // until after the join: the threads are held for all of it. Counted here
  // on the caller, so no thread of the team writes it.
  const prof::ActiveThreadScope active(threads);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads) \
    if (threads > 1)
#endif
  for (std::int64_t i = 0; i < count; ++i) {
    const Item& it = items[static_cast<std::size_t>(i)];
    run_item(a, tasks[it.task], shapes[it.task], it.lo, it.hi, x, y, width);
  }
}

}  // namespace

void NativeBackend::do_run_bins(const CsrMatrix<float>& a,
                                std::span<const BinTask<float>> tasks,
                                std::span<const float> x, std::span<float> y,
                                int width) const {
  run_work_list<float>(a, tasks, x, y, width);
}

void NativeBackend::do_run_bins(const CsrMatrix<double>& a,
                                std::span<const BinTask<double>> tasks,
                                std::span<const double> x,
                                std::span<double> y, int width) const {
  run_work_list<double>(a, tasks, x, y, width);
}

}  // namespace spmv::exec
