#include "exec/native_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "fmt/layout.hpp"
#include "kernels/binned_common.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

// Sliced Dcsr bins of float run an AVX-512 kernel when the build targets
// it (-march=native on such a host); everything else runs the portable
// loop, which gives the same bits.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#include <immintrin.h>
#define SPMV_AVX512_SLICES 1
#endif

namespace spmv::exec {

namespace {

using kernels::KernelId;
using kernels::RowMap;

/// Bins at or below this many slots run inline: a fork/join costs more
/// than the work it would distribute.
constexpr std::int64_t kInlineSlots = 256;

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

/// Partition the bin's slots across threads (dynamic chunks, like
/// kernels::spmv_omp_rows) and write each covered row's dot product. Slots
/// never alias a row within one launch, so the writes are race-free.
template <typename T, typename Dot>
void slot_loop(int threads, std::span<T> y, const RowMap& map, Dot dot) {
  const std::int64_t slots = map.total_slots();
#ifdef _OPENMP
  const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt) \
    if (slots > kInlineSlots)
#else
  (void)threads;
#endif
  for (std::int64_t s = 0; s < slots; ++s) {
    const index_t r = map.slot_to_row(s);
    if (r < 0) continue;
    y[static_cast<std::size_t>(r)] = dot(r);
  }
}

template <typename T>
void native_binned(int threads, KernelId id, const CsrMatrix<T>& a,
                   std::span<const T> x, std::span<T> y,
                   std::span<const index_t> vrows, index_t unit) {
  const RowMap map{vrows, unit, a.rows()};
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  switch (id) {
    case KernelId::Serial:
      return slot_loop(threads, y, map,
                       [&](index_t r) { return dot_plain(rp, ci, v, x, r); });
    case KernelId::Sub2:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 2>(rp, ci, v, x, r);
      });
    case KernelId::Sub4:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 4>(rp, ci, v, x, r);
      });
    case KernelId::Sub8:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 8>(rp, ci, v, x, r);
      });
    case KernelId::Sub16:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 16>(rp, ci, v, x, r);
      });
    case KernelId::Sub32:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 32>(rp, ci, v, x, r);
      });
    case KernelId::Sub64:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 64>(rp, ci, v, x, r);
      });
    case KernelId::Sub128:
      return slot_loop(threads, y, map, [&](index_t r) {
        return dot_lanes<T, 128>(rp, ci, v, x, r);
      });
    case KernelId::Vector:
      return slot_loop(threads, y, map,
                       [&](index_t r) { return dot_simd(rp, ci, v, x, r); });
  }
  throw std::invalid_argument("NativeBackend: bad kernel id");
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

/// Sampled average column span of the bin's rows: the slice of one X
/// column a traversal actually touches per row. For banded/stencil
/// structures this is a narrow sliding window no matter how tall the
/// vectors are, so the span — not the vector length — bounds how many
/// columns can share one pass over A.
std::size_t sampled_span(std::span<const offset_t> rp,
                         std::span<const index_t> ci, const RowMap& map) {
  const std::int64_t slots = map.total_slots();
  const std::int64_t stride = std::max<std::int64_t>(1, slots / 64);
  std::size_t total = 0, rows = 0;
  for (std::int64_t s = 0; s < slots; s += stride) {
    const index_t r = map.slot_to_row(s);
    if (r < 0) continue;
    const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(r)]);
    const auto hi =
        static_cast<std::size_t>(rp[static_cast<std::size_t>(r) + 1]);
    if (hi <= lo) continue;
    index_t cmin = ci[lo], cmax = ci[lo];
    for (std::size_t k = lo + 1; k < hi; ++k) {
      cmin = std::min(cmin, ci[k]);
      cmax = std::max(cmax, ci[k]);
    }
    total += static_cast<std::size_t>(cmax - cmin) + 1;
    ++rows;
  }
  return rows > 0 ? std::max<std::size_t>(total / rows, 1) : 1;
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

/// Drive `tile` over every slot for each `step`-wide block of output
/// columns (step <= W, the tile's compile-time accumulator capacity).
/// `tile(r, xoff, w, out)` must fill out[0..w) with row r's dot products
/// against columns [xoff/n, xoff/n + w); out arrives zero-initialized for
/// exactly those w entries. Per output column the traversal order is
/// independent of `step` — blocking only decides which columns share one
/// pass over A, so the bit-identity contract is unaffected.
template <typename T, int W, typename Tile>
void spmm_loop(int threads, std::span<T> y, const RowMap& map, int width,
               std::size_t m, int step, Tile tile) {
  const std::int64_t slots = map.total_slots();
#ifndef _OPENMP
  (void)threads;
#endif
  for (int b0 = 0; b0 < width; b0 += step) {
    const int w = std::min(step, width - b0);
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
#ifdef _OPENMP
    const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt) \
    if (slots > kInlineSlots)
#endif
    for (std::int64_t s = 0; s < slots; ++s) {
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
void spmm_lanes(int threads, const CsrMatrix<T>& a, std::span<const T> x,
                std::span<T> y, int width, const RowMap& map,
                std::size_t span) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const int step = spmm_block_step<T>(W, span);
  spmm_loop<T, W>(
      threads, y, map, width, m, step,
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
void spmm_serial(int threads, const CsrMatrix<T>& a, std::span<const T> x,
                 std::span<T> y, int width, const RowMap& map, int step) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const std::int64_t slots = map.total_slots();
#ifndef _OPENMP
  (void)threads;
#endif
  for (int b0 = 0; b0 < width; b0 += step) {
    const int w = std::min(step, width - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
#ifdef _OPENMP
    const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, 64) num_threads(nt) \
    if (slots > kInlineSlots)
#endif
    for (std::int64_t s = 0; s < slots; ++s) {
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

template <typename T>
void native_spmm(int threads, KernelId id, const CsrMatrix<T>& a,
                 std::span<const T> x, std::span<T> y, int width,
                 std::span<const index_t> vrows, index_t unit) {
  const RowMap map{vrows, unit, a.rows()};
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const std::size_t span = sampled_span(rp, ci, map);
  switch (id) {
    case KernelId::Serial:
      return spmm_serial(threads, a, x, y, width, map,
                         spmm_block_step<T>(kernels::kMaxNativeBatch, span));
    case KernelId::Sub2:
      return spmm_lanes<T, 2, spmm_tile_width(2)>(threads, a, x, y, width,
                                                  map, span);
    case KernelId::Sub4:
      return spmm_lanes<T, 4, spmm_tile_width(4)>(threads, a, x, y, width,
                                                  map, span);
    case KernelId::Sub8:
      return spmm_lanes<T, 8, spmm_tile_width(8)>(threads, a, x, y, width,
                                                  map, span);
    case KernelId::Sub16:
      return spmm_lanes<T, 16, spmm_tile_width(16)>(threads, a, x, y, width,
                                                    map, span);
    case KernelId::Sub32:
      return spmm_lanes<T, 32, spmm_tile_width(32)>(threads, a, x, y, width,
                                                    map, span);
    case KernelId::Sub64:
      return spmm_lanes<T, 64, spmm_tile_width(64)>(threads, a, x, y, width,
                                                    map, span);
    case KernelId::Sub128:
      return spmm_lanes<T, 128, spmm_tile_width(128)>(threads, a, x, y,
                                                      width, map, span);
    case KernelId::Vector:
      // dot_simd's association is whatever the compiler vectorized for the
      // single-vector kernel, so the only way to match it bit-for-bit is
      // to reuse the function itself per column. The row's (val, col)
      // stream still stays L1-resident across the tile — cache blocking
      // rather than register blocking.
      return spmm_loop<T, kernels::kMaxNativeBatch>(
          threads, y, map, width, m,
          spmm_block_step<T>(kernels::kMaxNativeBatch, span),
          [&](index_t r, int b0, int w, T* out) {
            const std::size_t xoff = static_cast<std::size_t>(b0) * n;
            for (int b = 0; b < w; ++b)
              out[b] = dot_simd(
                  rp, ci, v,
                  x.subspan(xoff + static_cast<std::size_t>(b) * n, n), r);
          });
  }
  throw std::invalid_argument("NativeBackend: bad kernel id");
}

// --- layout kernels (spmv::fmt) ---------------------------------------
//
// One kernel per materialized layout, scalar + batched. Each overwrites y
// for every row the layout covers (empty covered rows get 0) and touches
// nothing else — the same composition contract as the CSR slot loop, so a
// plan can mix CSR bins and layout bins freely.

/// ELL: per packed row, walk the column-major padded stream. Entries are
/// packed from k=0, so the first pad column (-1) ends the row.
template <typename T>
void native_ell(int threads, const fmt::EllBin<T>& e, std::span<const T> x,
                std::span<T> y) {
  const auto nrows = static_cast<std::int64_t>(e.rows.size());
#ifdef _OPENMP
  const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(static) num_threads(nt) \
    if (nrows > kInlineSlots)
#else
  (void)threads;
#endif
  for (std::int64_t r = 0; r < nrows; ++r) {
    T acc{};
    for (index_t k = 0; k < e.width; ++k) {
      const auto idx = static_cast<std::size_t>(k) *
                           static_cast<std::size_t>(nrows) +
                       static_cast<std::size_t>(r);
      const index_t c = e.col[idx];
      if (c < 0) break;
      acc += e.val[idx] * x[static_cast<std::size_t>(c)];
    }
    y[static_cast<std::size_t>(e.rows[static_cast<std::size_t>(r)])] = acc;
  }
}

/// COO: zero every covered row, then accumulate triples chunk-parallel.
/// Chunks never split a row (layout invariant), so concurrent `+=` into y
/// target disjoint entries.
template <typename T>
void native_coo(int threads, const fmt::CooBin<T>& c, std::span<const T> x,
                std::span<T> y) {
  const auto nrows = static_cast<std::int64_t>(c.rows.size());
#ifdef _OPENMP
  const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(static) num_threads(nt) \
    if (nrows > kInlineSlots)
#else
  (void)threads;
#endif
  for (std::int64_t r = 0; r < nrows; ++r)
    y[static_cast<std::size_t>(c.rows[static_cast<std::size_t>(r)])] = T{};
  const auto nchunks = static_cast<std::int64_t>(c.chunk_ptr.size()) - 1;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1) num_threads(nt) \
    if (nchunks > 1)
#endif
  for (std::int64_t ch = 0; ch < nchunks; ++ch) {
    const std::size_t lo = c.chunk_ptr[static_cast<std::size_t>(ch)];
    const std::size_t hi = c.chunk_ptr[static_cast<std::size_t>(ch) + 1];
    for (std::size_t j = lo; j < hi; ++j)
      y[static_cast<std::size_t>(c.entry_row[j])] +=
          c.entry_val[j] * x[static_cast<std::size_t>(c.entry_col[j])];
  }
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

/// Slices per dynamic chunk of the Dcsr kernels: 64 rows at slice height
/// 1, and one whole sort window when sliced — a window's rows are
/// permuted, so splitting it across threads would share y's cache lines.
constexpr std::int64_t dcsr_chunk(std::int64_t slice) {
  return slice == 1 ? 64 : fmt::kDcsrSortWindow / fmt::kDcsrSlice;
}

/// Dcsr: one lane-split dot product per packed row, or one lane per row
/// of each slice.
template <typename T>
void native_dcsr(int threads, const fmt::DeltaBin<T>& d, std::span<const T> x,
                 std::span<T> y) {
  const auto nrows = static_cast<std::int64_t>(d.rows.size());
  const std::int64_t slice = d.slice;
  const std::int64_t nslices = (nrows + slice - 1) / slice;
#ifdef _OPENMP
  const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, dcsr_chunk(slice)) \
    num_threads(nt) if (nrows > kInlineSlots)
#else
  (void)threads;
#endif
  for (std::int64_t s = 0; s < nslices; ++s) {
    const auto s0 = static_cast<std::size_t>(s * slice);
    if (slice == 1) {
      const auto lo = static_cast<std::size_t>(d.row_ptr[s0]);
      const auto hi = static_cast<std::size_t>(d.row_ptr[s0 + 1]);
      dcsr_dots<1>(d.vals.data() + lo, d.offsets.data() + lo, hi - lo,
                   x.data() + d.base_col[s0], 0,
                   &y[static_cast<std::size_t>(d.rows[s0])]);
      continue;
    }
    T out[1][fmt::kDcsrSlice];
    slice_dots<1>(d, s0, x.data(), 0, out);
    store_slice<1>(d, s0, out, y);
  }
}

/// Batched ELL and COO: the same traversals feeding a stack block of up
/// to kMaxNativeBatch accumulators per row, blocked by b0 for wider
/// batches.
template <typename T>
void native_ell_batch(int threads, const fmt::EllBin<T>& e,
                      std::span<const T> x, std::span<T> y, int batch,
                      std::size_t n, std::size_t m) {
  const auto nrows = static_cast<std::int64_t>(e.rows.size());
#ifndef _OPENMP
  (void)threads;
#endif
  for (int b0 = 0; b0 < batch; b0 += kernels::kMaxNativeBatch) {
    const int w = std::min(kernels::kMaxNativeBatch, batch - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
#ifdef _OPENMP
    const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(static) num_threads(nt) \
    if (nrows > kInlineSlots)
#endif
    for (std::int64_t r = 0; r < nrows; ++r) {
      T acc[kernels::kMaxNativeBatch] = {};
      for (index_t k = 0; k < e.width; ++k) {
        const auto idx = static_cast<std::size_t>(k) *
                             static_cast<std::size_t>(nrows) +
                         static_cast<std::size_t>(r);
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
void native_coo_batch(int threads, const fmt::CooBin<T>& c,
                      std::span<const T> x, std::span<T> y, int batch,
                      std::size_t n, std::size_t m) {
  const auto nrows = static_cast<std::int64_t>(c.rows.size());
  const auto nchunks = static_cast<std::int64_t>(c.chunk_ptr.size()) - 1;
#ifndef _OPENMP
  (void)threads;
#endif
  for (int b0 = 0; b0 < batch; b0 += kernels::kMaxNativeBatch) {
    const int w = std::min(kernels::kMaxNativeBatch, batch - b0);
    const std::size_t xoff = static_cast<std::size_t>(b0) * n;
    const std::size_t yoff = static_cast<std::size_t>(b0) * m;
#ifdef _OPENMP
    const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(static) num_threads(nt) \
    if (nrows > kInlineSlots)
#endif
    for (std::int64_t r = 0; r < nrows; ++r) {
      const auto row =
          static_cast<std::size_t>(c.rows[static_cast<std::size_t>(r)]);
      for (int b = 0; b < w; ++b)
        y[yoff + static_cast<std::size_t>(b) * m + row] = T{};
    }
#ifdef _OPENMP
    const int nt2 = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, 1) num_threads(nt2) \
    if (nchunks > 1)
#endif
    for (std::int64_t ch = 0; ch < nchunks; ++ch) {
      const std::size_t lo = c.chunk_ptr[static_cast<std::size_t>(ch)];
      const std::size_t hi = c.chunk_ptr[static_cast<std::size_t>(ch) + 1];
      for (std::size_t j = lo; j < hi; ++j) {
        const auto row = static_cast<std::size_t>(c.entry_row[j]);
        const auto col = static_cast<std::size_t>(c.entry_col[j]);
        const T av = c.entry_val[j];
        for (int b = 0; b < w; ++b)
          y[yoff + static_cast<std::size_t>(b) * m + row] +=
              av * x[xoff + static_cast<std::size_t>(b) * n + col];
      }
    }
  }
}

/// Batched Dcsr: per row or slice, kLayoutColumns columns at a time and
/// one at a time for the rest — the exact per-column order of native_dcsr.
template <typename T>
void native_dcsr_batch(int threads, const fmt::DeltaBin<T>& d,
                       std::span<const T> x, std::span<T> y, int batch,
                       std::size_t n, std::size_t m) {
  const auto nrows = static_cast<std::int64_t>(d.rows.size());
  const std::int64_t slice = d.slice;
  const std::int64_t nslices = (nrows + slice - 1) / slice;
#ifdef _OPENMP
  const int nt = threads > 0 ? threads : omp_get_max_threads();
#pragma omp parallel for schedule(dynamic, dcsr_chunk(slice)) \
    num_threads(nt) if (nrows > kInlineSlots)
#else
  (void)threads;
#endif
  for (std::int64_t s = 0; s < nslices; ++s) {
    const auto s0 = static_cast<std::size_t>(s * slice);
    if (slice == 1) {
      const auto lo = static_cast<std::size_t>(d.row_ptr[s0]);
      const auto len = static_cast<std::size_t>(d.row_ptr[s0 + 1]) - lo;
      const T* v = d.vals.data() + lo;
      const std::uint16_t* off = d.offsets.data() + lo;
      const T* xb = x.data() + static_cast<std::size_t>(d.base_col[s0]);
      const auto row = static_cast<std::size_t>(d.rows[s0]);
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
          d, s0, x.data() + static_cast<std::size_t>(b) * n, n, out);
      store_slice<kLayoutColumns>(
          d, s0, out, y.subspan(static_cast<std::size_t>(b) * m), m);
    }
    for (; b < batch; ++b) {
      T out[1][fmt::kDcsrSlice];
      slice_dots<1>(d, s0, x.data() + static_cast<std::size_t>(b) * n, 0,
                    out);
      store_slice<1>(d, s0, out, y.subspan(static_cast<std::size_t>(b) * m));
    }
  }
}

template <typename T>
void native_layout(int threads, const fmt::BinLayout<T>& l,
                   std::span<const T> x, std::span<T> y) {
  switch (l.kind) {
    case fmt::FormatKind::Ell: return native_ell(threads, l.ell, x, y);
    case fmt::FormatKind::Coo: return native_coo(threads, l.coo, x, y);
    case fmt::FormatKind::Dcsr: return native_dcsr(threads, l.dcsr, x, y);
    case fmt::FormatKind::Csr: break;
  }
  throw std::invalid_argument("NativeBackend: bad layout kind");
}

template <typename T>
void native_layout_batch(int threads, const fmt::BinLayout<T>& l,
                         std::span<const T> x, std::span<T> y, int batch,
                         std::size_t n, std::size_t m) {
  switch (l.kind) {
    case fmt::FormatKind::Ell:
      return native_ell_batch(threads, l.ell, x, y, batch, n, m);
    case fmt::FormatKind::Coo:
      return native_coo_batch(threads, l.coo, x, y, batch, n, m);
    case fmt::FormatKind::Dcsr:
      return native_dcsr_batch(threads, l.dcsr, x, y, batch, n, m);
    case fmt::FormatKind::Csr: break;
  }
  throw std::invalid_argument("NativeBackend: bad layout kind");
}

}  // namespace

void NativeBackend::do_run_binned(kernels::KernelId id,
                                  const CsrMatrix<float>& a,
                                  std::span<const float> x,
                                  std::span<float> y,
                                  std::span<const index_t> vrows,
                                  index_t unit) const {
  native_binned(options_.threads, id, a, x, y, vrows, unit);
}

void NativeBackend::do_run_binned(kernels::KernelId id,
                                  const CsrMatrix<double>& a,
                                  std::span<const double> x,
                                  std::span<double> y,
                                  std::span<const index_t> vrows,
                                  index_t unit) const {
  native_binned(options_.threads, id, a, x, y, vrows, unit);
}

void NativeBackend::do_run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                                std::span<const float> x, std::span<float> y,
                                int width, std::span<const index_t> vrows,
                                index_t unit) const {
  native_spmm(options_.threads, id, a, x, y, width, vrows, unit);
}

void NativeBackend::do_run_spmm(kernels::KernelId id,
                                const CsrMatrix<double>& a,
                                std::span<const double> x,
                                std::span<double> y, int width,
                                std::span<const index_t> vrows,
                                index_t unit) const {
  native_spmm(options_.threads, id, a, x, y, width, vrows, unit);
}

void NativeBackend::do_run_layout(const CsrMatrix<float>& a,
                                  const fmt::BinLayout<float>& l,
                                  std::span<const float> x,
                                  std::span<float> y) const {
  (void)a;
  native_layout(options_.threads, l, x, y);
}

void NativeBackend::do_run_layout(const CsrMatrix<double>& a,
                                  const fmt::BinLayout<double>& l,
                                  std::span<const double> x,
                                  std::span<double> y) const {
  (void)a;
  native_layout(options_.threads, l, x, y);
}

void NativeBackend::do_run_layout_batch(const CsrMatrix<float>& a,
                                        const fmt::BinLayout<float>& l,
                                        std::span<const float> x,
                                        std::span<float> y, int batch) const {
  native_layout_batch(options_.threads, l, x, y, batch,
                      static_cast<std::size_t>(a.cols()),
                      static_cast<std::size_t>(a.rows()));
}

void NativeBackend::do_run_layout_batch(const CsrMatrix<double>& a,
                                        const fmt::BinLayout<double>& l,
                                        std::span<const double> x,
                                        std::span<double> y, int batch) const {
  native_layout_batch(options_.threads, l, x, y, batch,
                      static_cast<std::size_t>(a.cols()),
                      static_cast<std::size_t>(a.rows()));
}

}  // namespace spmv::exec
