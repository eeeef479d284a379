// The kernel candidate pool: nine SpMV kernels with identical semantics but
// different thread organizations (paper §III-B, Algorithms 3-5), plus the
// registry used by the auto-tuner to enumerate and name them.
//
// Dispatch lives in spmv::exec: exec::Backend::run_binned / run_full (one
// vector) and run_spmm (a block of vectors) are the execution entry points.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clsim/engine.hpp"
#include "sparse/csr.hpp"

namespace spmv::kernels {

/// The nine pool kernels. Sub<X> assigns X cooperating lanes per row;
/// Serial assigns one lane per row; Vector assigns a whole 256-lane
/// work-group per row.
enum class KernelId : int {
  Serial = 0,
  Sub2,
  Sub4,
  Sub8,
  Sub16,
  Sub32,
  Sub64,
  Sub128,
  Vector,
};

inline constexpr int kKernelCount = 9;

/// All pool kernels in enum order.
const std::vector<KernelId>& all_kernels();

/// Stable display name, e.g. "serial", "subvector16", "vector".
std::string kernel_name(KernelId id);

/// kernel_name as a static string — for call sites that must not allocate
/// (trace spans store the pointer).
const char* kernel_cname(KernelId id);

/// Inverse of kernel_name(). Throws std::invalid_argument on unknown names.
KernelId kernel_from_name(const std::string& name);

/// Non-throwing inverse of kernel_name(): nullopt on unknown names. The
/// parse used by plan_io, where a bad name must become a counted skip, not
/// an uncaught exception type.
std::optional<KernelId> try_kernel_from_name(const std::string& name);

/// Lanes cooperating on one row: 1 for Serial, X for Sub<X>, 256 for Vector.
int lanes_per_row(KernelId id);

/// Widest batch the native multi-vector kernels support in one launch —
/// bounded by the per-lane accumulator block (wavefront * batch values)
/// fitting the device's 32 KiB local-memory arena with headroom.
inline constexpr int kMaxNativeBatch = 32;

/// True when `id` has a native multi-vector variant; ClsimBackend's
/// run_spmm loops the single-vector kernel per column for the rest.
bool has_batched_variant(KernelId id);

// --- individual kernels (implemented in kernel_*.cpp) -----------------

/// Algorithm 3: one lane per row, lockstep within each 64-lane wavefront.
template <typename T>
void kernel_serial(const clsim::Engine& engine, const CsrMatrix<T>& a,
                   std::span<const T> x, std::span<T> y,
                   std::span<const index_t> vrows, index_t unit);

/// Batched Kernel-Serial: one lane per row carrying `batch` accumulators,
/// so the lockstep CSR traversal (vals/col_idx reads, divergence cost) is
/// paid once for the whole batch instead of once per vector.
template <typename T>
void kernel_serial_batch(const clsim::Engine& engine, const CsrMatrix<T>& a,
                         std::span<const T> x, std::span<T> y, int batch,
                         std::span<const index_t> vrows, index_t unit);

/// Algorithm 4: X lanes per row; products staged through a factor*X-wide
/// local buffer and combined with a segmented parallel reduction.
template <typename T, int X>
void kernel_subvector(const clsim::Engine& engine, const CsrMatrix<T>& a,
                      std::span<const T> x, std::span<T> y,
                      std::span<const index_t> vrows, index_t unit);

/// Batched Kernel-SubvectorX: each chunk's (value, column) pairs are staged
/// into local memory once and reused for every vector of the batch, so the
/// CSR traversal is paid once while products/reductions run per column.
template <typename T, int X>
void kernel_subvector_batch(const clsim::Engine& engine,
                            const CsrMatrix<T>& a, std::span<const T> x,
                            std::span<T> y, int batch,
                            std::span<const index_t> vrows, index_t unit);

/// Algorithm 5: the whole 256-lane work-group on one row.
template <typename T>
void kernel_vector(const clsim::Engine& engine, const CsrMatrix<T>& a,
                   std::span<const T> x, std::span<T> y,
                   std::span<const index_t> vrows, index_t unit);

#define SPMV_KERNELS_EXTERN(T)                                               \
  extern template void kernel_serial(const clsim::Engine&,                   \
                                     const CsrMatrix<T>&, std::span<const T>,\
                                     std::span<T>, std::span<const index_t>, \
                                     index_t);                               \
  extern template void kernel_serial_batch(const clsim::Engine&,             \
                                           const CsrMatrix<T>&,              \
                                           std::span<const T>, std::span<T>, \
                                           int, std::span<const index_t>,    \
                                           index_t);                         \
  extern template void kernel_vector(const clsim::Engine&,                   \
                                     const CsrMatrix<T>&, std::span<const T>,\
                                     std::span<T>, std::span<const index_t>, \
                                     index_t);
SPMV_KERNELS_EXTERN(float)
SPMV_KERNELS_EXTERN(double)
#undef SPMV_KERNELS_EXTERN

}  // namespace spmv::kernels
