// Kernel dispatch for the clsim execution model: the switch over the nine
// pool kernels and the SpMM launch slicing.
#include "exec/clsim_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernels/binned_common.hpp"
#include "prof/counters.hpp"
#include "trace/trace.hpp"

namespace spmv::exec {

namespace {

using kernels::KernelId;

template <typename T>
void dispatch_binned(KernelId id, const clsim::Engine& engine,
                     const CsrMatrix<T>& a, std::span<const T> x,
                     std::span<T> y, std::span<const index_t> vrows,
                     index_t unit) {
  switch (id) {
    case KernelId::Serial:
      return kernels::kernel_serial(engine, a, x, y, vrows, unit);
    case KernelId::Sub2:
      return kernels::kernel_subvector<T, 2>(engine, a, x, y, vrows, unit);
    case KernelId::Sub4:
      return kernels::kernel_subvector<T, 4>(engine, a, x, y, vrows, unit);
    case KernelId::Sub8:
      return kernels::kernel_subvector<T, 8>(engine, a, x, y, vrows, unit);
    case KernelId::Sub16:
      return kernels::kernel_subvector<T, 16>(engine, a, x, y, vrows, unit);
    case KernelId::Sub32:
      return kernels::kernel_subvector<T, 32>(engine, a, x, y, vrows, unit);
    case KernelId::Sub64:
      return kernels::kernel_subvector<T, 64>(engine, a, x, y, vrows, unit);
    case KernelId::Sub128:
      return kernels::kernel_subvector<T, 128>(engine, a, x, y, vrows, unit);
    case KernelId::Vector:
      return kernels::kernel_vector(engine, a, x, y, vrows, unit);
  }
}

/// One single-vector launch with its "kernel" trace span.
template <typename T>
void run_kernel(KernelId id, const clsim::Engine& engine,
                const CsrMatrix<T>& a, std::span<const T> x, std::span<T> y,
                std::span<const index_t> vrows, index_t unit) {
  trace::TraceSpan span(kernels::kernel_cname(id), "kernel");
  span.arg("virtual_rows", static_cast<std::int64_t>(vrows.size()));
  span.arg("unit", unit);
  dispatch_binned(id, engine, a, x, y, vrows, unit);
}

/// Widest native batch whose local-memory footprint fits the device's
/// 32 KiB arena (mirrors the local_array calls in kernel_serial_batch /
/// kernel_subvector_batch). 0 = no native variant; wider batches are
/// sliced into limit-sized launches.
template <typename T>
int native_batch_limit(KernelId id) {
  constexpr std::size_t kArena = 32 * 1024;
  constexpr std::size_t kGroup = 256, kWave = 64, kFactor = 4;
  std::size_t fixed = 0, per_batch = 0;
  if (id == KernelId::Serial) {
    fixed = kWave * (2 * sizeof(offset_t) + sizeof(index_t));
    per_batch = kWave * sizeof(T);  // one accumulator lane per wavefront
  } else if (kernels::has_batched_variant(id)) {
    // val/col stage + reduction buffer, plus per-subgroup batch sums.
    fixed = kFactor * kGroup * (2 * sizeof(T) + sizeof(index_t));
    per_batch = (kGroup / static_cast<std::size_t>(
                              kernels::lanes_per_row(id))) *
                sizeof(T);
  } else {
    return 0;
  }
  if (fixed >= kArena) return 0;
  const auto limit = static_cast<int>((kArena - fixed) / per_batch);
  return std::min(limit, kernels::kMaxNativeBatch);
}

/// Dispatch one natively batched launch (batch within native_batch_limit).
template <typename T>
void dispatch_native_batch(KernelId id, const clsim::Engine& engine,
                           const CsrMatrix<T>& a, std::span<const T> x,
                           std::span<T> y, int batch,
                           std::span<const index_t> vrows, index_t unit) {
  switch (id) {
    case KernelId::Serial:
      return kernels::kernel_serial_batch(engine, a, x, y, batch, vrows,
                                          unit);
    case KernelId::Sub2:
      return kernels::kernel_subvector_batch<T, 2>(engine, a, x, y, batch,
                                                   vrows, unit);
    case KernelId::Sub4:
      return kernels::kernel_subvector_batch<T, 4>(engine, a, x, y, batch,
                                                   vrows, unit);
    case KernelId::Sub8:
      return kernels::kernel_subvector_batch<T, 8>(engine, a, x, y, batch,
                                                   vrows, unit);
    case KernelId::Sub16:
      return kernels::kernel_subvector_batch<T, 16>(engine, a, x, y, batch,
                                                    vrows, unit);
    case KernelId::Sub32:
      return kernels::kernel_subvector_batch<T, 32>(engine, a, x, y, batch,
                                                    vrows, unit);
    case KernelId::Sub64:
      return kernels::kernel_subvector_batch<T, 64>(engine, a, x, y, batch,
                                                    vrows, unit);
    case KernelId::Sub128:
      return kernels::kernel_subvector_batch<T, 128>(engine, a, x, y, batch,
                                                     vrows, unit);
    case KernelId::Vector:
      break;
  }
  throw std::invalid_argument(
      "ClsimBackend: kernel has no batched variant");
}

/// SpMM: slice the block into native limit-sized batched launches, falling
/// back to one single-vector launch per column when no native variant
/// fits. Each batched lane accumulates its columns in the single-vector
/// kernel's order, so every column matches run_binned bit for bit. The
/// single-vector launches emit their own "kernel" trace spans.
template <typename T>
void dispatch_spmm(KernelId id, const clsim::Engine& engine,
                   const CsrMatrix<T>& a, std::span<const T> x,
                   std::span<T> y, int width, std::span<const index_t> vrows,
                   index_t unit) {
  trace::TraceSpan span(kernels::kernel_cname(id), "spmm");
  span.arg("width", width);
  span.arg("virtual_rows", static_cast<std::int64_t>(vrows.size()));
  const int limit = native_batch_limit<T>(id);
  if (limit >= 2) {
    // Native path, sliced so each launch's accumulators fit the arena.
    const auto cols = static_cast<std::size_t>(a.cols());
    const auto rows = static_cast<std::size_t>(a.rows());
    for (int b0 = 0; b0 < width; b0 += limit) {
      const int w = std::min(limit, width - b0);
      const auto xw = x.subspan(static_cast<std::size_t>(b0) * cols,
                                static_cast<std::size_t>(w) * cols);
      const auto yw = y.subspan(static_cast<std::size_t>(b0) * rows,
                                static_cast<std::size_t>(w) * rows);
      if (w == 1) {
        run_kernel(id, engine, a, xw, yw, vrows, unit);
      } else {
        dispatch_native_batch(id, engine, a, xw, yw, w, vrows, unit);
      }
    }
    return;
  }
  // Fallback: one single-vector launch per column, each one counted so
  // profiled runs see the columns that miss the blocked path.
  prof::add_spmm_fallback_columns(static_cast<std::uint64_t>(width));
  for (int b = 0; b < width; ++b) {
    run_kernel(id, engine, a, kernels::batch_column(x, a.cols(), b),
               kernels::batch_column(y, a.rows(), b), vrows, unit);
  }
}

/// The bins one after another, each as one launch (width 1) or one SpMM.
/// run_bins has rejected layout tasks: clsim runs every bin from CSR.
template <typename T>
void run_tasks(const clsim::Engine& engine, const CsrMatrix<T>& a,
               std::span<const BinTask<T>> tasks, std::span<const T> x,
               std::span<T> y, int width) {
  for (const BinTask<T>& t : tasks) {
    if (width == 1)
      run_kernel(t.kernel, engine, a, x, y, t.vrows, t.unit);
    else
      dispatch_spmm(t.kernel, engine, a, x, y, width, t.vrows, t.unit);
  }
}

}  // namespace

void ClsimBackend::do_run_bins(const CsrMatrix<float>& a,
                               std::span<const BinTask<float>> tasks,
                               std::span<const float> x, std::span<float> y,
                               int width) const {
  run_tasks(*engine_, a, tasks, x, y, width);
}

void ClsimBackend::do_run_bins(const CsrMatrix<double>& a,
                               std::span<const BinTask<double>> tasks,
                               std::span<const double> x, std::span<double> y,
                               int width) const {
  run_tasks(*engine_, a, tasks, x, y, width);
}

}  // namespace spmv::exec
