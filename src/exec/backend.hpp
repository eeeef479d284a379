// spmv::exec — the execution-backend seam. A Backend owns kernel dispatch
// (run_binned / run_full for one vector, run_spmm for a block of vectors,
// run_bins for every bin of one plan) for one execution model; the rest of
// the stack (core::AutoSpmv, serve::SpmvService, adapt::BanditTuner)
// targets this interface instead of clsim::Engine directly, so a plan can
// execute on the paper's lockstep simulator (ClsimBackend) or on tight
// auto-vectorized CPU loops (NativeBackend).
//
// Backend choice is a *plan* property: core::Plan carries a BackendKind
// that travels through plan_io, and the Tuner resolves it at build time
// (see tuner.hpp). The figure benches, the trainer and the exhaustive
// oracle run clsim; serving (serve, shard, iter, the adapt trials and the
// PlanStore) runs native plans only (see require_native).
//
// Semantics contract: every backend computes the same per-row products over
// a bin's covered rows (the RowMap rule in kernels/binned_common.hpp) —
// kernel ids select a thread-organization *shape*, never a different
// result. tests/test_differential.cpp enforces this across the full random
// corpus for every backend.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kernels/registry.hpp"
#include "sparse/csr.hpp"

namespace spmv::clsim {
class Engine;
}  // namespace spmv::clsim

namespace spmv::fmt {
template <typename T>
struct BinLayout;
}  // namespace spmv::fmt

namespace spmv::exec {

/// The available execution backends. Clsim is the paper's work-group
/// lockstep simulator (reference semantics); Native lowers the same bin
/// shapes to auto-vectorized OpenMP loops on the host CPU.
enum class BackendKind : int {
  Clsim = 0,
  Native,
};

inline constexpr int kBackendCount = 2;

/// All backends in enum order (mirrors kernels::all_kernels()).
const std::vector<BackendKind>& all_backends();

/// Stable display name: "clsim" or "native".
std::string backend_name(BackendKind kind);

/// backend_name as a static string — for call sites that must not allocate
/// (trace spans store the pointer).
const char* backend_cname(BackendKind kind);

/// Inverse of backend_name(). Throws std::invalid_argument on unknown
/// names (same contract as kernels::kernel_from_name).
BackendKind backend_from_name(const std::string& name);

/// Non-throwing inverse of backend_name(): nullopt on unknown names. The
/// parse used by plan_io, where a bad name must become a counted skip, not
/// an uncaught exception type.
std::optional<BackendKind> try_backend_from_name(const std::string& name);

/// Throws std::invalid_argument naming `who` unless `kind` is Native.
void require_native(BackendKind kind, const char* who);

/// One bin of a plan, resolved for execution: the bin's virtual rows at
/// granularity `unit`, run from the shared CSR arrays with pool kernel
/// `kernel`, or from `layout` when it is non-null (the kernel id is then
/// unused). The spans and the layout are borrowed for the call.
template <typename T>
struct BinTask {
  kernels::KernelId kernel = kernels::KernelId::Serial;
  std::span<const index_t> vrows;
  index_t unit = 1;
  const fmt::BinLayout<T>* layout = nullptr;
};

/// Abstract kernel-dispatch interface. Implementations are stateless apart
/// from configuration and safe to share across threads; the public entry
/// points validate arguments and emit the per-kernel trace spans, then
/// forward to the per-scalar-type virtual hooks (virtual functions cannot
/// be templates, so float and double are spelled out — the library's two
/// instantiated scalar types).
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  /// Static display name (backend_cname(kind())).
  [[nodiscard]] const char* name() const { return backend_cname(kind()); }

  /// The clsim engine whose launch counters this backend drives, or null
  /// for backends that never touch clsim. Profiled plan execution merges
  /// counter deltas only when an engine is present.
  [[nodiscard]] virtual const clsim::Engine* engine() const { return nullptr; }

  /// Execute pool kernel `id` over the actual rows covered by the virtual
  /// rows `vrows` at granularity `unit`, writing only those entries of y.
  /// Rows not covered by `vrows` are untouched, so the caller can compose
  /// a full SpMV from per-bin launches.
  void run_binned(kernels::KernelId id, const CsrMatrix<float>& a,
                  std::span<const float> x, std::span<float> y,
                  std::span<const index_t> vrows, index_t unit) const;
  void run_binned(kernels::KernelId id, const CsrMatrix<double>& a,
                  std::span<const double> x, std::span<double> y,
                  std::span<const index_t> vrows, index_t unit) const;

  /// Convenience: run pool kernel `id` over the whole matrix (all rows in
  /// a single implicit bin of granularity 1).
  void run_full(kernels::KernelId id, const CsrMatrix<float>& a,
                std::span<const float> x, std::span<float> y) const;
  void run_full(kernels::KernelId id, const CsrMatrix<double>& a,
                std::span<const double> x, std::span<double> y) const;

  /// SpMM over the bin's rows: Y = A·X for `width` dense right-hand sides
  /// stored column-major (kernels::batch_column layout, each a.cols()
  /// long), results written to the matching columns of `y` (each a.rows()
  /// long). The one multi-vector entry point: every backend shares one CSR
  /// traversal across the columns where its execution model allows it, and
  /// per output column the products accumulate in exactly the order the
  /// single-vector kernel `id` would use, so a width-N run is bit-identical
  /// to N run_binned calls. Columns a backend cannot block are run one by
  /// one and counted in prof::spmm_fallback_columns. width == 1 routes
  /// through run_binned.
  void run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                std::span<const float> x, std::span<float> y, int width,
                std::span<const index_t> vrows, index_t unit) const;
  void run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                std::span<const double> x, std::span<double> y, int width,
                std::span<const index_t> vrows, index_t unit) const;

  /// Execute every bin of one plan over `width` columns (the run_spmm
  /// layout; width 1 is one vector): each task runs as run_layout_batch
  /// when it carries a layout, else as run_spmm, and every covered row gets
  /// the bits that single-bin launch would write. Tasks must cover disjoint
  /// rows, as the bins of one BinSet do; rows no task covers are
  /// untouched. The base implementation launches the bins one after
  /// another; NativeBackend runs them all in one parallel region. Throws
  /// std::logic_error for a layout task when supports_formats() is false.
  void run_bins(const CsrMatrix<float>& a,
                std::span<const BinTask<float>> tasks,
                std::span<const float> x, std::span<float> y,
                int width) const;
  void run_bins(const CsrMatrix<double>& a,
                std::span<const BinTask<double>> tasks,
                std::span<const double> x, std::span<double> y,
                int width) const;

  /// Whether this backend executes materialized bin layouts (spmv::fmt).
  /// Backends that return false always execute bins from the shared CSR
  /// arrays — core::execute_plan only takes the layout path when the
  /// resolved backend supports it, which is how ClsimBackend stays a CSR
  /// reference the differential suite can compare formats against.
  [[nodiscard]] virtual bool supports_formats() const { return false; }

  /// Execute one materialized bin layout: y entries for every row the
  /// layout covers are overwritten (empty covered rows get 0), all others
  /// untouched — the same composition contract as run_binned. `a` supplies
  /// the extents for validation; the layout carries the actual arrays.
  /// Throws std::logic_error when supports_formats() is false.
  void run_layout(const CsrMatrix<float>& a, const fmt::BinLayout<float>& l,
                  std::span<const float> x, std::span<float> y) const;
  void run_layout(const CsrMatrix<double>& a, const fmt::BinLayout<double>& l,
                  std::span<const double> x, std::span<double> y) const;

  /// Multi-vector layout execution (kernels::batch_column layout, like
  /// run_spmm).
  void run_layout_batch(const CsrMatrix<float>& a,
                        const fmt::BinLayout<float>& l,
                        std::span<const float> x, std::span<float> y,
                        int batch) const;
  void run_layout_batch(const CsrMatrix<double>& a,
                        const fmt::BinLayout<double>& l,
                        std::span<const double> x, std::span<double> y,
                        int batch) const;

 protected:
  virtual void do_run_binned(kernels::KernelId id, const CsrMatrix<float>& a,
                             std::span<const float> x, std::span<float> y,
                             std::span<const index_t> vrows,
                             index_t unit) const = 0;
  virtual void do_run_binned(kernels::KernelId id, const CsrMatrix<double>& a,
                             std::span<const double> x, std::span<double> y,
                             std::span<const index_t> vrows,
                             index_t unit) const = 0;
  /// SpMM hooks. Only called with width >= 2 and validated extents;
  /// width == 1 routes through do_run_binned.
  virtual void do_run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                           std::span<const float> x, std::span<float> y,
                           int width, std::span<const index_t> vrows,
                           index_t unit) const = 0;
  virtual void do_run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                           std::span<const double> x, std::span<double> y,
                           int width, std::span<const index_t> vrows,
                           index_t unit) const = 0;

  /// Layout execution hooks. Not pure: the base implementations throw
  /// std::logic_error, so only format-capable backends (supports_formats()
  /// true) need to override them.
  virtual void do_run_layout(const CsrMatrix<float>& a,
                             const fmt::BinLayout<float>& l,
                             std::span<const float> x,
                             std::span<float> y) const;
  virtual void do_run_layout(const CsrMatrix<double>& a,
                             const fmt::BinLayout<double>& l,
                             std::span<const double> x,
                             std::span<double> y) const;
  virtual void do_run_layout_batch(const CsrMatrix<float>& a,
                                   const fmt::BinLayout<float>& l,
                                   std::span<const float> x,
                                   std::span<float> y, int batch) const;
  virtual void do_run_layout_batch(const CsrMatrix<double>& a,
                                   const fmt::BinLayout<double>& l,
                                   std::span<const double> x,
                                   std::span<double> y, int batch) const;

  /// Plan execution hooks. Called with validated extents; the defaults
  /// launch each task through the public single-bin entries.
  virtual void do_run_bins(const CsrMatrix<float>& a,
                           std::span<const BinTask<float>> tasks,
                           std::span<const float> x, std::span<float> y,
                           int width) const;
  virtual void do_run_bins(const CsrMatrix<double>& a,
                           std::span<const BinTask<double>> tasks,
                           std::span<const double> x, std::span<double> y,
                           int width) const;

 private:
  template <typename T>
  void run_binned_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                       std::span<const T> x, std::span<T> y,
                       std::span<const index_t> vrows, index_t unit) const;
  template <typename T>
  void run_full_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                     std::span<const T> x, std::span<T> y) const;
  template <typename T>
  void run_spmm_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                     std::span<const T> x, std::span<T> y, int width,
                     std::span<const index_t> vrows, index_t unit) const;
  template <typename T>
  void run_layout_impl(const CsrMatrix<T>& a, const fmt::BinLayout<T>& l,
                       std::span<const T> x, std::span<T> y) const;
  template <typename T>
  void run_bins_impl(const CsrMatrix<T>& a, std::span<const BinTask<T>> tasks,
                     std::span<const T> x, std::span<T> y, int width) const;
  template <typename T>
  void default_run_bins(const CsrMatrix<T>& a,
                        std::span<const BinTask<T>> tasks,
                        std::span<const T> x, std::span<T> y,
                        int width) const;
  template <typename T>
  void run_layout_batch_impl(const CsrMatrix<T>& a, const fmt::BinLayout<T>& l,
                             std::span<const T> x, std::span<T> y,
                             int batch) const;
};

/// The process-wide shared instance for `kind`: ClsimBackend over
/// clsim::default_engine(), or a default-configured NativeBackend. The
/// pointer is a no-op-deleter alias of a function-local static, so it is
/// valid for the whole process lifetime and cheap to copy.
std::shared_ptr<const Backend> shared_backend(BackendKind kind);

/// Wrap a caller-owned engine in a ClsimBackend. The engine must outlive
/// the returned backend; clsim::default_engine() resolves to the shared
/// singleton instead of a fresh wrapper.
std::shared_ptr<const Backend> wrap_engine(const clsim::Engine& engine);

/// ExecContext — the resolved execution environment one runtime carries:
/// shared ownership of the backend its plan executes on. Cheap to copy;
/// default-constructed contexts use the shared clsim backend.
class ExecContext {
 public:
  ExecContext() : backend_(shared_backend(BackendKind::Clsim)) {}
  explicit ExecContext(std::shared_ptr<const Backend> backend);

  [[nodiscard]] const Backend& backend() const { return *backend_; }
  [[nodiscard]] BackendKind kind() const { return backend_->kind(); }

 private:
  std::shared_ptr<const Backend> backend_;
};

}  // namespace spmv::exec
