// spmv::exec — the execution-backend seam. A Backend owns kernel dispatch
// for one execution model through one hook, do_run_bins (every bin of one
// plan); the single-bin forms (run_binned / run_full for one vector,
// run_spmm for a block of vectors, run_layout*) are lists of one task. The
// rest of the stack (core::AutoSpmv, serve::SpmvService,
// adapt::BanditTuner) targets this interface instead of clsim::Engine
// directly, so a plan can execute on the paper's lockstep simulator
// (ClsimBackend) or on tight auto-vectorized CPU loops (NativeBackend).
//
// Backend choice is a *plan* property: core::Plan carries a BackendKind
// that travels through plan_io, and the Tuner resolves it at build time
// (see tuner.hpp) to one of the two process-wide instances
// (shared_backend). The figure benches, the trainer and the exhaustive
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

/// Abstract kernel-dispatch interface with one run hook. Every public
/// form — a whole plan (run_bins) or a single bin (run_binned, run_full,
/// run_spmm, run_layout, run_layout_batch) — is validated here and reaches
/// the backend as one call of do_run_bins: a single-bin form is a list of
/// one task. Implementations are stateless apart from configuration and
/// safe to share across threads; the hook is spelled out for float and
/// double (virtual functions cannot be templates) — the library's two
/// instantiated scalar types.
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

  /// Whether this backend executes materialized bin layouts (spmv::fmt).
  /// Backends that return false always execute bins from the shared CSR
  /// arrays — core::execute_plan only takes the layout path when the
  /// resolved backend supports it, which is how ClsimBackend stays a CSR
  /// reference the differential suite can compare formats against.
  [[nodiscard]] virtual bool supports_formats() const { return false; }

  /// Execute every bin of one plan over `width` columns (the run_spmm
  /// layout; width 1 is one vector): a task with a layout runs from it,
  /// any other runs pool kernel `kernel` from the shared CSR arrays. Tasks
  /// must cover disjoint rows, as the bins of one BinSet do; rows no task
  /// covers are untouched. Throws std::invalid_argument for a width below
  /// 1, X/Y extents other than cols*width / rows*width or a bad kernel id,
  /// and std::logic_error for a layout task when supports_formats() is
  /// false — all before the backend runs anything.
  void run_bins(const CsrMatrix<float>& a,
                std::span<const BinTask<float>> tasks,
                std::span<const float> x, std::span<float> y,
                int width) const;
  void run_bins(const CsrMatrix<double>& a,
                std::span<const BinTask<double>> tasks,
                std::span<const double> x, std::span<double> y,
                int width) const;

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
  /// long). Every backend shares one CSR traversal across the columns
  /// where its execution model allows it, and per output column the
  /// products accumulate in exactly the order the single-vector kernel
  /// `id` would use, so a width-N run is bit-identical to N run_binned
  /// calls. Columns a backend cannot block are run one by one and counted
  /// in prof::spmm_fallback_columns.
  void run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                std::span<const float> x, std::span<float> y, int width,
                std::span<const index_t> vrows, index_t unit) const;
  void run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                std::span<const double> x, std::span<double> y, int width,
                std::span<const index_t> vrows, index_t unit) const;

  /// Execute one materialized bin layout: y entries for every row the
  /// layout covers are overwritten (empty covered rows get 0), all others
  /// untouched — the same composition contract as run_binned. `a` supplies
  /// the extents for validation; the layout carries the actual arrays.
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
  /// The run hook: every task of `tasks` over `width` columns. Called only
  /// through run_bins, with its arguments validated.
  virtual void do_run_bins(const CsrMatrix<float>& a,
                           std::span<const BinTask<float>> tasks,
                           std::span<const float> x, std::span<float> y,
                           int width) const = 0;
  virtual void do_run_bins(const CsrMatrix<double>& a,
                           std::span<const BinTask<double>> tasks,
                           std::span<const double> x, std::span<double> y,
                           int width) const = 0;

 private:
  template <typename T>
  void run_bins_impl(const CsrMatrix<T>& a, std::span<const BinTask<T>> tasks,
                     std::span<const T> x, std::span<T> y, int width) const;
};

/// The process-wide shared instance for `kind`: ClsimBackend over
/// clsim::default_engine(), or a default-configured NativeBackend. The
/// pointer is a no-op-deleter alias of a function-local static, so it is
/// valid for the whole process lifetime and cheap to copy.
std::shared_ptr<const Backend> shared_backend(BackendKind kind);

}  // namespace spmv::exec
