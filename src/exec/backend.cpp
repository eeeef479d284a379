#include "exec/backend.hpp"

#include <numeric>
#include <stdexcept>

#include "exec/clsim_backend.hpp"
#include "exec/native_backend.hpp"
#include "fmt/layout.hpp"
#include "kernels/binned_common.hpp"
#include "trace/trace.hpp"

namespace spmv::exec {

const std::vector<BackendKind>& all_backends() {
  static const std::vector<BackendKind> kinds = {BackendKind::Clsim,
                                                 BackendKind::Native};
  return kinds;
}

const char* backend_cname(BackendKind kind) {
  switch (kind) {
    case BackendKind::Clsim: return "clsim";
    case BackendKind::Native: return "native";
  }
  throw std::invalid_argument("backend_cname: bad kind");
}

std::string backend_name(BackendKind kind) { return backend_cname(kind); }

std::optional<BackendKind> try_backend_from_name(const std::string& name) {
  for (BackendKind kind : all_backends()) {
    if (name == backend_cname(kind)) return kind;
  }
  return std::nullopt;
}

void require_native(BackendKind kind, const char* who) {
  if (kind != BackendKind::Native)
    throw std::invalid_argument(std::string(who) + ": serving runs native "
                                "plans only, not " + backend_name(kind));
}

BackendKind backend_from_name(const std::string& name) {
  if (const auto kind = try_backend_from_name(name); kind.has_value())
    return *kind;
  throw std::invalid_argument("backend_from_name: unknown backend " + name);
}

template <typename T>
void Backend::run_binned_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                              std::span<const T> x, std::span<T> y,
                              std::span<const index_t> vrows,
                              index_t unit) const {
  trace::TraceSpan span(kernels::kernel_cname(id), "kernel");
  span.arg("virtual_rows", static_cast<std::int64_t>(vrows.size()));
  span.arg("unit", unit);
  do_run_binned(id, a, x, y, vrows, unit);
}

template <typename T>
void Backend::run_full_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                            std::span<const T> x, std::span<T> y) const {
  // The whole matrix as one bin of granularity 1: virtual row i == row i.
  std::vector<index_t> vrows(static_cast<std::size_t>(a.rows()));
  std::iota(vrows.begin(), vrows.end(), index_t{0});
  run_binned_impl<T>(id, a, x, y, vrows, 1);
}

void Backend::run_binned(kernels::KernelId id, const CsrMatrix<float>& a,
                         std::span<const float> x, std::span<float> y,
                         std::span<const index_t> vrows, index_t unit) const {
  run_binned_impl<float>(id, a, x, y, vrows, unit);
}

void Backend::run_binned(kernels::KernelId id, const CsrMatrix<double>& a,
                         std::span<const double> x, std::span<double> y,
                         std::span<const index_t> vrows, index_t unit) const {
  run_binned_impl<double>(id, a, x, y, vrows, unit);
}

void Backend::run_full(kernels::KernelId id, const CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y) const {
  run_full_impl<float>(id, a, x, y);
}

void Backend::run_full(kernels::KernelId id, const CsrMatrix<double>& a,
                       std::span<const double> x, std::span<double> y) const {
  run_full_impl<double>(id, a, x, y);
}

template <typename T>
void Backend::run_spmm_impl(kernels::KernelId id, const CsrMatrix<T>& a,
                            std::span<const T> x, std::span<T> y, int width,
                            std::span<const index_t> vrows,
                            index_t unit) const {
  if (width <= 0)
    throw std::invalid_argument("run_spmm: width must be positive");
  if (x.size() != static_cast<std::size_t>(a.cols()) *
                      static_cast<std::size_t>(width) ||
      y.size() != static_cast<std::size_t>(a.rows()) *
                      static_cast<std::size_t>(width))
    throw std::invalid_argument("run_spmm: X/Y extents do not match "
                                "cols*width / rows*width");
  if (width == 1) return run_binned_impl<T>(id, a, x, y, vrows, unit);
  trace::TraceSpan span(kernels::kernel_cname(id), "spmm");
  span.arg("width", width);
  span.arg("virtual_rows", static_cast<std::int64_t>(vrows.size()));
  do_run_spmm(id, a, x, y, width, vrows, unit);
}

void Backend::run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y, int width,
                       std::span<const index_t> vrows, index_t unit) const {
  run_spmm_impl<float>(id, a, x, y, width, vrows, unit);
}

void Backend::run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                       std::span<const double> x, std::span<double> y,
                       int width, std::span<const index_t> vrows,
                       index_t unit) const {
  run_spmm_impl<double>(id, a, x, y, width, vrows, unit);
}

template <typename T>
void Backend::run_layout_impl(const CsrMatrix<T>& a, const fmt::BinLayout<T>& l,
                              std::span<const T> x, std::span<T> y) const {
  if (x.size() != static_cast<std::size_t>(a.cols()) ||
      y.size() != static_cast<std::size_t>(a.rows()))
    throw std::invalid_argument("run_layout: x/y extents do not match matrix");
  trace::TraceSpan span(fmt::format_cname(l.kind), "layout");
  span.arg("bin", l.bin_id);
  do_run_layout(a, l, x, y);
}

template <typename T>
void Backend::run_layout_batch_impl(const CsrMatrix<T>& a,
                                    const fmt::BinLayout<T>& l,
                                    std::span<const T> x, std::span<T> y,
                                    int batch) const {
  if (batch <= 0)
    throw std::invalid_argument("run_layout_batch: batch must be positive");
  if (x.size() != static_cast<std::size_t>(a.cols()) *
                      static_cast<std::size_t>(batch) ||
      y.size() != static_cast<std::size_t>(a.rows()) *
                      static_cast<std::size_t>(batch))
    throw std::invalid_argument("run_layout_batch: X/Y extents do not match "
                                "cols*batch / rows*batch");
  if (batch == 1) {
    run_layout_impl<T>(a, l, x, y);
    return;
  }
  trace::TraceSpan span(fmt::format_cname(l.kind), "layout-batch");
  span.arg("width", batch);
  span.arg("bin", l.bin_id);
  do_run_layout_batch(a, l, x, y, batch);
}

void Backend::run_layout(const CsrMatrix<float>& a,
                         const fmt::BinLayout<float>& l,
                         std::span<const float> x, std::span<float> y) const {
  run_layout_impl<float>(a, l, x, y);
}

void Backend::run_layout(const CsrMatrix<double>& a,
                         const fmt::BinLayout<double>& l,
                         std::span<const double> x, std::span<double> y) const {
  run_layout_impl<double>(a, l, x, y);
}

void Backend::run_layout_batch(const CsrMatrix<float>& a,
                               const fmt::BinLayout<float>& l,
                               std::span<const float> x, std::span<float> y,
                               int batch) const {
  run_layout_batch_impl<float>(a, l, x, y, batch);
}

void Backend::run_layout_batch(const CsrMatrix<double>& a,
                               const fmt::BinLayout<double>& l,
                               std::span<const double> x, std::span<double> y,
                               int batch) const {
  run_layout_batch_impl<double>(a, l, x, y, batch);
}

template <typename T>
void Backend::run_bins_impl(const CsrMatrix<T>& a,
                            std::span<const BinTask<T>> tasks,
                            std::span<const T> x, std::span<T> y,
                            int width) const {
  if (width <= 0)
    throw std::invalid_argument("run_bins: width must be positive");
  if (x.size() != static_cast<std::size_t>(a.cols()) *
                      static_cast<std::size_t>(width) ||
      y.size() != static_cast<std::size_t>(a.rows()) *
                      static_cast<std::size_t>(width))
    throw std::invalid_argument("run_bins: X/Y extents do not match "
                                "cols*width / rows*width");
  trace::TraceSpan span("run-bins", "exec");
  span.arg("bins", static_cast<std::int64_t>(tasks.size()));
  span.arg("width", width);
  do_run_bins(a, tasks, x, y, width);
}

template <typename T>
void Backend::default_run_bins(const CsrMatrix<T>& a,
                               std::span<const BinTask<T>> tasks,
                               std::span<const T> x, std::span<T> y,
                               int width) const {
  for (const BinTask<T>& t : tasks) {
    if (t.layout != nullptr)
      run_layout_batch_impl<T>(a, *t.layout, x, y, width);
    else
      run_spmm_impl<T>(t.kernel, a, x, y, width, t.vrows, t.unit);
  }
}

void Backend::run_bins(const CsrMatrix<float>& a,
                       std::span<const BinTask<float>> tasks,
                       std::span<const float> x, std::span<float> y,
                       int width) const {
  run_bins_impl<float>(a, tasks, x, y, width);
}

void Backend::run_bins(const CsrMatrix<double>& a,
                       std::span<const BinTask<double>> tasks,
                       std::span<const double> x, std::span<double> y,
                       int width) const {
  run_bins_impl<double>(a, tasks, x, y, width);
}

void Backend::do_run_bins(const CsrMatrix<float>& a,
                          std::span<const BinTask<float>> tasks,
                          std::span<const float> x, std::span<float> y,
                          int width) const {
  default_run_bins<float>(a, tasks, x, y, width);
}

void Backend::do_run_bins(const CsrMatrix<double>& a,
                          std::span<const BinTask<double>> tasks,
                          std::span<const double> x, std::span<double> y,
                          int width) const {
  default_run_bins<double>(a, tasks, x, y, width);
}

namespace {

[[noreturn]] void throw_no_format_support(const Backend& b) {
  throw std::logic_error(std::string("backend ") + b.name() +
                         " does not execute bin layouts "
                         "(supports_formats() is false)");
}

}  // namespace

void Backend::do_run_layout(const CsrMatrix<float>&,
                            const fmt::BinLayout<float>&,
                            std::span<const float>, std::span<float>) const {
  throw_no_format_support(*this);
}

void Backend::do_run_layout(const CsrMatrix<double>&,
                            const fmt::BinLayout<double>&,
                            std::span<const double>, std::span<double>) const {
  throw_no_format_support(*this);
}

void Backend::do_run_layout_batch(const CsrMatrix<float>&,
                                  const fmt::BinLayout<float>&,
                                  std::span<const float>, std::span<float>,
                                  int) const {
  throw_no_format_support(*this);
}

void Backend::do_run_layout_batch(const CsrMatrix<double>&,
                                  const fmt::BinLayout<double>&,
                                  std::span<const double>, std::span<double>,
                                  int) const {
  throw_no_format_support(*this);
}

std::shared_ptr<const Backend> shared_backend(BackendKind kind) {
  // Function-local statics live for the whole process; the aliasing
  // constructor hands out non-owning shared_ptrs to them.
  switch (kind) {
    case BackendKind::Clsim: {
      static const ClsimBackend backend;
      return {std::shared_ptr<const Backend>(), &backend};
    }
    case BackendKind::Native: {
      static const NativeBackend backend;
      return {std::shared_ptr<const Backend>(), &backend};
    }
  }
  throw std::invalid_argument("shared_backend: bad kind");
}

std::shared_ptr<const Backend> wrap_engine(const clsim::Engine& engine) {
  if (&engine == &clsim::default_engine())
    return shared_backend(BackendKind::Clsim);
  return std::make_shared<const ClsimBackend>(engine);
}

ExecContext::ExecContext(std::shared_ptr<const Backend> backend)
    : backend_(std::move(backend)) {
  if (backend_ == nullptr)
    throw std::invalid_argument("ExecContext: null backend");
}

}  // namespace spmv::exec
