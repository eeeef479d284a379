#include "exec/backend.hpp"

#include <numeric>
#include <stdexcept>

#include "exec/clsim_backend.hpp"
#include "exec/native_backend.hpp"
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
  for (const BinTask<T>& t : tasks) {
    if (t.layout != nullptr) {
      if (!supports_formats())
        throw std::logic_error(std::string("backend ") + name() +
                               " does not execute bin layouts "
                               "(supports_formats() is false)");
    } else if (static_cast<int>(t.kernel) < 0 ||
               static_cast<int>(t.kernel) >= kernels::kKernelCount) {
      throw std::invalid_argument("run_bins: bad kernel id");
    }
  }
  trace::TraceSpan span("run-bins", "exec");
  span.arg("bins", static_cast<std::int64_t>(tasks.size()));
  span.arg("width", width);
  do_run_bins(a, tasks, x, y, width);
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

// --- single-bin forms: a list of one task ------------------------------

namespace {

template <typename T>
void run_task(const Backend& b, const CsrMatrix<T>& a, const BinTask<T>& t,
              std::span<const T> x, std::span<T> y, int width) {
  b.run_bins(a, std::span<const BinTask<T>>(&t, 1), x, y, width);
}

template <typename T>
void run_whole(const Backend& b, kernels::KernelId id, const CsrMatrix<T>& a,
               std::span<const T> x, std::span<T> y) {
  // The whole matrix as one bin of granularity 1: virtual row i == row i.
  std::vector<index_t> vrows(static_cast<std::size_t>(a.rows()));
  std::iota(vrows.begin(), vrows.end(), index_t{0});
  run_task<T>(b, a, {id, vrows, 1}, x, y, 1);
}

template <typename T>
BinTask<T> layout_task(const fmt::BinLayout<T>& l) {
  BinTask<T> t;
  t.layout = &l;
  return t;
}

}  // namespace

void Backend::run_binned(kernels::KernelId id, const CsrMatrix<float>& a,
                         std::span<const float> x, std::span<float> y,
                         std::span<const index_t> vrows, index_t unit) const {
  run_task<float>(*this, a, {id, vrows, unit}, x, y, 1);
}

void Backend::run_binned(kernels::KernelId id, const CsrMatrix<double>& a,
                         std::span<const double> x, std::span<double> y,
                         std::span<const index_t> vrows, index_t unit) const {
  run_task<double>(*this, a, {id, vrows, unit}, x, y, 1);
}

void Backend::run_full(kernels::KernelId id, const CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y) const {
  run_whole<float>(*this, id, a, x, y);
}

void Backend::run_full(kernels::KernelId id, const CsrMatrix<double>& a,
                       std::span<const double> x, std::span<double> y) const {
  run_whole<double>(*this, id, a, x, y);
}

void Backend::run_spmm(kernels::KernelId id, const CsrMatrix<float>& a,
                       std::span<const float> x, std::span<float> y, int width,
                       std::span<const index_t> vrows, index_t unit) const {
  run_task<float>(*this, a, {id, vrows, unit}, x, y, width);
}

void Backend::run_spmm(kernels::KernelId id, const CsrMatrix<double>& a,
                       std::span<const double> x, std::span<double> y,
                       int width, std::span<const index_t> vrows,
                       index_t unit) const {
  run_task<double>(*this, a, {id, vrows, unit}, x, y, width);
}

void Backend::run_layout(const CsrMatrix<float>& a,
                         const fmt::BinLayout<float>& l,
                         std::span<const float> x, std::span<float> y) const {
  run_task<float>(*this, a, layout_task(l), x, y, 1);
}

void Backend::run_layout(const CsrMatrix<double>& a,
                         const fmt::BinLayout<double>& l,
                         std::span<const double> x, std::span<double> y) const {
  run_task<double>(*this, a, layout_task(l), x, y, 1);
}

void Backend::run_layout_batch(const CsrMatrix<float>& a,
                               const fmt::BinLayout<float>& l,
                               std::span<const float> x, std::span<float> y,
                               int batch) const {
  run_task<float>(*this, a, layout_task(l), x, y, batch);
}

void Backend::run_layout_batch(const CsrMatrix<double>& a,
                               const fmt::BinLayout<double>& l,
                               std::span<const double> x, std::span<double> y,
                               int batch) const {
  run_task<double>(*this, a, layout_task(l), x, y, batch);
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

}  // namespace spmv::exec
