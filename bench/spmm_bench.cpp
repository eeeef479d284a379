// bench spmm_bench — the true-SpMM acceptance number: Y = A·X through the
// blocked one-traversal kernels (core::execute_plan_spmm) against the
// per-column fallback (`width` single-vector runs of the same plan), across
// the block widths solver loops actually use. The blocked path reads each
// row's (val, col) stream once per register tile instead of once per
// column, so the speedup is the measure of how far the memory-bound
// ceiling lifts for iterative workloads.
//
//   spmm_bench [--rows N] [--half-band B] [--backend clsim|native]
//              [--format csr|auto] [--check] [--speedup-floor 1.5]
//              [--json out.json]
//
// The default corpus is max(150000, rows whose CSR is 2.2x the last-level
// cache), so A streams from DRAM on every traversal — the regime the
// blocked kernels are for (perfbench sizes solve_stream the same way);
// --rows overrides it.
//
// --check turns the acceptance criterion into the exit code: blocked
// GFLOP/s must be >= speedup-floor x the per-column GFLOP/s at every
// width >= 8. Widths below 8 are reported but not gated — a 1-wide
// "block" is the same traversal either way. --json writes the machine-readable summary
// (config + per-width scalars) CI uploads.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

namespace {

/// Last-level cache bytes: L3, else L2, else 0 when neither is reported.
std::size_t llc_bytes() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? static_cast<std::size_t>(bytes) : 0;
}

/// Default corpus rows: at least 150k, and enough that the banded CSR
/// (row_ptr plus a column and a value per entry, 2*half_band+1 entries a
/// row) is 2.2x the last-level cache.
index_t default_rows(index_t half_band) {
  const double row_bytes = 8.0 + (2.0 * half_band + 1.0) * 8.0;
  const auto fit = static_cast<index_t>(
      std::ceil(2.2 * static_cast<double>(llc_bytes()) / row_bytes));
  return std::max<index_t>(150000, fit);
}

struct WidthResult {
  int width = 0;
  double percol_gf = 0.0;
  double blocked_gf = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto half_band = static_cast<index_t>(cli.get_int("half-band", 32));
  const auto rows =
      static_cast<index_t>(cli.get_int("rows", default_rows(half_band)));
  const auto backend = exec::backend_from_name(cli.get("backend", "native"));
  const auto format = format_from_cli(cli);
  const bool check = cli.get_bool("check", false);
  const double floor = cli.get_double("speedup-floor", 1.5);

  // Banded (FEM/stencil) corpus: the solver-loop regime blocked SpMM is
  // built for. A streams from memory once per column block instead of once
  // per column, while every column's x window slides with the band and
  // stays cache-resident — the A-traversal saving is the whole measurement.
  // (On a random-column matrix with a tall X the gathered working set is
  // width * cols and the per-column fallback's prefetched re-streams win
  // instead; that regime is why run_spmm is plan-gated, not a default.)
  const auto a = gen::banded<float>(rows, half_band, 1.0, 2);
  const core::HeuristicPredictor pred;
  const auto rt = core::Tuner(a)
                      .predictor(pred)
                      .backend(backend)
                      .formats(format)
                      .format_policy({.min_reuse = 0})
                      .build();
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());

  std::printf("=== bench spmm_bench (rows=%d, half_band=%d, nnz=%lld, "
              "llc=%zu MiB, backend=%s, format=%s) ===\n",
              rows, half_band, static_cast<long long>(a.nnz()),
              llc_bytes() >> 20,
              exec::backend_cname(backend),
              fmt::format_mode_cname(format));
  std::printf("plan: %s\n\n", rt.plan().to_string().c_str());

  std::vector<WidthResult> results;
  std::printf("%6s %14s %14s %9s\n", "width", "percol[GF/s]",
              "blocked[GF/s]", "speedup");
  for (const int width : {1, 8, 32, 64}) {
    const auto w = static_cast<std::size_t>(width);
    std::vector<float> xb(n * w);
    for (std::size_t c = 0; c < w; ++c) {
      const auto col = random_x(n, 4242 + c);
      std::copy(col.begin(), col.end(), xb.begin() + c * n);
    }
    std::vector<float> yb(m * w);
    // 2*nnz flops per column either way; only the traversal count differs.
    const double flops_gf = 2.0 * static_cast<double>(a.nnz()) *
                            static_cast<double>(width) * 1e-9;
    const double percol_s = time_spmv([&] {
      for (std::size_t c = 0; c < w; ++c)
        rt.run(std::span<const float>(xb).subspan(c * n, n),
               std::span<float>(yb).subspan(c * m, m));
    });
    const double blocked_s = time_spmv([&] {
      rt.run_spmm(std::span<const float>(xb), std::span<float>(yb), width);
    });
    const WidthResult r{width, flops_gf / percol_s, flops_gf / blocked_s};
    results.push_back(r);
    std::printf("%6d %14.2f %14.2f %8.2fx\n", r.width, r.percol_gf,
                r.blocked_gf, r.blocked_gf / r.percol_gf);
  }

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    auto config = prof::Json::object();
    config.set("rows", static_cast<std::int64_t>(rows));
    config.set("half_band", static_cast<std::int64_t>(half_band));
    config.set("backend", exec::backend_name(backend));
    config.set("format", std::string(fmt::format_mode_cname(format)));
    auto root = prof::Json::object();
    root.set("bench", "spmm_bench");
    root.set("config", std::move(config));
    root.set("nnz", static_cast<std::int64_t>(a.nnz()));
    for (const auto& r : results) {
      std::string tag = "w";
      tag += std::to_string(r.width);
      root.set(tag + "_percol_gflops", r.percol_gf);
      root.set(tag + "_blocked_gflops", r.blocked_gf);
      root.set(tag + "_speedup", r.blocked_gf / r.percol_gf);
    }
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << root.dump() << "\n";
    std::printf("bench summary written to %s\n", json_path.c_str());
  }

  if (!check) return 0;
  bool ok = true;
  for (const auto& r : results) {
    if (r.width < 8) continue;
    if (r.blocked_gf < floor * r.percol_gf) {
      std::printf("FAIL: width %d blocked %.2f GF/s below %.2f x "
                  "per-column %.2f GF/s\n",
                  r.width, r.blocked_gf, floor, r.percol_gf);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("OK: blocked SpMM >= %.2fx per-column at every width >= 8\n",
              floor);
  return 0;
}
