// Shared helpers for the paper-reproduction bench binaries: input vectors,
// strategy timing, and aligned table printing. Every bench prints the rows/
// series of its paper figure, plus the seeds/scales used, so EXPERIMENTS.md
// entries can be regenerated with a single command.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "autospmv.hpp"

namespace spmv::bench {

inline std::vector<float> random_x(std::size_t n, std::uint64_t seed = 4242) {
  util::Xoshiro256 rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.uniform(0.5, 1.5));
  return x;
}

/// Measure one strategy and optionally record it into `profile` as a
/// tuning-candidate entry (label, wall cost, reps, best time). Passing a
/// profile plus the shared --profile flag (see write_profile) turns any
/// bench's table into a regression-comparable JSON artifact.
inline double time_strategy(prof::RunProfile* profile,
                            const std::string& label,
                            const std::function<void()>& run,
                            const util::MeasureOptions& opts = {
                                .warmup = 1, .reps = 5, .max_total_s = 2.0}) {
  util::Timer wall;
  const auto m = util::measure(run, opts);
  if (profile != nullptr)
    profile->add_candidate(label, wall.elapsed_s(), m.reps, m.best_s);
  return m.best_s;
}

/// Measure one SpMV strategy (best-of-reps wall clock).
inline double time_spmv(const std::function<void()>& run,
                        const util::MeasureOptions& opts = {
                            .warmup = 1, .reps = 5, .max_total_s = 2.0}) {
  return time_strategy(nullptr, std::string(), run, opts);
}

/// Honour the shared --profile=<path> bench flag: write `profile` as JSON
/// and say so. No flag, no file.
inline void write_profile(const util::Cli& cli,
                          const prof::RunProfile& profile) {
  const std::string path = cli.get("profile");
  if (path.empty()) return;
  prof::write_profile_file(path, profile);
  std::printf("profile written to %s\n", path.c_str());
}

/// GFLOP/s for an SpMV of `nnz` non-zeros (2 flops per non-zero).
inline double gflops(offset_t nnz, double seconds) {
  return 2.0 * static_cast<double>(nnz) / seconds * 1e-9;
}

/// Print a horizontal rule sized for `width` characters.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// The uniform `--backend clsim|native` flag shared by the benches (and
/// spmv_tool). Unknown names throw std::invalid_argument.
inline exec::BackendKind backend_from_cli(const util::Cli& cli) {
  return exec::backend_from_name(cli.get("backend", "clsim"));
}

/// The uniform `--format csr|auto` flag (per-bin physical layouts via the
/// spmv::fmt estimator). Unknown names throw std::invalid_argument.
inline fmt::FormatMode format_from_cli(const util::Cli& cli) {
  return fmt::format_mode_from_name(cli.get("format", "csr"));
}

/// Peel `--backend=<name>` / `--backend <name>` out of argv and return the
/// selected shared backend (clsim when absent). For benches whose remaining
/// flags go to a third-party parser that rejects unknown flags (e.g.
/// google-benchmark). `argv` is compacted in place and `*argc` updated.
inline std::shared_ptr<const exec::Backend> strip_backend_flag(int* argc,
                                                               char** argv) {
  exec::BackendKind kind = exec::BackendKind::Clsim;
  int out = 0;
  for (int i = 0; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      kind = exec::backend_from_name(
          arg.substr(std::string("--backend=").size()));
      continue;
    }
    if (arg == "--backend" && i + 1 < *argc) {
      kind = exec::backend_from_name(argv[++i]);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return exec::shared_backend(kind);
}

/// The bench-sized candidate pools: the full nine-kernel pool with a
/// five-point granularity ladder (the full 16-point ladder multiplies bench
/// time ~3x without changing any figure's shape; override with --full-pool).
inline core::CandidatePools bench_pools(bool full = false) {
  if (full) return core::default_pools();
  core::CandidatePools pools;
  pools.units = {10, 100, 1000, 10000, 100000};
  pools.kernel_pool = kernels::all_kernels();
  return pools;
}

/// Exhaustively tuned "kernel-auto" plan (the oracle the paper's trained
/// model approximates; see EXPERIMENTS.md on the auto strategy used).
inline core::Plan oracle_plan(const CsrMatrix<float>& a,
                              std::span<const float> x,
                              const core::CandidatePools& pools) {
  core::ExhaustiveOptions opts;
  opts.measure = {.warmup = 1, .reps = 5, .max_total_s = 0.5};
  return core::exhaustive_tune(*exec::shared_backend(exec::BackendKind::Clsim),
                               a, x, pools, opts)
      .best_plan;
}

/// Backend-aware oracle: tune and stamp the plan on `backend` (see
/// exec/backend.hpp — the plan records the backend it was tuned for).
inline core::Plan oracle_plan(const CsrMatrix<float>& a,
                              std::span<const float> x,
                              const core::CandidatePools& pools,
                              const exec::Backend& backend) {
  core::ExhaustiveOptions opts;
  opts.measure = {.warmup = 1, .reps = 5, .max_total_s = 0.5};
  return core::exhaustive_tune(backend, a, x, pools, opts).best_plan;
}

}  // namespace spmv::bench
