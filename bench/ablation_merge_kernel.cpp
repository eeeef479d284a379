// Ablation (paper §V future work): the merge-based SpMV kernel (Merrill &
// Garland) as an additional candidate, compared against the tuned pool
// plan, CSR-Adaptive, and the plain OpenMP CPU kernel on the
// representative set.
#include <cstdio>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double extra_scale = cli.get_double("scale", 1.0);
  const auto pools = bench_pools(false);

  std::printf("=== bench ablation_merge_kernel (scale=%.3f) ===\n\n",
              extra_scale);
  std::printf("%-16s %12s %12s %14s %12s %16s\n", "matrix", "auto[ms]",
              "merge[ms]", "csr-adapt[ms]", "omp-csr[ms]", "merge in pool?");
  rule(88);

  int merge_would_win = 0;
  for (const auto& base_info : gen::representative_catalogue()) {
    auto info = base_info;
    info.scale *= extra_scale;
    const auto a = gen::make_representative<float>(info);
    const auto x = random_x(static_cast<std::size_t>(a.cols()));
    std::vector<float> y(static_cast<std::size_t>(a.rows()));

    const auto plan = oracle_plan(a, x, pools);
    const auto bins = core::bins_for_plan(a, plan);
    const double t_auto = time_spmv([&] {
      core::execute_plan(*exec::shared_backend(exec::BackendKind::Clsim), a,
                         std::span<const float>(x), std::span<float>(y), bins,
                         plan);
    });
    const double t_merge = time_spmv([&] {
      baseline::spmv_merge(a, std::span<const float>(x), std::span<float>(y));
    });
    baseline::CsrAdaptive<float> adaptive(a, clsim::default_engine());
    const double t_adaptive = time_spmv(
        [&] { adaptive.run(std::span<const float>(x), std::span<float>(y)); });
    const double t_omp = time_spmv([&] {
      kernels::spmv_omp_rows(a, std::span<const float>(x), std::span<float>(y));
    });

    const bool merge_wins = t_merge < t_auto;
    if (merge_wins) ++merge_would_win;
    std::printf("%-16s %12.3f %12.3f %14.3f %12.3f %16s\n", info.name.c_str(),
                1e3 * t_auto, 1e3 * t_merge, 1e3 * t_adaptive, 1e3 * t_omp,
                merge_wins ? "yes" : "no");
  }
  rule(88);
  std::printf(
      "adding the merge kernel to the candidate pool would improve %d of 16 "
      "matrices\n(the paper lists DP-based and merge-based kernels as "
      "future pool candidates).\n",
      merge_would_win);
  return 0;
}
