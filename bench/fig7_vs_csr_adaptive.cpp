// Figure 7 reproduction: speedup of kernel-auto over the CSR-Adaptive
// baseline (Greathouse & Daga) on the 16 Table-II matrices.
//
// The paper reports kernel-auto winning on 10 of 16 matrices, by up to
// 1.9x, with CSR-Adaptive ahead on crankseg_2, D6-6, dictionary28,
// europe_osm, Ga3As3H12, and roadNet-CA (discussed in §IV-C and Figure 9).
#include <cstdio>

#include "bench_common.hpp"

using namespace spmv;
using namespace spmv::bench;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double extra_scale = cli.get_double("scale", 1.0);
  const auto pools = bench_pools(cli.get_bool("full-pool", false));

  prof::RunProfile profile;
  profile.label = "fig7_vs_csr_adaptive";
  prof::RunProfile* prof_ptr = cli.has("profile") ? &profile : nullptr;

  std::printf("=== bench fig7_vs_csr_adaptive (scale=%.3f) ===\n\n",
              extra_scale);
  std::printf("%-16s %14s %18s %16s %8s\n", "matrix", "auto[ms]",
              "csr-adaptive[ms]", "speedup(auto)", "winner");
  rule(78);

  int auto_wins = 0;
  std::vector<double> speedups;
  for (const auto& base_info : gen::representative_catalogue()) {
    auto info = base_info;
    info.scale *= extra_scale;
    const auto a = gen::make_representative<float>(info);
    const auto x = random_x(static_cast<std::size_t>(a.cols()));
    std::vector<float> y(static_cast<std::size_t>(a.rows()));

    const auto plan = oracle_plan(a, x, pools);
    const auto bins = core::bins_for_plan(a, plan);
    const double t_auto = time_strategy(prof_ptr, info.name + "/auto", [&] {
      core::execute_plan(*exec::shared_backend(exec::BackendKind::Clsim), a,
                         std::span<const float>(x), std::span<float>(y), bins,
                         plan);
    });

    baseline::CsrAdaptive<float> adaptive(a, clsim::default_engine());
    const double t_adaptive = time_strategy(
        prof_ptr, info.name + "/csr-adaptive",
        [&] { adaptive.run(std::span<const float>(x), std::span<float>(y)); });

    const double speedup = t_adaptive / t_auto;
    speedups.push_back(speedup);
    if (speedup >= 1.0) ++auto_wins;
    std::printf("%-16s %14.3f %18.3f %15.2fx %8s\n", info.name.c_str(),
                1e3 * t_auto, 1e3 * t_adaptive, speedup,
                speedup >= 1.0 ? "auto" : "csr-ad");
  }

  rule(78);
  std::printf(
      "kernel-auto wins on %d of 16 matrices (paper: 10 of 16); max speedup "
      "%.2fx (paper: up to 1.9x); geomean %.2fx\n",
      auto_wins, *std::max_element(speedups.begin(), speedups.end()),
      util::geometric_mean(speedups));
  write_profile(cli, profile);
  return 0;
}
