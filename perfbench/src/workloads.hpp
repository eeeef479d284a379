// The three perfbench workloads. Each generates its inputs from the run
// seed, sets up the library objects, drives a closed loop of client
// threads for the run's seconds through the library's public API, checks
// sampled outputs against kernels::spmv_exact, and returns the run's
// metrics: the end-to-end set for an untraced run, the per-layer set for a
// traced one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced run: where the spans are written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< thrown + rejected + wrong results
  std::vector<Metric> metrics;
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload; human-readable lines go to stdout as it goes. Throws
/// std::invalid_argument on an unknown workload name.
RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
