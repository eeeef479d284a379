// Simulated compute device description (stands in for the AMD APU's GPU
// half; see DESIGN.md §2). A Device describes capacity limits; the Engine
// (engine.hpp) schedules work-groups onto it.
#pragma once

#include <cstddef>

namespace spmv::clsim {

/// Device capability description.
///
/// Defaults mirror the paper's platform at the granularity the algorithms
/// care about: 256-lane work-groups (four 16-wide SIMD vector units x 4
/// cycles on GCN) and a 32 KiB local data share per compute unit.
struct Device {
  /// Number of compute units = host threads used to execute work-groups.
  /// 0 means util::process_threads(): OMP_NUM_THREADS, or the CPUs the
  /// process may run on.
  int compute_units = 0;

  /// Maximum lanes (work-items) per work-group.
  int max_group_size = 256;

  /// Local data share (software-managed scratchpad) per work-group, bytes.
  std::size_t local_mem_bytes = 32 * 1024;

  /// Resolve compute_units to a concrete positive thread count.
  [[nodiscard]] int resolved_compute_units() const;
};

/// The process-wide default device (util::process_threads(), 256 lanes).
const Device& default_device();

}  // namespace spmv::clsim
