// A parallelization plan: the auto-tuner's decision for one matrix — the
// binning scheme (granularity U, or the single-bin strategy) and the kernel
// chosen for each occupied bin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "kernels/registry.hpp"
#include "sparse/types.hpp"

namespace spmv::core {

/// Kernel + physical format choice for one occupied bin. Format Csr (the
/// default, and what every pre-v3 stored plan loads as) executes from the
/// shared CSR arrays; any other format names a bin-local layout the
/// execution layer materializes lazily (fmt::PlanLayouts) and that only
/// format-capable backends honour — others fall back to CSR.
struct BinPlan {
  int bin_id = 0;
  kernels::KernelId kernel = kernels::KernelId::Serial;
  fmt::FormatKind format = fmt::FormatKind::Csr;
};

struct Plan {
  /// Binning granularity U. For the single-bin strategy this is the
  /// granularity used to form virtual rows inside the single bin (1 keeps
  /// per-row dispatch).
  index_t unit = 1;
  /// True = all rows in one bin with one kernel (paper §IV-C).
  bool single_bin = false;
  /// Revision counter for online refinement (spmv::adapt): 0 for a freshly
  /// planned (predicted / tuned) plan; every bandit promotion produces a
  /// copy with revision + 1, and PlanCache::promote only accepts strictly
  /// increasing revisions, so stale promotions can never overwrite newer
  /// plans.
  std::uint64_t revision = 0;
  /// Tuned-U provenance: true when `unit` was chosen by online exploration
  /// (a BanditTuner U-promotion) rather than the stage-1 predictor.
  bool unit_tuned = false;
  /// The stage-1 predicted granularity this plan's lineage started from
  /// (0 = unknown / same as `unit`). Survives every promotion, so a stored
  /// plan records both what was predicted and what exploration settled on.
  index_t predicted_unit = 0;
  /// Execution backend the plan was tuned for — a *plan* property, like
  /// unit and the per-bin kernels, so it persists through plan_io / the
  /// PlanStore and warm-started services resume on the backend the plan
  /// was tuned for. Plans from pre-backend artifacts load as Clsim.
  exec::BackendKind backend = exec::BackendKind::Clsim;
  /// Sharded-plan provenance (spmv::shard): which row shard of which parent
  /// matrix this plan was tuned for. shard_index -1 (the default) marks an
  /// unsharded plan; sharded services stamp index/count and the parent's
  /// structural row hash so `plan-store ls` and profile artifacts can tell
  /// "shard 2 of 4 of matrix 0xABC" apart from a standalone matrix that
  /// happens to share the shard's structure.
  int shard_index = -1;
  int shard_count = 0;
  std::uint64_t shard_parent = 0;
  /// SpMM-serving provenance (spmv::iter): the dense right-hand-side width
  /// this plan's tuning observed. 0 (the default) marks a plan shaped by
  /// single-vector or shadow measurements; an IterativeSession stamps its
  /// serving width onto latency-feedback promotions, so a warm-started
  /// session can tell "tuned under width-8 SpMM" from "tuned one-shot"
  /// the same way shard provenance travels.
  int spmm_width = 0;
  /// Kernel per occupied bin, ascending bin_id. For single_bin plans this
  /// has exactly one entry with bin_id 0.
  std::vector<BinPlan> bin_kernels;

  /// Restore the ascending-bin_id invariant. Plans built by the library
  /// already satisfy it (occupied_bins() iterates in order); call this on
  /// externally assembled plans before relying on kernel_for.
  void normalize() {
    std::sort(bin_kernels.begin(), bin_kernels.end(),
              [](const BinPlan& l, const BinPlan& r) {
                return l.bin_id < r.bin_id;
              });
  }

  /// Kernel for `bin_id`, by binary search over the ascending bin_kernels;
  /// throws std::out_of_range when the plan has no entry for it (i.e. the
  /// bin was empty at planning time).
  [[nodiscard]] kernels::KernelId kernel_for(int bin_id) const {
    const auto it = std::lower_bound(
        bin_kernels.begin(), bin_kernels.end(), bin_id,
        [](const BinPlan& bp, int id) { return bp.bin_id < id; });
    if (it == bin_kernels.end() || it->bin_id != bin_id)
      throw std::out_of_range("Plan: no kernel for bin " +
                              std::to_string(bin_id));
    return it->kernel;
  }

  /// Physical format for `bin_id`; same lookup contract as kernel_for.
  [[nodiscard]] fmt::FormatKind format_for(int bin_id) const {
    const auto it = std::lower_bound(
        bin_kernels.begin(), bin_kernels.end(), bin_id,
        [](const BinPlan& bp, int id) { return bp.bin_id < id; });
    if (it == bin_kernels.end() || it->bin_id != bin_id)
      throw std::out_of_range("Plan: no format for bin " +
                              std::to_string(bin_id));
    return it->format;
  }

  /// True when any bin uses a non-CSR layout (i.e. execution can benefit
  /// from a fmt::PlanLayouts cache).
  [[nodiscard]] bool uses_formats() const {
    return std::any_of(bin_kernels.begin(), bin_kernels.end(),
                       [](const BinPlan& bp) {
                         return bp.format != fmt::FormatKind::Csr;
                       });
  }

  /// One-line human-readable summary, e.g.
  /// "U=100 {bin0:serial, bin3:subvector16}".
  [[nodiscard]] std::string to_string() const {
    std::string s = single_bin ? "single-bin" : "U=" + std::to_string(unit);
    s += " {";
    for (std::size_t i = 0; i < bin_kernels.size(); ++i) {
      if (i > 0) s += ", ";
      s += "bin" + std::to_string(bin_kernels[i].bin_id) + ":" +
           kernels::kernel_name(bin_kernels[i].kernel);
      // CSR is the default; only a transformed bin is worth a marker.
      if (bin_kernels[i].format != fmt::FormatKind::Csr) {
        s += "/";
        s += fmt::format_cname(bin_kernels[i].format);
      }
    }
    s += "}";
    // Clsim is the default; only a non-default backend is worth a marker.
    if (backend != exec::BackendKind::Clsim) {
      s += " @";
      s += exec::backend_cname(backend);
    }
    if (shard_index >= 0)
      s += " shard " + std::to_string(shard_index) + "/" +
           std::to_string(shard_count);
    if (spmm_width > 0) s += " spmm=" + std::to_string(spmm_width);
    return s;
  }
};

}  // namespace spmv::core
