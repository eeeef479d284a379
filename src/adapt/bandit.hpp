// spmv::adapt::BanditTuner — online plan refinement by shadow measurement.
//
// The serving layer plans once per matrix structure (predictor-driven or
// warm-started from a PlanStore) and then executes that plan forever. When
// the predictor mispredicts, the service is stuck with a slow plan. The
// BanditTuner fixes that without a stop-the-world retune: for a configurable
// fraction of served requests, the worker that just executed a batch also
// shadow-measures ONE alternative kernel on one of the plan's hottest bins
// (most non-zeros = most leverage), back-to-back with the incumbent so the
// two samples see the same cache/frequency state. Per-bin kernel arms keep
// recent GFLOP/s samples; when a challenger has enough and beats the
// incumbent's median by the hysteresis margin, observe() returns a promoted
// Plan copy (revision + 1) for the caller to swap into its PlanCache.
//
// Anti-flapping: promotion needs `min_samples` on BOTH arms and a strict
// `hysteresis` ratio (e.g. 1.10 = challenger must be 10% faster by the
// arms' medians), so measurement noise cannot ping-pong two near-equal
// kernels. Promotions bump the plan revision; a revision change observed on
// a key resets that key's arms (the old measurements described the old
// plan's incumbents).
//
// Second level (opt-in via explore_units): the stage-1 predictor can also
// get the binning granularity U itself wrong, and no amount of per-bin
// kernel swapping recovers from a bad bin structure. A `unit_trial_fraction`
// share of trials therefore shadow-measures the WHOLE plan at a neighboring
// granularity from the paper's preset grid, scored in whole-plan GFLOP/s:
// the matrix is re-binned at the challenger U and each bin's kernel is
// seeded from what the first level already learned (bin id approximates the
// average row length inside the bin regardless of U, so kernel-arm
// knowledge transfers across granularities). A confident win (unit_min_
// samples on both U arms, unit_hysteresis margin) promotes a fully rebuilt
// plan — re-binned, revision bumped, tuned-U provenance set — through the
// same PlanCache::promote path, so the PlanStore write-through persists the
// corrected U and a restart warm-starts with it. U-switches are rarer and
// costlier than kernel swaps, so they get their own stronger hysteresis
// plus a `unit_cooldown` of trials after each switch; per-U arm samples
// are whole-plan measurements of the matrix and survive re-binning, which
// stops an immediate ping-pong back.
//
// Latency-feedback path (solver loops — spmv::iter): a workload that runs
// the SAME plan hundreds of times back-to-back (power iteration, CG) does
// not need shadow launches at all — every iteration IS a measurement. The
// session asks next_variant() which plan to execute this iteration (the
// incumbent, or a copy with ONE hot bin's kernel swapped to a challenger,
// alternating so both arms accumulate paired whole-plan samples under
// identical loop conditions), times the real iteration, and reports the
// wall time through feedback(). feedback() scores the variant in whole-plan
// GFLOP/s and feeds the same per-bin kernel arms the shadow path uses, so
// the min_samples + hysteresis promotion machinery is shared — a promotion
// from feedback() is provenance-stamped like a shadow promotion but counted
// separately (adapt.l_trials / adapt.l_promotions; l_trials is NOT folded
// into adapt.trials, so a pure latency-feedback session reports trials ==
// 0 == "no shadow launches").
//
// Everything is recorded: prof counters (adapt.trials / adapt.promotions /
// adapt.regret plus adapt.u_trials / adapt.u_promotions and
// adapt.l_trials / adapt.l_promotions) via stats(), and trace spans
// "adapt-trial"/"adapt-promote" plus "adapt-trial-u"/"adapt-promote-u" and
// "adapt-promote-latency" in category "adapt".
//
// Trials of both levels run on the native backend, the only one serving
// executes. The per-bin formats are not explored online: FormatMode::Auto
// stamps formats at plan time with fmt::estimate_bin_format, and an
// ablation (BENCH_adapt_levels.json) found that online format trials did
// not beat that rule.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "binning/binning.hpp"
#include "core/plan.hpp"
#include "exec/backend.hpp"
#include "kernels/registry.hpp"
#include "prof/profile.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace spmv::adapt {

struct AdaptOptions {
  /// Fraction of observe() calls that run a shadow trial (the rest return
  /// immediately after one rng draw).
  double trial_fraction = 0.1;
  /// Samples required on BOTH the incumbent and the challenger arm before
  /// a promotion is considered.
  int min_samples = 3;
  /// Challenger's median GFLOP/s must exceed incumbent's median times this
  /// ratio to promote (1.10 = 10% better). Values <= 1 promote on any win.
  double hysteresis = 1.10;
  /// How many of the plan's hottest bins (by covered nnz) to rotate trials
  /// through.
  int hot_bins = 2;
  /// Challenger kernel pool; empty = kernels::all_kernels().
  std::vector<kernels::KernelId> kernel_pool;
  /// Deterministic seed for trial sampling and exploration.
  std::uint64_t seed = 42;
  /// Test seam: when set, replaces the timed kernel launches — returns the
  /// "measured" GFLOP/s for (kernel, bin). Lets tests rig the reward
  /// landscape deterministically (convergence, hysteresis under noise).
  std::function<double(kernels::KernelId, int)> measure_override;

  // --- second level: online exploration of the binning unit U ---------

  /// Enable whole-plan shadow trials at neighboring granularities.
  bool explore_units = false;
  /// Of the trials observe() runs, the share diverted to U exploration
  /// (the rest stay per-bin kernel trials).
  double unit_trial_fraction = 0.25;
  /// Samples required on BOTH U arms before a U promotion is considered.
  int unit_min_samples = 3;
  /// Challenger U's whole-plan median GFLOP/s must exceed the incumbent's
  /// by this ratio. Stricter than the kernel-level `hysteresis` by default:
  /// a U-switch rebuilds the whole plan, so flapping is costlier.
  double unit_hysteresis = 1.15;
  /// Trials to skip U exploration after a U promotion, letting the new
  /// incumbent accumulate samples before it can be challenged again.
  int unit_cooldown = 8;
  /// Candidate granularities; empty = binning::default_granularity_pool()
  /// (the paper's 10 .. 10^6 ladder). Sorted and deduplicated at
  /// construction.
  std::vector<index_t> unit_pool;
  /// Test seam for U trials: when set, replaces the whole-plan timed runs
  /// — returns the "measured" whole-plan GFLOP/s at granularity u.
  std::function<double(index_t)> measure_unit_override;
};

template <typename T>
class BanditTuner {
 public:
  /// A plan improvement found by observe(): the refined plan (revision
  /// already bumped) and the challenger's median throughput — on the trialed
  /// bin for a kernel swap, or whole-plan for a U promotion.
  struct Promotion {
    core::Plan plan;
    double gflops = 0.0;
    /// True for a U promotion: the plan was rebuilt at a different
    /// granularity (structurally different bins), not just given a new
    /// kernel on one bin.
    bool rebinned = false;
    /// Which arm level won: 1 kernel, 2 unit (U) — matching
    /// prof::Exemplar::promo_level, so a latency exemplar can name the
    /// provenance of the plan change that preceded it.
    std::uint8_t level = 1;
  };

  explicit BanditTuner(AdaptOptions opts);

  /// Consider one served request for a shadow trial. `plan`/`bins` are the
  /// cached entry's, `a`/`x` the request's own matrix and input vector
  /// (the trial runs real kernels against them unless measure_override is
  /// set). Returns a Promotion when this trial tipped a challenger past
  /// the hysteresis threshold; the caller owns applying it to its cache
  /// and store. Never throws on trial failure — a kernel that cannot run
  /// is recorded as a worthless arm.
  std::optional<Promotion> observe(const serve::Fingerprint& key,
                                   const core::Plan& plan,
                                   const binning::BinSet& bins,
                                   const CsrMatrix<T>& a,
                                   std::span<const T> x);

  /// One iteration's execution recipe for the latency-feedback path. The
  /// caller executes `plan` (the incumbent verbatim, or a copy with bin
  /// `bin`'s kernel swapped to `kernel` when `challenger` is true), times
  /// the iteration, and reports the wall time through feedback(). `bin` is
  /// -1 when the tuner has nothing to learn on this key (empty plan, no
  /// occupied bins, a one-kernel pool) — execute the plan and skip the
  /// feedback() call.
  struct LatencyVariant {
    core::Plan plan;
    int bin = -1;
    kernels::KernelId kernel = kernels::KernelId::Serial;
    /// The plan's own kernel on `bin` (== `kernel` on incumbent
    /// iterations); feedback() compares the two arms against it.
    kernels::KernelId incumbent = kernels::KernelId::Serial;
    bool challenger = false;
  };

  /// Pick which plan variant the next solver iteration should execute.
  /// Alternates incumbent / one-bin-challenger over the key's hottest bins
  /// so both arms accumulate paired whole-plan samples; never launches
  /// anything itself (trial_fraction does not apply — every iteration is a
  /// free measurement).
  LatencyVariant next_variant(const serve::Fingerprint& key,
                              const core::Plan& plan,
                              const binning::BinSet& bins,
                              const CsrMatrix<T>& a);

  /// Report a timed iteration of `variant`. Scores it as whole-plan
  /// GFLOP/s (2 * max(1, nnz) / seconds) into the (bin, kernel) arm and
  /// runs the shared min_samples + hysteresis promotion check. Returns a
  /// Promotion (level 1, revision bumped) when this sample tipped the
  /// challenger past the bar; the caller owns applying it.
  std::optional<Promotion> feedback(const serve::Fingerprint& key,
                                    const LatencyVariant& variant,
                                    double seconds, std::int64_t nnz);

  [[nodiscard]] prof::AdaptStats stats() const;

 private:
  /// Per-(bin, kernel) or per-U reward over recent samples: one preempted
  /// launch reads several times slower, and would drag a running mean.
  struct Arm {
    static constexpr std::size_t kWindow = 16;
    std::uint64_t samples = 0;
    std::array<double, kWindow> recent{};
    void add(double gflops) {
      recent[samples % kWindow] = gflops;
      samples += 1;
    }
    /// Lower median of the recent samples (0 with none): a challenger's
    /// first two samples promote only when both clear the bar.
    [[nodiscard]] double gflops() const {
      const auto n = static_cast<std::ptrdiff_t>(
          std::min<std::uint64_t>(samples, kWindow));
      if (n == 0) return 0.0;
      std::array<double, kWindow> v = recent;
      std::nth_element(v.begin(), v.begin() + (n - 1) / 2, v.begin() + n);
      return v[static_cast<std::size_t>((n - 1) / 2)];
    }
  };

  struct BinArms {
    Arm arms[kernels::kKernelCount];
  };

  /// Per-fingerprint bandit state. Kernel-arm samples are (bin, kernel)
  /// measurements of the matrix itself, so they survive plan-revision
  /// bumps (promotions); only a granularity change invalidates them (bin
  /// ids then cover different rows) and resets them. Unit-arm samples are
  /// whole-plan measurements, valid across re-binning, so they persist —
  /// that persistence is what prevents U ping-pong after a switch.
  struct KeyState {
    std::uint64_t plan_revision = 0;
    index_t unit = -1;          ///< granularity the kernel arms were measured at
    std::vector<int> hot;       ///< hottest occupied bins, descending nnz
    std::size_t next_hot = 0;   ///< round-robin cursor over `hot`
    std::unordered_map<int, BinArms> bins;
    /// Whole-plan GFLOP/s per granularity (the second-level arm space).
    std::unordered_map<index_t, Arm> units;
    /// Remaining trials before the next U trial is allowed.
    int unit_cooldown = 0;
    /// Latency-feedback phase: next_variant() alternates incumbent and
    /// challenger iterations so the arms accumulate paired samples.
    bool l_challenge_next = false;
  };

  /// Seed / revalidate a key's bandit state against the current plan and
  /// bins (hot-bin list, arm resets on a unit change). Shared by
  /// observe() and next_variant(); callers hold mutex_. Returns false when
  /// the plan has no occupied bins to learn on.
  bool ensure_state(KeyState& st, const core::Plan& plan,
                    const binning::BinSet& bins, const CsrMatrix<T>& a);

  kernels::KernelId pick_challenger(const BinArms& ba,
                                    kernels::KernelId incumbent);
  index_t pick_unit_challenger(const KeyState& st, index_t incumbent);
  kernels::KernelId seed_kernel(const KeyState& st, const core::Plan& plan,
                                int bin_id) const;
  std::optional<Promotion> unit_trial(KeyState& st, const core::Plan& plan,
                                      const binning::BinSet& bins,
                                      const CsrMatrix<T>& a,
                                      std::span<const T> x);

  AdaptOptions opts_;
  const std::shared_ptr<const exec::Backend> native_ =
      exec::shared_backend(exec::BackendKind::Native);

  mutable std::mutex mutex_;
  util::Xoshiro256 rng_;
  std::unordered_map<serve::Fingerprint, KeyState, serve::FingerprintHash>
      states_;
  prof::AdaptStats stats_;
};

extern template class BanditTuner<float>;
extern template class BanditTuner<double>;

}  // namespace spmv::adapt
