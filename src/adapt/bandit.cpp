#include "adapt/bandit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "exec/backend.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace spmv::adapt {

namespace {

/// Epsilon-greedy exploration rate: the share of kernel challengers drawn
/// at random instead of the best median, and of unit challengers drawn
/// from the whole granularity pool instead of the best explored one.
constexpr double kEpsilon = 0.25;

/// Non-zeros covered by a bin's virtual rows (same computation as the
/// exhaustive tuner's workload accounting).
template <typename T>
std::int64_t bin_nnz(const CsrMatrix<T>& a, std::span<const index_t> vrows,
                     index_t unit) {
  std::int64_t total = 0;
  const index_t rows = a.rows();
  for (index_t v : vrows) {
    const index_t lo = v * unit;
    const index_t hi = std::min<index_t>(lo + unit, rows);
    total += static_cast<std::int64_t>(a.row_ptr()[hi] - a.row_ptr()[lo]);
  }
  return total;
}

/// Timed run of the listed bins of a plan on `backend`, each launched with
/// its kernel, scored as 2 * nnz / seconds. A kernel that cannot run earns
/// a zero-reward sample; the bandit learns to avoid it instead of crashing
/// the worker.
template <typename T>
double timed_gflops(const exec::Backend& backend, const CsrMatrix<T>& a,
                    std::span<const T> x, const binning::BinSet& bins,
                    std::span<const core::BinPlan> bin_kernels,
                    std::int64_t nnz) {
  std::vector<T> y(static_cast<std::size_t>(a.rows()));
  const double flops =
      2.0 * static_cast<double>(std::max<std::int64_t>(1, nnz));
  try {
    util::Timer t;
    for (const core::BinPlan& bp : bin_kernels) {
      if (bp.bin_id >= bins.bin_count()) continue;
      const auto& vrows = bins.bin(bp.bin_id);
      if (vrows.empty()) continue;
      backend.run_binned(bp.kernel, a, x, std::span<T>(y),
                         std::span<const index_t>(vrows), bins.unit());
    }
    return flops / std::max(t.elapsed_s(), 1e-12) * 1e-9;
  } catch (const std::exception& e) {
    util::log_warn() << "adapt trial failed (U=" << bins.unit()
                     << "): " << e.what();
    return 0.0;
  }
}

}  // namespace

template <typename T>
BanditTuner<T>::BanditTuner(AdaptOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed) {
  if (opts_.kernel_pool.empty()) opts_.kernel_pool = kernels::all_kernels();
  opts_.hot_bins = std::max(1, opts_.hot_bins);
  opts_.min_samples = std::max(1, opts_.min_samples);
  if (opts_.unit_pool.empty())
    opts_.unit_pool = binning::default_granularity_pool();
  std::sort(opts_.unit_pool.begin(), opts_.unit_pool.end());
  opts_.unit_pool.erase(
      std::unique(opts_.unit_pool.begin(), opts_.unit_pool.end()),
      opts_.unit_pool.end());
  opts_.unit_min_samples = std::max(1, opts_.unit_min_samples);
  opts_.unit_cooldown = std::max(0, opts_.unit_cooldown);
}

template <typename T>
kernels::KernelId BanditTuner<T>::pick_challenger(
    const BinArms& ba, kernels::KernelId incumbent) {
  // Unexplored arms first, in pool order — every candidate gets one sample
  // before exploitation starts.
  for (kernels::KernelId id : opts_.kernel_pool) {
    if (id == incumbent) continue;
    if (ba.arms[static_cast<std::size_t>(id)].samples == 0) return id;
  }

  // Epsilon-greedy: explore a random non-incumbent, otherwise exploit the
  // best median so far.
  std::vector<kernels::KernelId> candidates;
  candidates.reserve(opts_.kernel_pool.size());
  for (kernels::KernelId id : opts_.kernel_pool)
    if (id != incumbent) candidates.push_back(id);
  if (rng_.uniform() < kEpsilon)
    return candidates[rng_.bounded(candidates.size())];
  kernels::KernelId best = candidates.front();
  double best_gflops = -1.0;
  for (kernels::KernelId id : candidates) {
    const double m = ba.arms[static_cast<std::size_t>(id)].gflops();
    if (m > best_gflops) {
      best_gflops = m;
      best = id;
    }
  }
  return best;
}

template <typename T>
index_t BanditTuner<T>::pick_unit_challenger(const KeyState& st,
                                             index_t incumbent) {
  const std::vector<index_t>& pool = opts_.unit_pool;
  const auto it = std::lower_bound(pool.begin(), pool.end(), incumbent);
  const auto idx = static_cast<std::size_t>(it - pool.begin());
  const bool exact = it != pool.end() && *it == incumbent;
  std::vector<index_t> neighbors;
  if (idx > 0) neighbors.push_back(pool[idx - 1]);
  if (exact && idx + 1 < pool.size()) neighbors.push_back(pool[idx + 1]);
  if (!exact && idx < pool.size()) neighbors.push_back(pool[idx]);

  // Grid neighbors first: each gets one whole-plan sample before anything
  // fancier, so hill-climbing starts immediately from the incumbent.
  for (index_t u : neighbors) {
    const auto a = st.units.find(u);
    if (a == st.units.end() || a->second.samples == 0) return u;
  }

  // Epsilon jump: a random pool granularity. Escapes plateaus where both
  // neighbors look no better, and lets a distant optimum be discovered
  // without walking every intermediate step.
  if (pool.size() >= 2 && rng_.uniform() < kEpsilon) {
    for (int tries = 0; tries < 8; ++tries) {
      const index_t u = pool[rng_.bounded(pool.size())];
      if (u != incumbent) return u;
    }
  }

  // Exploit: the best explored median that is not the incumbent — keeps
  // re-sampling the most promising U until it either clears the promotion
  // bar or its median decays below the incumbent's.
  index_t best = 0;
  double best_gflops = -1.0;
  for (const auto& [u, arm] : st.units) {
    if (u == incumbent || arm.samples == 0) continue;
    if (arm.gflops() > best_gflops) {
      best_gflops = arm.gflops();
      best = u;
    }
  }
  if (best != 0) return best;
  return neighbors.empty() ? incumbent : neighbors.front();
}

template <typename T>
kernels::KernelId BanditTuner<T>::seed_kernel(const KeyState& st,
                                              const core::Plan& plan,
                                              int bin_id) const {
  // Bin id approximates the average row length inside the bin (workload /
  // U with workload ~= U * avg_len), independent of U — so knowledge about
  // bin b under the old granularity transfers to bin b under the new one.
  // Best sampled kernel arm first:
  if (const auto it = st.bins.find(bin_id); it != st.bins.end()) {
    bool any = false;
    kernels::KernelId best = kernels::KernelId::Serial;
    double best_gflops = 0.0;
    for (kernels::KernelId id : opts_.kernel_pool) {
      const Arm& arm = it->second.arms[static_cast<std::size_t>(id)];
      if (arm.samples == 0) continue;
      if (!any || arm.gflops() > best_gflops) {
        any = true;
        best = id;
        best_gflops = arm.gflops();
      }
    }
    if (any) return best;
  }
  // Then the incumbent plan's own choice for the same bin id:
  for (const core::BinPlan& bp : plan.bin_kernels)
    if (bp.bin_id == bin_id) return bp.kernel;
  // Finally the lanes-per-row heuristic (the HeuristicPredictor's shape):
  // pick the pool kernel whose 4*lanes is log-closest to the bin's
  // estimated row length.
  const double target = std::log(static_cast<double>(std::max(1, bin_id)));
  kernels::KernelId best = opts_.kernel_pool.front();
  double best_d = std::numeric_limits<double>::infinity();
  for (kernels::KernelId id : opts_.kernel_pool) {
    const double d = std::abs(
        std::log(4.0 * static_cast<double>(kernels::lanes_per_row(id))) -
        target);
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::unit_trial(
    KeyState& st, const core::Plan& plan, const binning::BinSet& bins,
    const CsrMatrix<T>& a, std::span<const T> x) {
  const index_t incumbent_u = bins.unit();
  const index_t challenger_u = pick_unit_challenger(st, incumbent_u);
  if (challenger_u == incumbent_u || challenger_u <= 0) return std::nullopt;

  // Re-bin at the challenger granularity OUTSIDE the timed section (a
  // promotion pays planning once; the arms compare steady-state execution
  // throughput) and seed each candidate bin's kernel from the first
  // level's knowledge.
  binning::BinSet cbins = binning::bin_matrix(a, challenger_u);
  std::vector<core::BinPlan> ckernels;
  for (int b : cbins.occupied_bins())
    ckernels.push_back({b, seed_kernel(st, plan, b)});
  if (ckernels.empty()) return std::nullopt;

  // Back-to-back whole-plan measurement in ABBA order (see observe()).
  double inc_gflops = 0.0;
  double ch_gflops = 0.0;
  {
    trace::TraceSpan span("adapt-trial-u", "adapt");
    span.arg("unit", static_cast<std::int64_t>(challenger_u));
    if (opts_.measure_unit_override) {
      inc_gflops = opts_.measure_unit_override(incumbent_u);
      ch_gflops = opts_.measure_unit_override(challenger_u);
    } else {
      const auto inc = [&] {
        return timed_gflops<T>(*native_, a, x, bins, plan.bin_kernels, a.nnz());
      };
      const auto ch = [&] {
        return timed_gflops<T>(*native_, a, x, cbins, ckernels, a.nnz());
      };
      inc_gflops = inc();
      ch_gflops = std::max(ch(), ch());
      inc_gflops = std::max(inc_gflops, inc());
    }
  }
  st.units[incumbent_u].add(inc_gflops);
  st.units[challenger_u].add(ch_gflops);
  stats_.trials += 1;
  stats_.u_trials += 1;
  const double flops =
      2.0 * static_cast<double>(std::max<std::int64_t>(1, a.nnz()));
  if (ch_gflops > 0.0 && inc_gflops > ch_gflops)
    stats_.regret_s += 2.0 * (flops * 1e-9 / ch_gflops -
                              flops * 1e-9 / inc_gflops);

  const Arm& inc_arm = st.units[incumbent_u];
  const Arm& ch_arm = st.units[challenger_u];
  const auto min_n = static_cast<std::uint64_t>(opts_.unit_min_samples);
  if (inc_arm.samples < min_n || ch_arm.samples < min_n) return std::nullopt;
  if (ch_arm.gflops() <= inc_arm.gflops() * opts_.unit_hysteresis)
    return std::nullopt;

  // Promote: a fully rebuilt plan at the challenger granularity, carrying
  // tuned-U provenance. The caller's PlanCache::promote re-bins through
  // the Tuner path and the store write-through persists the corrected U,
  // so a restart warm-starts with it.
  Promotion promo;
  promo.plan.unit = challenger_u;
  promo.plan.single_bin = false;
  promo.plan.backend = plan.backend;  // native, like every serving plan
  promo.plan.revision = plan.revision + 1;
  promo.plan.unit_tuned = true;
  promo.plan.predicted_unit =
      plan.predicted_unit != 0 ? plan.predicted_unit : plan.unit;
  promo.plan.bin_kernels = std::move(ckernels);
  promo.gflops = ch_arm.gflops();
  promo.rebinned = true;
  promo.level = 2;
  stats_.promotions += 1;
  stats_.u_promotions += 1;
  st.unit_cooldown = opts_.unit_cooldown;
  trace::emit_instant("adapt-promote-u", "adapt");
  util::log_info() << "adapt: promoting U " << incumbent_u << " -> "
                   << challenger_u << " (" << inc_arm.gflops() << " -> "
                   << ch_arm.gflops() << " GFLOP/s whole-plan, revision "
                   << promo.plan.revision << ")";
  return promo;
}

template <typename T>
bool BanditTuner<T>::ensure_state(KeyState& st, const core::Plan& plan,
                                  const binning::BinSet& bins,
                                  const CsrMatrix<T>& a) {
  if (st.hot.empty() || st.unit != bins.unit() ||
      st.plan_revision != plan.revision) {
    if (st.unit != bins.unit()) {
      // New key, or re-binned at a different granularity: bin ids now
      // cover different rows, so the kernel arms are stale. Unit arms are
      // whole-plan timings of the matrix and survive re-binning.
      st.bins.clear();
      st.next_hot = 0;
    }
    // Otherwise the plan moved at the same granularity (a promotion
    // landed, or a warm re-plan). Arm samples are (bin, kernel) timings of
    // the matrix itself and stay valid, so keep them — resetting here
    // would restart exploration from scratch after every promotion.
    st.unit = bins.unit();
    st.plan_revision = plan.revision;
    std::vector<std::pair<std::int64_t, int>> by_nnz;
    for (const core::BinPlan& bp : plan.bin_kernels) {
      if (bp.bin_id >= bins.bin_count()) continue;
      const auto& vrows = bins.bin(bp.bin_id);
      if (vrows.empty()) continue;
      by_nnz.emplace_back(
          bin_nnz(a, std::span<const index_t>(vrows), bins.unit()),
          bp.bin_id);
    }
    std::sort(by_nnz.begin(), by_nnz.end(), [](const auto& l, const auto& r) {
      return l.first > r.first || (l.first == r.first && l.second < r.second);
    });
    st.hot.clear();
    for (std::size_t i = 0;
         i < by_nnz.size() &&
         i < static_cast<std::size_t>(opts_.hot_bins);
         ++i)
      st.hot.push_back(by_nnz[i].second);
  }
  return !st.hot.empty();
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::observe(
    const serve::Fingerprint& key, const core::Plan& plan,
    const binning::BinSet& bins, const CsrMatrix<T>& a,
    std::span<const T> x) {
  if (plan.bin_kernels.empty() || opts_.kernel_pool.size() < 2)
    return std::nullopt;

  // The mutex covers the whole trial (state + rng + the measurement
  // itself): trials are rare (trial_fraction of requests) and cheap (two
  // single-bin launches), and serializing them keeps back-to-back pairs
  // honest — two concurrent trials would time each other's contention.
  std::lock_guard<std::mutex> lock(mutex_);
  if (rng_.uniform() >= opts_.trial_fraction) return std::nullopt;

  KeyState& st = states_[key];
  if (!ensure_state(st, plan, bins, a)) return std::nullopt;

  // Second level: divert a share of trials to whole-plan U exploration.
  // The cooldown after a U switch ticks down on kernel trials, so a fresh
  // incumbent gets re-measured at the new granularity before it can be
  // challenged again. Single-bin plans have no bin structure to re-tune.
  if (opts_.explore_units && !plan.single_bin && opts_.unit_pool.size() >= 2) {
    if (st.unit_cooldown > 0) {
      st.unit_cooldown -= 1;
    } else if (rng_.uniform() < opts_.unit_trial_fraction) {
      return unit_trial(st, plan, bins, a, x);
    }
  }

  const int bin = st.hot[st.next_hot % st.hot.size()];
  st.next_hot += 1;
  const kernels::KernelId incumbent = plan.kernel_for(bin);
  BinArms& ba = st.bins[bin];
  const kernels::KernelId challenger = pick_challenger(ba, incumbent);

  const auto& vrows = bins.bin(bin);
  const std::int64_t nnz =
      bin_nnz(a, std::span<const index_t>(vrows), bins.unit());
  const double flops = 2.0 * static_cast<double>(std::max<std::int64_t>(1, nnz));

  // Back-to-back measurement in ABBA order (incumbent, challenger twice,
  // incumbent), same scratch output, each arm keeping its faster run: right
  // after a served request its kernel has an edge, and timed once each a
  // challenger read about 14% below its steady-state ratio to the incumbent
  // (5000-row power law, 4-core x86), 11% this way. GFLOP/s = 2*nnz / s.
  double inc_gflops = 0.0;
  double ch_gflops = 0.0;
  {
    trace::TraceSpan span("adapt-trial", "adapt");
    span.arg("bin", bin);
    span.arg("challenger", static_cast<std::int64_t>(challenger));
    if (opts_.measure_override) {
      inc_gflops = opts_.measure_override(incumbent, bin);
      ch_gflops = opts_.measure_override(challenger, bin);
    } else {
      const auto gflops_of = [&](kernels::KernelId id) {
        const core::BinPlan one{bin, id};
        return timed_gflops<T>(*native_, a, x, bins, {&one, 1}, nnz);
      };
      inc_gflops = gflops_of(incumbent);
      ch_gflops = std::max(gflops_of(challenger), gflops_of(challenger));
      inc_gflops = std::max(inc_gflops, gflops_of(incumbent));
    }
  }

  ba.arms[static_cast<std::size_t>(incumbent)].add(inc_gflops);
  ba.arms[static_cast<std::size_t>(challenger)].add(ch_gflops);
  stats_.trials += 1;
  // Regret = wall time lost to a challenger slower than the incumbent
  // (what exploration cost us on this trial's two challenger runs).
  if (ch_gflops > 0.0 && inc_gflops > ch_gflops)
    stats_.regret_s += 2.0 * (flops * 1e-9 / ch_gflops -
                              flops * 1e-9 / inc_gflops);

  const Arm& inc_arm = ba.arms[static_cast<std::size_t>(incumbent)];
  const Arm& ch_arm = ba.arms[static_cast<std::size_t>(challenger)];
  const auto min_n = static_cast<std::uint64_t>(opts_.min_samples);
  if (inc_arm.samples < min_n || ch_arm.samples < min_n) return std::nullopt;
  if (ch_arm.gflops() <= inc_arm.gflops() * opts_.hysteresis)
    return std::nullopt;

  // Promote: copy the plan, swap this bin's kernel, bump the revision.
  Promotion promo;
  promo.plan = plan;
  promo.plan.revision = plan.revision + 1;
  for (core::BinPlan& bp : promo.plan.bin_kernels)
    if (bp.bin_id == bin) bp.kernel = challenger;
  promo.gflops = ch_arm.gflops();
  stats_.promotions += 1;
  trace::emit_instant("adapt-promote", "adapt");
  util::log_info() << "adapt: promoting bin " << bin << " "
                   << kernels::kernel_name(incumbent) << " -> "
                   << kernels::kernel_name(challenger) << " ("
                   << inc_arm.gflops() << " -> " << ch_arm.gflops()
                   << " GFLOP/s, revision " << promo.plan.revision << ")";
  // The promoted plan's incumbent on this bin is now the challenger. Arm
  // samples survive the revision bump, and the old incumbent's median
  // trails the new one by at least the hysteresis factor, so it cannot
  // flap straight back.
  return promo;
}

template <typename T>
typename BanditTuner<T>::LatencyVariant BanditTuner<T>::next_variant(
    const serve::Fingerprint& key, const core::Plan& plan,
    const binning::BinSet& bins, const CsrMatrix<T>& a) {
  LatencyVariant v;
  v.plan = plan;
  if (plan.bin_kernels.empty() || opts_.kernel_pool.size() < 2) return v;

  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& st = states_[key];
  if (!ensure_state(st, plan, bins, a)) return v;

  const int bin = st.hot[st.next_hot % st.hot.size()];
  v.bin = bin;
  if (!st.l_challenge_next) {
    // Incumbent iteration: execute the plan verbatim and credit its own
    // kernel on the rotated hot bin. The paired challenger iteration that
    // follows differs only on that bin, so the whole-plan latencies are an
    // apples-to-apples comparison of the two kernels.
    v.kernel = plan.kernel_for(bin);
    v.incumbent = v.kernel;
    st.l_challenge_next = true;
    return v;
  }
  st.l_challenge_next = false;
  st.next_hot += 1;  // move to the next hot bin after each paired round
  BinArms& ba = st.bins[bin];
  const kernels::KernelId incumbent = plan.kernel_for(bin);
  v.kernel = incumbent;
  v.incumbent = incumbent;
  const kernels::KernelId challenger = pick_challenger(ba, incumbent);
  if (challenger == incumbent) return v;
  v.kernel = challenger;
  v.challenger = true;
  for (core::BinPlan& bp : v.plan.bin_kernels)
    if (bp.bin_id == bin) bp.kernel = challenger;
  return v;
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::feedback(
    const serve::Fingerprint& key, const LatencyVariant& variant,
    double seconds, std::int64_t nnz) {
  if (variant.bin < 0) return std::nullopt;
  const double flops =
      2.0 * static_cast<double>(std::max<std::int64_t>(1, nnz));
  const double gflops = flops / std::max(seconds, 1e-12) * 1e-9;

  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& st = states_[key];
  BinArms& ba = st.bins[variant.bin];
  ba.arms[static_cast<std::size_t>(variant.kernel)].add(gflops);
  if (!variant.challenger) return std::nullopt;
  stats_.l_trials += 1;

  const kernels::KernelId incumbent = variant.incumbent;
  if (incumbent == variant.kernel) return std::nullopt;
  const Arm& inc_arm = ba.arms[static_cast<std::size_t>(incumbent)];
  const Arm& ch_arm = ba.arms[static_cast<std::size_t>(variant.kernel)];
  // Regret: wall time this iteration lost relative to the incumbent's
  // median (exploration cost of serving the challenger for real).
  if (gflops > 0.0 && inc_arm.gflops() > gflops)
    stats_.regret_s +=
        flops * 1e-9 / gflops - flops * 1e-9 / inc_arm.gflops();
  const auto min_n = static_cast<std::uint64_t>(opts_.min_samples);
  if (inc_arm.samples < min_n || ch_arm.samples < min_n) return std::nullopt;
  if (ch_arm.gflops() <= inc_arm.gflops() * opts_.hysteresis)
    return std::nullopt;

  // Promote: the variant plan already carries the challenger on the bin —
  // stamp it as a new revision. The session applies it (and its SpMM width
  // provenance) exactly like a shadow promotion.
  Promotion promo;
  promo.plan = variant.plan;
  promo.plan.revision += 1;
  promo.gflops = ch_arm.gflops();
  promo.level = 1;
  stats_.promotions += 1;
  stats_.l_promotions += 1;
  st.plan_revision = promo.plan.revision;
  trace::emit_instant("adapt-promote-latency", "adapt");
  util::log_info() << "adapt: latency-feedback promoting bin " << variant.bin
                   << " " << kernels::kernel_name(incumbent) << " -> "
                   << kernels::kernel_name(variant.kernel) << " ("
                   << inc_arm.gflops() << " -> " << ch_arm.gflops()
                   << " GFLOP/s whole-plan, revision " << promo.plan.revision
                   << ")";
  return promo;
}

template <typename T>
prof::AdaptStats BanditTuner<T>::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

template class BanditTuner<float>;
template class BanditTuner<double>;

}  // namespace spmv::adapt
