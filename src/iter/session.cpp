#include "iter/session.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/auto_spmv.hpp"
#include "core/exhaustive.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace spmv::iter {

namespace {

void check_block(std::int64_t have, std::int64_t vec_len, int width,
                 const char* what) {
  if (width <= 0)
    throw std::invalid_argument("IterativeSession: width must be positive");
  if (have != vec_len * width)
    throw std::invalid_argument(
        std::string("IterativeSession: ") + what + " has " +
        std::to_string(have) + " entries, expected " +
        std::to_string(vec_len * width) + " (" + std::to_string(width) +
        " columns of " + std::to_string(vec_len) + ")");
}

}  // namespace

template <typename T>
IterativeSession<T>::IterativeSession(std::shared_ptr<const CsrMatrix<T>> a,
                                      const core::Predictor& predictor,
                                      SessionOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {
  exec::require_native(opts_.backend, "IterativeSession");
  if (a == nullptr)
    throw std::invalid_argument("IterativeSession: null matrix");
  opts_.spmm_width = std::max(1, opts_.spmm_width);
  if (opts_.adapt.has_value())
    tuner_ = std::make_unique<adapt::BanditTuner<T>>(*opts_.adapt);
  if (opts_.plan_store != nullptr) opts_.plan_store->load();
  state_ = build_state(std::move(a));
}

template <typename T>
IterativeSession<T>::~IterativeSession() {
  try {
    flush();
  } catch (const std::exception& e) {
    util::log_warn() << "iter session: flush at destruction failed: "
                     << e.what();
  }
}

template <typename T>
std::shared_ptr<const typename IterativeSession<T>::State>
IterativeSession<T>::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

template <typename T>
std::shared_ptr<typename IterativeSession<T>::State>
IterativeSession<T>::build_state(std::shared_ptr<const CsrMatrix<T>> a) {
  auto st = std::make_shared<State>();
  st->key = serve::fingerprint_of(*a);
  std::optional<adapt::StoredPlan> stored;
  if (opts_.plan_store != nullptr) stored = opts_.plan_store->lookup(st->key);
  if (stored.has_value()) {
    // Warm start: the stored plan skips the predictor pass. One that fails
    // to build is erased, or every later session here would throw too.
    try {
      st->plan = std::move(stored->plan);
      st->plan.normalize();
      st->bins = std::make_shared<const binning::BinSet>(
          core::bins_for_plan(*a, st->plan));
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.warm_starts += 1;
    } catch (const std::exception& e) {
      util::log_warn() << "iter session: erasing unbuildable plan: "
                       << e.what();
      opts_.plan_store->erase(st->key);
      stored.reset();
    }
  }
  if (!stored.has_value()) {
    core::PlannedMatrix p =
        core::plan_matrix(*a, predictor_, *backend_, opts_.format);
    st->plan = std::move(p.plan);
    st->bins = std::make_shared<const binning::BinSet>(std::move(p.bins));
    if (opts_.plan_store != nullptr)
      opts_.plan_store->put(st->key, adapt::StoredPlan{st->plan});
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.planning_passes += 1;
  }
  if (st->plan.uses_formats() && backend_->supports_formats())
    st->layouts = std::make_shared<fmt::PlanLayouts<T>>(
        fmt::AmortizationPolicy{.min_reuse = 0});
  st->a = std::move(a);
  return st;
}

template <typename T>
void IterativeSession<T>::execute(const std::shared_ptr<const State>& st,
                                  std::span<const T> x, std::span<T> y,
                                  int width) {
  const core::Plan* plan = &st->plan;
  std::optional<typename adapt::BanditTuner<T>::LatencyVariant> variant;
  if (tuner_ != nullptr) {
    variant = tuner_->next_variant(st->key, st->plan, *st->bins, *st->a);
    plan = &variant->plan;
  }
  util::Timer t;
  core::execute_plan_spmm(*backend_, *st->a, x, y, width, *st->bins, *plan,
                          opts_.profile, st->layouts.get());
  const double seconds = t.elapsed_s();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.iterations += 1;
    stats_.exec_total_s += seconds;
  }
  if (tuner_ != nullptr && variant->bin >= 0) {
    // One iteration moved 2*nnz flops per column; the whole-block latency
    // scores the variant's arm.
    auto promo = tuner_->feedback(
        st->key, *variant, seconds,
        static_cast<std::int64_t>(st->a->nnz()) * width);
    if (promo.has_value()) {
      promo->plan.spmm_width = width;  // serving-width provenance
      apply_promotion(st, std::move(*promo));
    }
  }
}

template <typename T>
void IterativeSession<T>::apply_promotion(
    const std::shared_ptr<const State>& st,
    typename adapt::BanditTuner<T>::Promotion promo) {
  std::shared_ptr<State> ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The snapshot this promotion was measured against must still be the
    // live state — an update_values/replace_matrix/another promotion in
    // between invalidates it (the tuner will re-derive on the next
    // iteration; arms persist, so nothing is lost).
    if (state_ != st) return;
    ns = std::make_shared<State>(*st);
    ns->plan = std::move(promo.plan);
    state_ = ns;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.promotions += 1;
  }
  store_put(*ns, promo.gflops);
}

template <typename T>
void IterativeSession<T>::store_put(const State& st, double gflops) {
  if (opts_.plan_store == nullptr) return;
  adapt::StoredPlan sp{st.plan, gflops};
  // Serving-width provenance even when no promotion ran: a block session's
  // flushed plan records the width it actually served (promotions stamp
  // the execute-time width themselves and may override this).
  if (sp.plan.spmm_width == 0 && opts_.spmm_width > 1)
    sp.plan.spmm_width = opts_.spmm_width;
  if (tuner_ != nullptr) sp.trials = tuner_->stats().l_trials;
  opts_.plan_store->put(st.key, sp);
}

template <typename T>
void IterativeSession<T>::run(std::span<const T> x, std::span<T> y) {
  run_block(x, y, 1);
}

template <typename T>
void IterativeSession<T>::run_block(std::span<const T> x, std::span<T> y,
                                    int width) {
  const auto st = snapshot();
  check_block(static_cast<std::int64_t>(x.size()), st->a->cols(), width, "x");
  check_block(static_cast<std::int64_t>(y.size()), st->a->rows(), width, "y");
  execute(st, x, y, width);
}

template <typename T>
void IterativeSession<T>::seed(std::span<const T> x0) {
  const auto st = snapshot();
  if (st->a->rows() != st->a->cols())
    throw std::invalid_argument(
        "IterativeSession: step() feedback needs a square matrix (" +
        std::to_string(st->a->rows()) + "x" + std::to_string(st->a->cols()) +
        ")");
  check_block(static_cast<std::int64_t>(x0.size()), st->a->cols(),
              opts_.spmm_width, "seed");
  std::lock_guard<std::mutex> lock(iter_mu_);
  iterate_ = DenseBlock<T>(st->a->cols(), opts_.spmm_width);
  product_ = DenseBlock<T>(st->a->rows(), opts_.spmm_width);
  std::copy(x0.begin(), x0.end(), iterate_.data().begin());
}

template <typename T>
std::span<const T> IterativeSession<T>::step() {
  std::lock_guard<std::mutex> lock(iter_mu_);
  if (iterate_.size() == 0)
    throw std::logic_error("IterativeSession: seed() before step()");
  const auto st = snapshot();
  execute(st, iterate_.data(), product_.data(), opts_.spmm_width);
  swap(iterate_, product_);
  return iterate_.data();
}

template <typename T>
std::span<T> IterativeSession<T>::iterate() {
  std::lock_guard<std::mutex> lock(iter_mu_);
  return iterate_.data();
}

template <typename T>
std::shared_ptr<const CsrMatrix<T>> IterativeSession<T>::own(
    CsrMatrix<T> m) const {
  auto structure = m.structure();
  return recycling_ptr(std::make_unique<CsrMatrix<T>>(std::move(m)),
                       values_pool_, std::move(structure),
                       [](CsrMatrix<T>& dead) {
                         return std::move(dead).release_values();
                       });
}

template <typename T>
std::shared_ptr<const CsrMatrix<T>> IterativeSession<T>::write_values(
    const CsrMatrix<T>& structure, std::span<const T> vals) const {
  util::Buffer<T> buf =
      values_pool_->take(structure.structure(), vals.size());
  detail::parallel_copy(vals, std::span<T>(buf));
  return own(structure.with_values(std::move(buf)));  // checks the count
}

template <typename T>
void IterativeSession<T>::install_values(std::shared_ptr<const CsrMatrix<T>> m,
                                         std::uint64_t recycled) {
  const std::shared_ptr<const State> old = state_;
  auto ns = std::make_shared<State>(*old);
  std::uint64_t refreshed = 0;
  if (ns->layouts != nullptr) {
    const std::uint64_t before = ns->layouts->stats().recycled_values;
    refreshed = ns->layouts->refresh_values(*m, old->a->instance_id());
    recycled += ns->layouts->stats().recycled_values - before;
  }
  ns->a = std::move(m);
  state_ = std::move(ns);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.value_updates += 1;
  stats_.layout_refreshes += refreshed;
  stats_.recycled_value_buffers += recycled;
}

template <typename T>
void IterativeSession<T>::update_values(std::span<const T> new_vals) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t before = values_pool_->recycled();
  auto m = write_values(*state_->a, new_vals);
  install_values(std::move(m), values_pool_->recycled() - before);
}

template <typename T>
void IterativeSession<T>::replace_matrix(
    std::shared_ptr<const CsrMatrix<T>> a) {
  if (a == nullptr)
    throw std::invalid_argument("IterativeSession: null matrix");
  {
    std::lock_guard<std::mutex> lock(mu_);
    const CsrMatrix<T>& cur = *state_->a;
    // The value path only for an identical structure: plans, bins and
    // layouts are structure-derived, and a fingerprint collision (it
    // samples row_ptr and never reads col_idx) would silently run the new
    // values through the old columns.
    if (a->structure_id() == cur.structure_id()) {
      install_values(std::move(a), 0);
      return;
    }
    if (cur.same_structure(*a)) {
      // Equal arrays on another block: the values move onto the session's
      // block, so the layouts' O(1) identity check keeps holding.
      const std::uint64_t before = values_pool_->recycled();
      auto m = write_values(cur, a->vals());
      install_values(std::move(m), values_pool_->recycled() - before);
      return;
    }
  }
  // Structural change: full re-bin + re-plan (outside mu_ — planning can
  // be slow and in-flight runs keep executing the old state meanwhile).
  auto ns = build_state(std::move(a));
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  add_layout_stats(*state_, stats_);  // the old layouts leave stats() here
  state_ = std::move(ns);
  stats_.structure_rebinds += 1;
}

template <typename T>
void IterativeSession<T>::add_layout_stats(const State& st,
                                           SessionStats& out) {
  if (st.layouts == nullptr) return;
  const fmt::LayoutStats ls = st.layouts->stats();
  out.layout_builds += ls.builds;
  out.layout_build_s += ls.build_s;
  out.layout_deferrals += ls.deferrals;
}

template <typename T>
void IterativeSession<T>::flush() {
  const auto st = snapshot();
  store_put(*st, 0.0);
  if (opts_.plan_store != nullptr) opts_.plan_store->flush();
  if (opts_.profile != nullptr && tuner_ != nullptr) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (!profile_folded_) {
      opts_.profile->adapt.merge(tuner_->stats());
      profile_folded_ = true;
    }
  }
}

template <typename T>
SessionStats IterativeSession<T>::stats() const {
  std::shared_ptr<const State> st;
  SessionStats out;
  {
    // One pair: stats_ has folded in every state before this one.
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    st = state_;
    out = stats_;
  }
  add_layout_stats(*st, out);
  return out;
}

template <typename T>
core::Plan IterativeSession<T>::plan() const {
  return snapshot()->plan;
}

template <typename T>
std::shared_ptr<const CsrMatrix<T>> IterativeSession<T>::matrix() const {
  return snapshot()->a;
}

template <typename T>
prof::AdaptStats IterativeSession<T>::adapt_stats() const {
  return tuner_ != nullptr ? tuner_->stats() : prof::AdaptStats{};
}

template class IterativeSession<float>;
template class IterativeSession<double>;

}  // namespace spmv::iter
