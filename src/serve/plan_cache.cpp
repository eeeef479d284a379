#include "serve/plan_cache.hpp"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/tuner.hpp"
#include "util/log.hpp"

namespace spmv::serve {
namespace {

template <typename V>
std::shared_future<V> ready_future(V value) {
  std::promise<V> p;
  p.set_value(std::move(value));
  return p.get_future().share();
}

/// The value of a finished, successful future; an empty V while it is
/// still pending or when it holds an exception.
template <typename V>
V ready_value(const std::shared_future<V>& f) {
  if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    return V{};
  try {
    return f.get();
  } catch (...) {
    return V{};
  }
}

}  // namespace

template <typename T>
PlanCache<T>::PlanCache(const core::Predictor& predictor,
                        std::size_t capacity, adapt::PlanStore* store,
                        fmt::FormatMode format_mode)
    : predictor_(predictor),
      capacity_(capacity),
      plan_capacity_(capacity > SIZE_MAX / kPlansPerRuntime
                         ? SIZE_MAX
                         : capacity * kPlansPerRuntime),
      store_(store),
      format_mode_(format_mode) {
  if (capacity_ == 0)
    throw std::invalid_argument("PlanCache: capacity must be >= 1");
}

template <typename T>
Fingerprint PlanCache<T>::fingerprint(const CsrMatrix<T>& a) {
  const std::uint64_t id = a.structure_id();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = fingerprints_.find(id); it != fingerprints_.end())
      return it->second;
  }
  // Hash outside the lock: up to kMaxHashedEntries row_ptr entries.
  const Fingerprint f = fingerprint_of(a);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fingerprints_.size() >= plan_capacity_) fingerprints_.clear();
  fingerprints_.emplace(id, f);
  return f;
}

template <typename T>
typename PlanCache<T>::PlanSlot& PlanCache<T>::keep_plan(
    const Fingerprint& key, PlanFuture plan) {
  if (const auto it = plans_.find(key); it != plans_.end()) {
    it->second.plan = std::move(plan);
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second.lru_pos);
    return it->second;
  }
  if (plans_.size() >= plan_capacity_) {
    plans_.erase(plan_lru_.back());
    plan_lru_.pop_back();
  }
  plan_lru_.push_front(key);
  return plans_.emplace(key, PlanSlot{std::move(plan), plan_lru_.begin()})
      .first->second;
}

template <typename T>
void PlanCache<T>::keep_uncached(std::unique_lock<std::mutex>& lock,
                                 const Fingerprint& key, core::Plan plan,
                                 double gflops) {
  const auto it = plans_.find(key);
  // Only a finished kept plan has a revision to compare against.
  const std::shared_ptr<const core::Plan> kept =
      it == plans_.end() ? nullptr : ready_value(it->second.plan);
  if (kept == nullptr || plan.revision <= kept->revision) return;
  plan.normalize();  // as a rebuilt runtime's plan would be
  auto newer = std::make_shared<const core::Plan>(std::move(plan));
  keep_plan(key, ready_future(newer));
  lock.unlock();
  if (store_ != nullptr) store_->put(key, adapt::StoredPlan{*newer, gflops});
}

template <typename T>
std::shared_ptr<const typename PlanCache<T>::Entry> PlanCache<T>::get(
    const std::shared_ptr<const CsrMatrix<T>>& matrix) {
  if (matrix == nullptr)
    throw std::invalid_argument("PlanCache::get: null matrix");
  const Fingerprint key = fingerprint(*matrix);

  std::promise<std::shared_ptr<const Entry>> promise;
  // The plan tier's slot for `key`: a kept plan (possibly still being made
  // by a concurrent miss) to rebuild from, or else a promise this miss
  // keeps its own plan through.
  PlanFuture kept;
  std::promise<std::shared_ptr<const core::Plan>> made;
  bool admitted = true;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++gets_since_aging_ >= plan_capacity_) {
      gets_since_aging_ = 0;
      for (auto& [fp, slot] : plans_) slot.uses /= 2;
    }
    PlanSlot* counted = nullptr;
    if (const auto p = plans_.find(key); p != plans_.end()) {
      counted = &p->second;
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, p->second.lru_pos);
    }
    if (const auto it = slots_.find(key); it != slots_.end()) {
      // Hit (possibly on an entry still being planned by another thread).
      stats_.hits += 1;
      if (counted != nullptr) counted->uses += 1;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      EntryFuture f = it->second.future;
      lock.unlock();  // the planning pass may still be in flight
      return f.get();
    }
    stats_.misses += 1;
    if (counted != nullptr)
      kept = counted->plan;
    else
      counted = &keep_plan(key, made.get_future().share());
    counted->uses += 1;
    if (slots_.size() >= capacity_) {
      // Admit only a structure used at least as often as the least
      // recently used runtime, which it then evicts. An evicted in-flight
      // build keeps running (its waiters hold the shared_future); it just
      // won't be cached. Its plan stays in the plan tier.
      const Fingerprint victim = lru_.back();
      const auto v = plans_.find(victim);
      admitted = counted->uses >= (v != plans_.end() ? v->second.uses : 0);
      if (admitted) {
        lru_.pop_back();
        slots_.erase(victim);
        stats_.evictions += 1;
      } else {
        stats_.not_admitted += 1;
      }
    }
    if (admitted) {
      lru_.push_front(key);
      slots_.emplace(key, Slot{promise.get_future().share(), lru_.begin()});
    }
  }

  // Build outside the lock so a slow build never blocks hits on other keys.
  // A kept plan, else a warm store entry, rebuilds the runtime against this
  // matrix (no predictor pass); otherwise the predictor plans and the
  // result is written through to the store.
  std::shared_ptr<const Entry> entry;
  std::shared_ptr<const core::Plan> plan;
  std::uint64_t Stats::*counter = &Stats::planning_passes;
  try {
    if (kept.valid()) {
      plan = kept.get();
      counter = &Stats::plan_hits;
    } else if (store_ != nullptr) {
      if (auto stored = store_->lookup(key); stored.has_value()) {
        plan = std::make_shared<const core::Plan>(std::move(stored->plan));
        counter = &Stats::warm_hits;
      }
    }
    if (plan != nullptr) {
      entry = std::shared_ptr<const Entry>(
          new Entry{key, matrix, core::Tuner(*matrix).plan(*plan).build()});
    } else {
      entry = std::shared_ptr<const Entry>(new Entry{
          key, matrix,
          core::Tuner(*matrix)
              .predictor(predictor_)
              .backend(exec::BackendKind::Native)
              .formats(format_mode_)
              .build()});
      if (store_ != nullptr)
        store_->put(key, adapt::StoredPlan{entry->runtime.plan()});
    }
    if (!kept.valid())
      made.set_value(std::make_shared<const core::Plan>(entry->runtime.plan()));
  } catch (...) {
    promise.set_exception(std::current_exception());
    if (counter == &Stats::warm_hits) {
      util::log_warn() << "plan cache: erasing unbuildable stored plan";
      store_->erase(key);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = slots_.find(key); admitted && it != slots_.end()) {
      lru_.erase(it->second.lru_pos);
      slots_.erase(it);
    }
    // Drop the plan this miss was making, or a kept plan that failed to
    // rebuild (unless a newer one replaced it meanwhile), like the stored
    // plan erased above, so the next miss plans again instead of
    // rethrowing.
    if (!kept.valid()) made.set_exception(std::current_exception());
    if (const auto it = plans_.find(key);
        it != plans_.end() &&
        (!kept.valid() || (counter == &Stats::plan_hits &&
                           ready_value(it->second.plan) == plan))) {
      plan_lru_.erase(it->second.lru_pos);
      plans_.erase(it);
    }
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.*counter += 1;
  }
  promise.set_value(entry);
  return entry;
}

template <typename T>
std::shared_ptr<const typename PlanCache<T>::Entry> PlanCache<T>::promote(
    const Fingerprint& key, const core::Plan& plan, double gflops) {
  exec::require_native(plan.backend, "PlanCache::promote");
  // Snapshot the current entry (the matrix to rebuild against). A slot
  // still mid-build loses the promotion — acceptable: promotions are
  // opportunistic refinements, never required for correctness. A key with
  // no runtime slot keeps the plan for its next miss instead.
  std::shared_ptr<const Entry> current;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it == slots_.end()) {
      keep_uncached(lock, key, plan, gflops);
      return nullptr;
    }
    EntryFuture f = it->second.future;
    lock.unlock();
    current = ready_value(f);  // null: mid-build, or a failed build
    if (current == nullptr) return nullptr;
  }
  if (plan.revision <= current->runtime.plan().revision)
    return nullptr;  // stale: an equal-or-newer revision is already cached

  // Rebuild outside the lock (binning the matrix is the expensive part).
  std::shared_ptr<const Entry> replacement;
  std::shared_ptr<const core::Plan> rebuilt;
  try {
    replacement = std::shared_ptr<const Entry>(new Entry{
        key, current->matrix, core::Tuner(*current->matrix).plan(plan).build()});
    rebuilt = std::make_shared<const core::Plan>(replacement->runtime.plan());
  } catch (const std::exception& e) {
    util::log_warn() << "PlanCache::promote: rebuild failed, keeping "
                        "incumbent plan ("
                     << e.what() << ")";
    return nullptr;
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it == slots_.end()) {  // evicted while rebuilding
      keep_uncached(lock, key, *rebuilt, gflops);
      return nullptr;
    }
    // Re-validate monotonicity against whatever sits in the slot now (a
    // concurrent promotion may have won the race).
    const std::shared_ptr<const Entry> now = ready_value(it->second.future);
    if (now == nullptr || plan.revision <= now->runtime.plan().revision)
      return nullptr;
    it->second.future = ready_future(replacement);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    keep_plan(key, ready_future(rebuilt));
    stats_.promotions += 1;
    const core::Plan& replaced = now->runtime.plan();
    if (replaced.unit != plan.unit || replaced.single_bin != plan.single_bin)
      stats_.rebin_promotions += 1;
  }
  if (store_ != nullptr)
    store_->put(key, adapt::StoredPlan{*rebuilt, gflops});
  return replacement;
}

template <typename T>
typename PlanCache<T>::Stats PlanCache<T>::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

template <typename T>
std::size_t PlanCache<T>::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

template class PlanCache<float>;
template class PlanCache<double>;

}  // namespace spmv::serve
