#include "fmt/plan_layouts.hpp"

#include <algorithm>
#include <stdexcept>

namespace spmv::fmt {

template <typename T>
typename PlanLayouts<T>::Slot& PlanLayouts<T>::slot_for(std::uint64_t key) {
  tick_ += 1;
  for (auto& s : slots_) {
    if (s.key == key) {
      s.last_touch = tick_;
      return s;
    }
  }
  if (slots_.size() < kMaxSlots) {
    slots_.emplace_back();
  } else {
    // Evict the least recently touched instance wholesale; its layouts
    // stay alive for any in-flight launch via the returned shared_ptrs.
    std::sort(slots_.begin(), slots_.end(),
              [](const Slot& a, const Slot& b) {
                return a.last_touch < b.last_touch;
              });
    slots_.front() = Slot{};
    std::swap(slots_.front(), slots_.back());
  }
  Slot& s = slots_.back();
  s = Slot{};
  s.key = key;
  s.last_touch = tick_;
  return s;
}

template <typename T>
std::shared_ptr<const BinLayout<T>> PlanLayouts<T>::own(BinLayout<T> l) const {
  auto structure = layout_structure(l);
  return recycling_ptr(std::make_unique<BinLayout<T>>(std::move(l)), pool_,
                       std::move(structure), [](BinLayout<T>& dead) {
                         return std::move(layout_values(dead));
                       });
}

template <typename T>
std::uint64_t PlanLayouts<T>::note_run(const CsrMatrix<T>& a) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot_for(a.instance_id());
  s.uses += 1;
  return s.uses;
}

template <typename T>
std::shared_ptr<const BinLayout<T>> PlanLayouts<T>::acquire(
    const CsrMatrix<T>& a, std::span<const index_t> vrows, index_t unit,
    FormatKind kind, int bin_id) {
  if (kind == FormatKind::Csr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slot_for(a.instance_id());
  const BinKey key{unit, bin_id, kind};
  if (const auto it = s.built.find(key); it != s.built.end()) {
    if (it->second != nullptr) stats_.hits += 1;
    return it->second;  // null = negative-cached build failure -> CSR
  }
  if (s.uses < policy_.min_reuse) {
    stats_.deferrals += 1;
    return nullptr;
  }
  // Build under the lock: builds are bin-local and rare (once per
  // (instance, bin, format)), so simplicity beats letting two workers race
  // to build the same layout.
  std::shared_ptr<const BinLayout<T>> built;
  try {
    built = own(build_bin_layout(a, vrows, unit, kind, bin_id));
    stats_.builds += 1;
    stats_.build_s += built->build_s;
  } catch (const std::exception&) {
    stats_.build_failures += 1;
    built = nullptr;
  }
  s.built.emplace(key, built);
  return built;
}

template <typename T>
std::uint64_t PlanLayouts<T>::refresh_values(const CsrMatrix<T>& a,
                                             std::uint64_t old_instance_id) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot* slot = nullptr;
  for (auto& s : slots_) {
    if (s.key == old_instance_id) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) return 0;
  slot->key = a.instance_id();
  std::uint64_t refreshed = 0;
  const std::uint64_t recycled_before = pool_->recycled();
  for (auto it = slot->built.begin(); it != slot->built.end();) {
    if (it->second == nullptr) {
      ++it;  // negative cache: still hopeless after a values-only change
      continue;
    }
    const BinLayout<T>& old = *it->second;
    if (old.source_structure != a.structure_id()) {
      // Another structure block — drop so acquire() rebuilds lazily.
      it = slot->built.erase(it);
      continue;
    }
    // Assigning retires the old layout; its values reach the pool once
    // the last in-flight launch holding it lets go.
    it->second = own(refresh_layout_values(
        a, old, pool_->take(layout_structure(old), layout_values(old).size())));
    refreshed += 1;
    ++it;
  }
  stats_.value_refreshes += refreshed;
  stats_.recycled_values += pool_->recycled() - recycled_before;
  return refreshed;
}

template <typename T>
LayoutStats PlanLayouts<T>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template class PlanLayouts<float>;
template class PlanLayouts<double>;

}  // namespace spmv::fmt
