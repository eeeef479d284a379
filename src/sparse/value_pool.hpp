// One-deep recycling of value arrays across value-only updates.
//
// A value update on unchanged structure writes a whole new value array
// (CSR values, a layout's values) while in-flight launches still read the
// old one, so the old array cannot be overwritten in place. It can be
// reused one update later: when the last owner of the object holding it
// lets go, the object's shared_ptr deleter put()s the array here, and the
// next update on the same structure take()s it back and writes into pages
// that are already mapped — instead of faulting in a fresh allocation of
// the same size. The hand-off is ordered by the pool's mutex, after the
// last reader's release of the shared_ptr, so a spare is never written
// while a launch still reads it.
//
// Spares are keyed by a weak reference to the immutable structure block the
// values belong to: a spare is handed out only for that same structure,
// and it is dropped once the structure dies (prune()).
//
// The pool is generic over the array type V: std::vector<T> for CSR values,
// util::Buffer<T> for layout values. take() hands out a fresh V(n) when it
// has no spare, so a fresh Buffer is not zero-filled: the caller's write is
// its first touch, and a caller must write every entry it reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace spmv {

template <typename V>
class ValuePool {
 public:
  /// The spare held for `structure` when it has exactly `n` entries
  /// (counted in recycled()), else a fresh V(n), whose entries are
  /// unwritten when V is a util::Buffer.
  V take(const std::shared_ptr<const void>& structure, std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = spares_.begin(); it != spares_.end(); ++it) {
        if (same_owner(it->structure, structure) &&
            it->values.size() == n) {
          V v = std::move(it->values);
          spares_.erase(it);
          recycled_ += 1;
          return v;
        }
      }
    }
    return V(n);
  }

  /// Hold `values` as the spare for `structure`. One deep: a structure
  /// that already has a spare keeps the one it has.
  void put(const std::shared_ptr<const void>& structure, V values) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Spare& s : spares_)
      if (same_owner(s.structure, structure)) return;
    spares_.push_back({structure, std::move(values)});
  }

  /// Free the spares of structures nobody references any more.
  void prune() {
    std::vector<Spare> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = spares_.begin(); it != spares_.end();) {
        if (it->structure.expired()) {
          dead.push_back(std::move(*it));
          it = spares_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  /// Arrays handed out by take() from a spare rather than allocated.
  [[nodiscard]] std::uint64_t recycled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recycled_;
  }

 private:
  struct Spare {
    std::weak_ptr<const void> structure;
    V values;
  };

  static bool same_owner(const std::weak_ptr<const void>& a,
                         const std::shared_ptr<const void>& b) {
    return !a.expired() && !a.owner_before(b) && !b.owner_before(a);
  }

  mutable std::mutex mu_;
  std::vector<Spare> spares_;
  std::uint64_t recycled_ = 0;
};

/// `obj` as a shared_ptr whose deleter returns the value array that
/// `values_of(obj)` names to `pool` (when the pool still exists), keyed by
/// `structure`, then frees the object and the spares of dead structures.
template <typename Obj, typename V, typename ValuesOf>
std::shared_ptr<const Obj> recycling_ptr(
    std::unique_ptr<Obj> obj, const std::shared_ptr<ValuePool<V>>& pool,
    std::shared_ptr<const void> structure, ValuesOf values_of) {
  std::weak_ptr<ValuePool<V>> weak = pool;
  std::weak_ptr<const void> key = structure;
  return std::shared_ptr<const Obj>(
      obj.release(), [weak, key, values_of](Obj* p) {
        const auto pool = weak.lock();
        if (pool != nullptr) {
          // Scoped so the structure can die with *p: prune() then frees
          // the spare again when nothing else shares the structure.
          if (const auto s = key.lock()) pool->put(s, values_of(*p));
        }
        delete p;
        if (pool != nullptr) pool->prune();
      });
}

}  // namespace spmv
