// A vector that does not zero what it allocates.
//
// std::vector<T>(n) value-initialises every element: for a large array that
// is a serial memset which faults in every page on the allocating thread,
// only for the caller to overwrite each entry right after. Buffer<T> is a
// std::vector whose allocator default-initialises instead, so for trivial
// T a sized construction or resize() leaves the entries indeterminate and
// the first write (often a parallel one) is the first touch. Explicit
// values still work as usual: Buffer<T>(n, v) and assign(n, v) fill.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace spmv::util {

/// std::allocator that default-initialises on value-less construct().
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}  // NOLINT

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// A std::vector whose sized construction leaves trivial entries unwritten.
template <typename T>
using Buffer = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace spmv::util
