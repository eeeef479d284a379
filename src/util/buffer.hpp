// A vector that does not zero what it allocates.
//
// std::vector<T>(n) value-initialises every element: for a large array that
// is a serial memset which faults in every page on the allocating thread,
// only for the caller to overwrite each entry right after. Buffer<T> is a
// std::vector whose allocator default-initialises instead, so for trivial
// T a sized construction or resize() leaves the entries indeterminate and
// the first write (often a parallel one) is the first touch. Explicit
// values still work as usual: Buffer<T>(n, v) and assign(n, v) fill.
//
// Arrays of kHugeArrayBytes or more are mapped on their own, 2 MiB-aligned,
// and advised MADV_HUGEPAGE, so the first touch faults in 2 MiB pages
// (one fault where 4 KiB pages take 512) when the kernel's transparent
// huge pages allow it; otherwise the advice fails or is ignored and the
// array stays on 4 KiB pages. Such an array is unmapped when freed, so its
// memory goes back to the OS. Whether an array takes this path depends on
// its length alone, which allocate() and deallocate() both see, so each
// array is freed by the path that allocated it.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace spmv::util {

/// Arrays of at least this many bytes live on their own huge-page-advised
/// mapping (see the file comment).
inline constexpr std::size_t kHugeArrayBytes = std::size_t{16} << 20;
/// The alignment (and length granularity) of such a mapping: one huge page.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// A kHugePageBytes-aligned, MADV_HUGEPAGE-advised mapping of at least
/// `bytes` bytes; std::bad_alloc when the mapping fails.
void* map_huge_array(std::size_t bytes);
/// Unmap what map_huge_array(bytes) returned.
void unmap_huge_array(void* p, std::size_t bytes) noexcept;

/// std::allocator that default-initialises on value-less construct(), and
/// maps arrays of kHugeArrayBytes or more on huge pages.
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

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T))
      throw std::bad_array_new_length();
    if (n * sizeof(T) >= kHugeArrayBytes)
      return static_cast<T*>(map_huge_array(n * sizeof(T)));
    return std::allocator<T>::allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kHugeArrayBytes)
      unmap_huge_array(p, n * sizeof(T));
    else
      std::allocator<T>::deallocate(p, n);
  }

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
