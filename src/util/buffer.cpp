#include "util/buffer.hpp"

#include <sys/mman.h>

#include <cstdint>

namespace spmv::util {

namespace {

std::size_t mapped_length(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
}

}  // namespace

void* map_huge_array(std::size_t bytes) {
  // Over-map by one huge page, then unmap the unaligned head and the tail,
  // so the array starts on a huge-page boundary.
  const std::size_t len = mapped_length(bytes);
  void* raw = ::mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start =
      (base + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
  if (start > base) ::munmap(raw, start - base);
  const std::size_t tail = base + kHugePageBytes - start;
  if (tail > 0) ::munmap(reinterpret_cast<void*>(start + len), tail);
  auto* p = reinterpret_cast<void*>(start);
  // Advice only: without transparent huge pages this fails, and the array
  // stays on 4 KiB pages.
  (void)::madvise(p, len, MADV_HUGEPAGE);
  return p;
}

void unmap_huge_array(void* p, std::size_t bytes) noexcept {
  ::munmap(p, mapped_length(bytes));
}

}  // namespace spmv::util
