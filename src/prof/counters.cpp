#include "prof/counters.hpp"

namespace spmv::prof {

namespace {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_spmm_fallback_columns{0};
std::atomic<std::int64_t> g_threads_active{0};
std::atomic<std::int64_t> g_threads_active_max{0};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t spmm_fallback_columns() {
  return g_spmm_fallback_columns.load(std::memory_order_relaxed);
}

void add_spmm_fallback_columns(std::uint64_t n) {
  if (enabled())
    g_spmm_fallback_columns.fetch_add(n, std::memory_order_relaxed);
}

void reset_spmm_fallback_columns() {
  g_spmm_fallback_columns.store(0, std::memory_order_relaxed);
}

std::int64_t threads_active_max() {
  return g_threads_active_max.load(std::memory_order_relaxed);
}

void reset_threads_active_max() {
  g_threads_active_max.store(g_threads_active.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
}

ActiveThreadScope::ActiveThreadScope(std::int64_t threads)
    : threads_(threads) {
  const std::int64_t now =
      g_threads_active.fetch_add(threads_, std::memory_order_relaxed) +
      threads_;
  std::int64_t seen = g_threads_active_max.load(std::memory_order_relaxed);
  while (now > seen && !g_threads_active_max.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

ActiveThreadScope::~ActiveThreadScope() {
  g_threads_active.fetch_sub(threads_, std::memory_order_relaxed);
}

}  // namespace spmv::prof
