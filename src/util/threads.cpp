#include "util/threads.hpp"

#include <algorithm>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace spmv::util {

int process_threads() {
  // set_thread_budget() resolves this before it changes any setting, so
  // the first read sees OpenMP's default, whichever thread makes it.
#ifdef _OPENMP
  static const int total = std::max(1, omp_get_max_threads());
#else
  static const int total =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
#endif
  return total;
}

int thread_share(int total, int parts) {
  return std::max(1, total / std::max(1, parts));
}

void set_thread_budget(int threads) {
  (void)process_threads();
#ifdef _OPENMP
  omp_set_num_threads(std::max(1, threads));
#else
  (void)threads;
#endif
}

int thread_budget() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

SharedThreads::SharedThreads(int total) : total_(std::max(1, total)) {}

int SharedThreads::busy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_;
}

SharedThreads::Lease::Lease(SharedThreads& pool) : pool_(pool) {
  {
    std::unique_lock<std::mutex> lock(pool_.mutex_);
    pool_.busy_ += 1;
    // The share is fixed by who is busy on arrival: a worker that waited
    // for a lone worker's threads takes its half, not the whole total back.
    // It counts the busier of this arrival and the last one, so a worker
    // alone for a moment between busy ones keeps its share: each change
    // of a worker's share costs a pool-thread restart (native_backend.cpp,
    // kRegionWork).
    const int fair =
        thread_share(pool_.total_, std::max(pool_.busy_, pool_.last_busy_));
    pool_.last_busy_ = pool_.busy_;
    pool_.freed_.wait(lock, [&] { return pool_.held_ < pool_.total_; });
    threads_ = std::min(fair, pool_.total_ - pool_.held_);
    pool_.held_ += threads_;
  }
  set_thread_budget(threads_);
}

SharedThreads::Lease::~Lease() {
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    pool_.held_ -= threads_;
    pool_.busy_ -= 1;
  }
  pool_.freed_.notify_all();
}

}  // namespace spmv::util
