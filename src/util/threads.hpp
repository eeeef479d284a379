// The process's thread budget.
//
// Each thread that runs native work runs its parallel regions at its own
// budget: the OpenMP nthreads setting of the calling thread, which is per
// thread, so every region that thread opens -- kernels, layout builds,
// planning reductions -- runs at most that many threads. A session or a
// tool keeps the whole machine by setting nothing. A service's workers
// share one total through SharedThreads: a lone busy worker gets all of
// it, busy workers split it, and together they never hold more, so two
// workers of one service no longer each open a team the size of the
// machine.
#pragma once

#include <condition_variable>
#include <mutex>

namespace spmv::util {

/// The process's thread total: OpenMP's default team size, which honours
/// OMP_NUM_THREADS and the CPU affinity mask (hardware_concurrency() in a
/// build without OpenMP). Read once, before any thread's budget is set.
[[nodiscard]] int process_threads();

/// max(1, total / parts): one of `parts` equal shares of `total` threads.
[[nodiscard]] int thread_share(int total, int parts);

/// Cap every parallel region the calling thread opens from now on at
/// `threads` threads (at least 1). Other threads are unaffected.
void set_thread_budget(int threads);

/// The calling thread's budget: the team size its next parallel region
/// gets (1 in a build without OpenMP). On a thread that set none, this is
/// process_threads() unless the program changed OpenMP's setting itself.
[[nodiscard]] int thread_budget();

/// `total` threads shared by the workers of one service, split by how many
/// of them are busy rather than by how many exist.
class SharedThreads {
 public:
  explicit SharedThreads(int total);
  SharedThreads(const SharedThreads&) = delete;
  SharedThreads& operator=(const SharedThreads&) = delete;

  /// Held by a worker for one unit of work. On entry it counts the worker
  /// busy, takes its share -- total / busy workers (the larger of this
  /// arrival's count and the last one's), at most what the other leases
  /// leave free, at least 1 -- and sets the calling thread's budget to it;
  /// it waits only while the other leases hold every thread.
  class Lease {
   public:
    explicit Lease(SharedThreads& pool);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    [[nodiscard]] int threads() const { return threads_; }

   private:
    SharedThreads& pool_;
    int threads_ = 1;
  };

  /// Workers holding or awaiting a lease right now.
  [[nodiscard]] int busy() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable freed_;
  const int total_;
  int busy_ = 0;  ///< workers holding or awaiting a lease
  int last_busy_ = 0;  ///< busy_ at the last arrival, this one included
  int held_ = 0;  ///< threads the leases hold
};

}  // namespace spmv::util
