#include "shard/sharded_service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/auto_spmv.hpp"
#include "core/tuner.hpp"
#include "obs/sink.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/threads.hpp"

namespace spmv::shard {

namespace detail {

/// One admitted request's shared state. Every shard holds a reference
/// until it has written its output rows; the LAST shard to finish
/// completes the promise. `x` is shared read-only across the shard pool
/// (no copy per shard); `y` is written through disjoint row subspans, so
/// the scatter-gather needs no synchronization beyond the `remaining`
/// countdown.
template <typename T>
struct InFlight {
  std::shared_ptr<const std::vector<T>> x;
  std::vector<T> y;  ///< full parent rows; shards own disjoint subranges
  std::atomic<int> remaining{0};
  std::atomic<bool> failed{false};
  std::promise<std::vector<T>> promise;
  std::size_t tenant = 0;
  std::uint64_t trace_id = 0;  ///< 0 = not sampled for tracing
  std::uint64_t submit_ns = 0;
  std::chrono::steady_clock::time_point submitted;
};

}  // namespace detail

template <typename T>
struct ShardedService<T>::Shard {
  explicit Shard(int idx) : index(idx) {}

  const int index;
  std::unique_ptr<adapt::BanditTuner<T>> tuner;  ///< null when adapt off

  /// Guards the swappable runtime and the counters below. Held briefly:
  /// execution runs on a shared_ptr copy, so a promotion swap never waits
  /// for an in-flight kernel.
  mutable std::mutex mutex;
  std::shared_ptr<const core::AutoSpmv<T>> runtime;
  bool warm_start = false;
  std::uint64_t executions = 0;
  double exec_total_s = 0.0;
  std::uint64_t promotions = 0;
  std::uint8_t last_promo_level = 0;
  prof::LatencyHistogram exec_hist;  ///< per-shard-execution wall time
};

template <typename T>
struct ShardedService<T>::State {
  State(std::vector<TenantSpec> tenants, QueuePolicy policy,
        std::size_t high_water)
      : queue(std::move(tenants), policy, high_water),
        tenant_latency(queue.tenant_count()) {}

  mutable std::mutex mutex;
  std::condition_variable cv;
  FairQueue<std::shared_ptr<detail::InFlight<T>>> queue;
  std::vector<std::deque<std::shared_ptr<detail::InFlight<T>>>> shard_queues;
  std::size_t dispatch_window = 2;
  std::size_t in_flight = 0;  ///< dispatched to the shard pool, not done
  bool stopping = false;
  bool joined = false;
  bool folded = false;  ///< profile/store fold ran (shutdown idempotence)
  std::vector<std::thread> workers;
  prof::ServeStats stats;  ///< admission-side counters + latency
  std::vector<prof::LatencyHistogram> tenant_latency;
};

template <typename T>
ShardedService<T>::ShardedService(std::shared_ptr<const CsrMatrix<T>> a,
                                  const core::Predictor& predictor,
                                  const ShardedOptions& opts)
    : opts_(opts) {
  exec::require_native(opts_.backend, "ShardedService");
  if (a == nullptr)
    throw std::invalid_argument("ShardedService: null matrix");
  set_ = plan_shards(*a, opts_.partition);
  const int k = set_.count();

  state_ = std::make_unique<State>(opts_.tenants, opts_.queue_policy,
                                   opts_.queue_high_water);
  state_->shard_queues.resize(static_cast<std::size_t>(k));
  state_->dispatch_window =
      opts_.dispatch_window != 0
          ? opts_.dispatch_window
          : static_cast<std::size_t>(
                std::max(2, 2 * std::max(1, opts_.workers_per_shard)));

  if (opts_.plan_store != nullptr) opts_.plan_store->load();

  shards_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    auto sh = std::make_unique<Shard>(s);
    const CsrMatrix<T>& sub = *set_.matrices[static_cast<std::size_t>(s)];
    const serve::Fingerprint& fp =
        set_.fingerprints[static_cast<std::size_t>(s)];

    // Runtimes execute the provenance-stamped plan copy, so promotions and
    // store write-throughs inherit the stamp.
    const auto stamped_runtime = [&](core::Plan plan) {
      plan.shard_index = s;
      plan.shard_count = k;
      plan.shard_parent = set_.parent_hash;
      return std::make_shared<const core::AutoSpmv<T>>(
          core::Tuner<T>(sub).plan(plan).build());
    };
    if (opts_.plan_store != nullptr) {
      if (auto stored = opts_.plan_store->lookup(fp); stored.has_value()) {
        // A stored plan that fails to build is erased and planned again.
        try {
          sh->runtime = stamped_runtime(std::move(stored->plan));
          sh->warm_start = true;
          state_->stats.cache_warm_hits += 1;
        } catch (const std::exception& e) {
          util::log_warn() << "sharded service: erasing shard " << s
                           << "'s unbuildable plan: " << e.what();
          opts_.plan_store->erase(fp);
        }
      }
    }
    if (!sh->warm_start) {
      // Fresh plan: one predictor pass to choose U/kernels/formats.
      core::AutoSpmv<T> fresh = core::Tuner<T>(sub)
                                    .predictor(predictor)
                                    .backend(exec::BackendKind::Native)
                                    .formats(opts_.format)
                                    .build();
      sh->runtime = stamped_runtime(fresh.plan());
      state_->stats.planning_passes += 1;
      if (opts_.plan_store != nullptr)
        opts_.plan_store->put(fp, adapt::StoredPlan{sh->runtime->plan()});
    }
    if (opts_.adapt.has_value())
      sh->tuner = std::make_unique<adapt::BanditTuner<T>>(*opts_.adapt);
    shards_.push_back(std::move(sh));
  }

  // Split the total thread budget evenly across the k * workers shard
  // workers, so K shards executing one request concurrently use about the
  // whole machine, not K times it: every request fans out to all k shards
  // at once, so the k shares are busy together by construction. The total
  // is the constructing thread's budget unless the options name one.
  const int total = opts_.total_compute_units > 0 ? opts_.total_compute_units
                                                  : util::thread_budget();
  const int workers = std::max(1, opts_.workers_per_shard);
  const int share = util::thread_share(total, k * workers);
  state_->workers.reserve(static_cast<std::size_t>(k * workers));
  for (int s = 0; s < k; ++s)
    for (int w = 0; w < workers; ++w)
      state_->workers.emplace_back(
          [this, s, share] { worker_loop(s, share); });
}

template <typename T>
ShardedService<T>::~ShardedService() {
  shutdown();
}

template <typename T>
std::future<std::vector<T>> ShardedService<T>::submit(
    const std::string& tenant, std::vector<T> x) {
  State& st = *state_;
  const std::size_t tenant_idx = st.queue.tenant_index(tenant);
  const auto cols =
      static_cast<std::size_t>(set_.matrices.front()->cols());
  if (x.size() != cols)
    throw std::invalid_argument("ShardedService: x size " +
                                std::to_string(x.size()) + " != cols " +
                                std::to_string(cols));
  const auto rows = static_cast<std::size_t>(set_.ranges.back().row_end);

  const bool traced = trace::sample_request();
  const std::uint64_t id = traced ? trace::next_request_id() : 0;
  if (traced) trace::emit_async_begin("request", "serve", id);

  auto inf = std::make_shared<detail::InFlight<T>>();
  inf->x = std::make_shared<const std::vector<T>>(std::move(x));
  inf->y.assign(rows, T{});
  inf->remaining.store(set_.count(), std::memory_order_relaxed);
  inf->tenant = tenant_idx;
  inf->trace_id = id;
  inf->submit_ns = trace::now_ns();
  inf->submitted = std::chrono::steady_clock::now();
  std::future<std::vector<T>> fut = inf->promise.get_future();

  {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (st.stopping)
      throw std::runtime_error("ShardedService: submit after shutdown");
    if (!st.queue.push(tenant_idx, inf)) {
      st.stats.rejected += 1;
      if (traced) {
        trace::emit_async_instant("rejected", "serve", id);
        trace::emit_async_end("request", "serve", id);
      }
      throw serve::QueueFullError(st.queue.high_water());
    }
    st.stats.requests += 1;
    dispatch_locked();
  }
  st.cv.notify_all();
  return fut;
}

template <typename T>
std::vector<T> ShardedService<T>::run(const std::string& tenant,
                                      std::vector<T> x) {
  return submit(tenant, std::move(x)).get();
}

template <typename T>
void ShardedService<T>::dispatch_locked() {
  State& st = *state_;
  std::shared_ptr<detail::InFlight<T>> inf;
  std::size_t tenant = 0;
  // The window keeps backlog in the FAIR queue (where DRR ordering rules)
  // instead of deep in per-shard FIFOs. Shutdown flushes regardless so
  // every admitted request still completes.
  while ((st.in_flight < st.dispatch_window || st.stopping) &&
         st.queue.pop(&inf, &tenant)) {
    const double wait = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - inf->submitted)
                            .count();
    st.stats.queue_wait_total_s += wait;
    st.stats.queue_wait_max_s = std::max(st.stats.queue_wait_max_s, wait);
    st.stats.queue_wait.add(wait);
    if (inf->trace_id != 0)
      trace::emit_complete("queue-wait", "serve", inf->submit_ns,
                           trace::now_ns(), inf->trace_id);
    st.in_flight += 1;
    for (auto& q : st.shard_queues) q.push_back(inf);
    inf.reset();
  }
}

template <typename T>
void ShardedService<T>::worker_loop(int shard, int threads) {
  util::set_thread_budget(threads);
  // Route this worker's obs records (trace spans via attach(), stat deltas
  // via push_stat) to the shard's own producer-group ring; ring 0 stays
  // for everything else (submitters, the unsharded world).
  obs::StreamingSink::set_producer_group(static_cast<std::size_t>(shard) + 1);

  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  State& st = *state_;
  const ShardRange& range = set_.ranges[static_cast<std::size_t>(shard)];
  const CsrMatrix<T>& sub = *set_.matrices[static_cast<std::size_t>(shard)];
  const serve::Fingerprint& fp =
      set_.fingerprints[static_cast<std::size_t>(shard)];

  for (;;) {
    std::shared_ptr<detail::InFlight<T>> inf;
    {
      std::unique_lock<std::mutex> lock(st.mutex);
      auto& q = st.shard_queues[static_cast<std::size_t>(shard)];
      st.cv.wait(lock, [&] { return st.stopping || !q.empty(); });
      if (q.empty()) return;  // stopping and drained
      inf = std::move(q.front());
      q.pop_front();
    }

    trace::ScopedRequestId rid(inf->trace_id);
    std::shared_ptr<const core::AutoSpmv<T>> rt;
    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      rt = sh.runtime;
    }

    const std::span<const T> x(inf->x->data(), inf->x->size());
    const std::span<T> y(inf->y.data() + range.row_begin,
                         static_cast<std::size_t>(range.rows()));
    std::exception_ptr err;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      trace::TraceSpan span("shard-exec", "serve");
      span.arg("shard", shard);
      rt->run(x, y);
    } catch (...) {
      err = std::current_exception();
    }
    const double exec_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::uint8_t promo_level;
    {
      std::lock_guard<std::mutex> lock(sh.mutex);
      sh.executions += 1;
      sh.exec_total_s += exec_s;
      prof::Exemplar ex;
      ex.trace_id = inf->trace_id;
      ex.fingerprint = fp.row_hash;
      ex.plan_revision = rt->plan().revision;
      ex.backend = static_cast<std::uint8_t>(rt->plan().backend);
      for (const core::BinPlan& bp : rt->plan().bin_kernels)
        if (bp.format != fmt::FormatKind::Csr) ex.formats = true;
      ex.promo_level = sh.last_promo_level;
      ex.shard = static_cast<std::int16_t>(shard);
      sh.exec_hist.add(exec_s, ex);
      promo_level = sh.last_promo_level;
    }
    if (opts_.obs_sink != nullptr)
      opts_.obs_sink->push_stat("shard.exec_s", exec_s, shard);

    // Online adaptation on this shard's own arm state.
    // Trials run synchronously here, so joined workers imply drained
    // trials (same contract as serve::SpmvService).
    if (sh.tuner != nullptr && err == nullptr) {
      if (auto promo = sh.tuner->observe(fp, rt->plan(), rt->bins(), sub, x);
          promo.has_value()) {
        core::Plan next = std::move(promo->plan);
        // A rebinned (U) promotion rebuilt the plan from scratch; re-stamp
        // the shard provenance either way so it survives every level.
        next.shard_index = shard;
        next.shard_count = set_.count();
        next.shard_parent = set_.parent_hash;
        try {
          auto replacement = std::make_shared<const core::AutoSpmv<T>>(
              core::Tuner<T>(sub).plan(next).build());
          {
            std::lock_guard<std::mutex> lock(sh.mutex);
            sh.runtime = replacement;
            sh.promotions += 1;
            sh.last_promo_level = promo->level;
            promo_level = promo->level;
          }
          if (opts_.plan_store != nullptr)
            opts_.plan_store->put(
                fp, adapt::StoredPlan{replacement->plan(), promo->gflops});
          if (opts_.obs_sink != nullptr)
            opts_.obs_sink->push_stat("adapt.promotion_level",
                                      static_cast<double>(promo->level),
                                      shard);
        } catch (const std::exception& e) {
          util::log_warn()
              << "ShardedService: promoted plan rebuild failed on shard "
              << shard << ": " << e.what();
        }
      }
    }

    if (err != nullptr && !inf->failed.exchange(true))
      inf->promise.set_exception(err);

    if (inf->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last shard out assembles nothing — the rows are already in place —
      // it just accounts and completes.
      const double latency =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        inf->submitted)
              .count();
      prof::Exemplar ex;
      ex.trace_id = inf->trace_id;
      ex.fingerprint = set_.parent_hash;
      ex.plan_revision = rt->plan().revision;
      ex.backend = static_cast<std::uint8_t>(rt->plan().backend);
      ex.promo_level = promo_level;
      ex.shard = static_cast<std::int16_t>(shard);
      {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.stats.request_latency.add(latency, ex);
        st.tenant_latency[inf->tenant].add(latency, ex);
        st.in_flight -= 1;
        dispatch_locked();
      }
      st.cv.notify_all();
      if (inf->trace_id != 0)
        trace::emit_async_end("request", "serve", inf->trace_id);
      if (opts_.obs_sink != nullptr)
        opts_.obs_sink->push_stat("serve.request_latency_s", latency, shard);
      if (!inf->failed.load(std::memory_order_acquire))
        inf->promise.set_value(std::move(inf->y));
    }
  }
}

template <typename T>
void ShardedService<T>::shutdown() {
  State& st = *state_;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    st.stopping = true;
    dispatch_locked();  // flush the admission backlog to the shard pool
  }
  st.cv.notify_all();
  bool fold = false;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (!st.joined) {
      st.joined = true;
      fold = true;
    }
  }
  if (!fold) return;
  // join() outside the lock: workers take st.mutex to pop.
  for (std::thread& t : st.workers)
    if (t.joinable()) t.join();
  if (opts_.plan_store != nullptr) {
    try {
      opts_.plan_store->flush();
    } catch (const std::exception& e) {
      util::log_warn() << "ShardedService: plan store flush failed: "
                       << e.what();
    }
  }
  if (opts_.profile != nullptr) {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (!st.folded) {
      st.folded = true;
      opts_.profile->serve.merge(stats_unlocked());
      opts_.profile->threads_active_max = prof::threads_active_max();
      for (const auto& sh : shards_)
        if (sh->tuner != nullptr)
          opts_.profile->adapt.merge(sh->tuner->stats());
    }
  }
}

template <typename T>
prof::ServeStats ShardedService<T>::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return stats_unlocked();
}

template <typename T>
prof::ServeStats ShardedService<T>::stats_unlocked() const {
  const State& st = *state_;
  prof::ServeStats s = st.stats;
  for (std::size_t i = 0; i < st.queue.tenant_count(); ++i) {
    const TenantCounters& c = st.queue.counters(i);
    prof::TenantStats t;
    t.name = st.queue.spec(i).name;
    t.weight = st.queue.spec(i).weight;
    t.requests = c.submitted;
    t.rejected = c.rejected;
    t.dispatched = c.dispatched;
    t.latency = st.tenant_latency[i];
    s.tenants.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    const ShardRange& r = set_.ranges[i];
    std::lock_guard<std::mutex> lock(sh.mutex);
    prof::ShardStats out;
    out.shard = sh.index;
    out.row_begin = r.row_begin;
    out.row_end = r.row_end;
    out.nnz = r.nnz;
    out.plan = sh.runtime->plan().to_string();
    out.executions = sh.executions;
    out.exec_total_s = sh.exec_total_s;
    out.promotions = sh.promotions;
    s.shards.push_back(std::move(out));
    s.exec_total_s += sh.exec_total_s;
    s.batches += sh.executions;
    if (sh.executions > 0) {
      if (s.batch_width_hist.empty()) s.batch_width_hist.resize(1, 0);
      s.batch_width_hist[0] += sh.executions;  // every shard run is width 1
    }
    s.batch_exec.merge(sh.exec_hist);
    s.cache_promotions += sh.promotions;
  }
  return s;
}

template <typename T>
std::vector<typename ShardedService<T>::ShardInfo>
ShardedService<T>::shard_infos() const {
  std::vector<ShardInfo> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    std::lock_guard<std::mutex> lock(sh.mutex);
    ShardInfo info;
    info.index = sh.index;
    info.range = set_.ranges[i];
    info.fingerprint = set_.fingerprints[i];
    info.plan = sh.runtime->plan();
    info.warm_start = sh.warm_start;
    info.executions = sh.executions;
    info.exec_total_s = sh.exec_total_s;
    info.promotions = sh.promotions;
    out.push_back(std::move(info));
  }
  return out;
}

template class ShardedService<float>;
template class ShardedService<double>;

}  // namespace spmv::shard
