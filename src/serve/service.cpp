#include "serve/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/exhaustive.hpp"
#include "obs/sink.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

namespace spmv::serve {

template <typename T>
struct SpmvService<T>::Request {
  std::shared_ptr<const CsrMatrix<T>> matrix;
  std::vector<T> x;
  /// Dense right-hand-side columns in `x`. 1 = an ordinary SpMV request
  /// (coalescable with same-matrix neighbours); >1 = an SpMM request that
  /// executes alone.
  int width = 1;
  std::promise<std::vector<T>> result;
  util::Timer queued;  ///< started at submit; read at dispatch
  std::uint64_t trace_id = 0;        ///< nonzero only while tracing is on
  std::uint64_t trace_submit_ns = 0; ///< trace-clock submit time
};

template <typename T>
struct SpmvService<T>::Queue {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Request> pending;
  bool stopping = false;
  std::vector<std::thread> workers;
  prof::ServeStats stats;  ///< guarded by mutex (cache counters excluded)
  /// The native threads the workers share: the constructing thread's
  /// budget, split by how many workers are busy (util::SharedThreads).
  util::SharedThreads threads{util::thread_budget()};
  bool profile_flushed = false;
  /// Arm level of the latest adapt promotion (prof::Exemplar::promo_level
  /// encoding; 0 until one lands). Guarded by mutex; stamped onto latency
  /// exemplars so a slow bucket names the plan change that preceded it.
  std::uint8_t last_promo_level = 0;
};

template <typename T>
SpmvService<T>::SpmvService(const core::Predictor& predictor,
                            const ServiceOptions& opts)
    : opts_(opts),
      cache_(predictor, opts.cache_capacity, opts.plan_store, opts.format),
      queue_(std::make_unique<Queue>()) {
  exec::require_native(opts_.backend, "SpmvService");
  if (opts_.workers < 1)
    throw std::invalid_argument("SpmvService: workers must be >= 1");
  if (opts_.max_batch < 1)
    throw std::invalid_argument("SpmvService: max_batch must be >= 1");
  // Warm start: load the store before the first request can miss the
  // cache (workers have not been spawned yet, submit() cannot run yet).
  if (opts_.plan_store != nullptr) opts_.plan_store->load();
  if (opts_.adapt.has_value())
    tuner_ = std::make_unique<adapt::BanditTuner<T>>(*opts_.adapt);
  queue_->workers.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    queue_->workers.emplace_back([this] { worker_loop(); });
}

template <typename T>
SpmvService<T>::~SpmvService() {
  shutdown();
}

template <typename T>
std::future<std::vector<T>> SpmvService<T>::submit(
    std::shared_ptr<const CsrMatrix<T>> a, std::vector<T> x) {
  return submit_spmm(std::move(a), std::move(x), 1);
}

template <typename T>
std::future<std::vector<T>> SpmvService<T>::submit_spmm(
    std::shared_ptr<const CsrMatrix<T>> a, std::vector<T> x, int width) {
  if (a == nullptr)
    throw std::invalid_argument("SpmvService::submit: null matrix");
  if (width < 1)
    throw std::invalid_argument("SpmvService::submit_spmm: width must be >= 1");
  if (x.size() != static_cast<std::size_t>(a->cols()) *
                      static_cast<std::size_t>(width))
    throw std::invalid_argument(
        "SpmvService::submit: x length does not match matrix cols * width");

  // The request's trace lifetime opens at submission; spans recorded on
  // whichever worker thread executes it carry the same id. Under 1-in-N
  // request sampling (TraceConfig::sample_every_n), a sampled-out request
  // keeps trace_id 0 and records nothing anywhere downstream.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_submit_ns = 0;
  if (trace::sample_request()) {
    trace_id = trace::next_request_id();
    trace_submit_ns = trace::now_ns();
    trace::emit_async_begin("request", "serve", trace_id);
  }

  std::future<std::vector<T>> fut;
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    if (queue_->stopping) {
      if (trace_id != 0) trace::emit_async_end("request", "serve", trace_id);
      throw std::runtime_error("SpmvService::submit: service is shut down");
    }
    if (queue_->pending.size() >= opts_.queue_high_water) {
      queue_->stats.rejected += 1;
      if (trace_id != 0) trace::emit_async_end("request", "serve", trace_id);
      throw QueueFullError(opts_.queue_high_water);
    }
    Request r;
    r.matrix = std::move(a);
    r.x = std::move(x);
    r.width = width;
    r.trace_id = trace_id;
    r.trace_submit_ns = trace_submit_ns;
    fut = r.result.get_future();
    queue_->pending.push_back(std::move(r));
    queue_->stats.requests += 1;
  }
  queue_->cv.notify_one();
  return fut;
}

template <typename T>
std::vector<T> SpmvService<T>::run(std::shared_ptr<const CsrMatrix<T>> a,
                                   std::vector<T> x) {
  return submit(std::move(a), std::move(x)).get();
}

template <typename T>
std::vector<T> SpmvService<T>::run_spmm(std::shared_ptr<const CsrMatrix<T>> a,
                                        std::vector<T> x, int width) {
  return submit_spmm(std::move(a), std::move(x), width).get();
}

template <typename T>
void SpmvService<T>::worker_loop() {
  Queue& q = *queue_;
  for (;;) {
    // Claim the queue head plus up to max_batch-1 later requests for the
    // same matrix object (pointer identity — structurally equal matrices
    // with different values must not share a batch).
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(q.mutex);
      q.cv.wait(lock, [&] { return q.stopping || !q.pending.empty(); });
      if (q.pending.empty()) return;  // stopping and fully drained
      batch.push_back(std::move(q.pending.front()));
      q.pending.pop_front();
      const CsrMatrix<T>* m = batch.front().matrix.get();
      // An SpMM request owns its whole execution; only single-vector
      // requests coalesce (and only with each other).
      if (batch.front().width == 1) {
        for (auto it = q.pending.begin();
             it != q.pending.end() &&
             batch.size() < static_cast<std::size_t>(opts_.max_batch);) {
          if (it->matrix.get() == m && it->width == 1) {
            batch.push_back(std::move(*it));
            it = q.pending.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    // This batch's share of the service's threads: planning, layout builds
    // and kernels below open their parallel regions at this size, so busy
    // workers together use the cores once instead of once each, and a
    // lone worker still gets all of them. Released before the futures
    // resolve, so a client's next request does not find this worker still
    // counted busy.
    std::optional<util::SharedThreads::Lease> lease;
    lease.emplace(q.threads);
    const bool spmm = batch.front().width > 1;
    const int width =
        spmm ? batch.front().width : static_cast<int>(batch.size());
    // All of the batch's worker-side spans adopt the head request's id —
    // the claimed-instants below tie the other batch members to it. Each
    // request also gets a queue-wait span (begin stamped at submit, on the
    // client's thread) so its full lifetime is span-covered.
    trace::ScopedRequestId rid_scope(batch.front().trace_id);
    const std::uint64_t claim_ns =
        trace::enabled() ? trace::now_ns() : 0;
    for (const Request& r : batch) {
      if (r.trace_id != 0) {
        trace::emit_complete("queue-wait", "serve", r.trace_submit_ns,
                             claim_ns, r.trace_id);
        trace::emit_async_instant("claimed", "serve", r.trace_id);
      }
    }

    std::vector<double> waits;
    waits.reserve(batch.size());
    double wait_sum = 0.0;
    double wait_max = 0.0;
    for (const Request& r : batch) {
      const double w = r.queued.elapsed_s();
      waits.push_back(w);
      wait_sum += w;
      wait_max = std::max(wait_max, w);
    }

    const auto fail_all = [&](std::exception_ptr e) {
      for (Request& r : batch) {
        if (r.trace_id != 0)
          trace::emit_async_end("request", "serve", r.trace_id);
        r.result.set_exception(e);
      }
    };

    std::shared_ptr<const typename PlanCache<T>::Entry> entry;
    try {
      trace::TraceSpan span("plan-cache-get", "serve");
      entry = cache_.get(batch.front().matrix);
    } catch (...) {
      fail_all(std::current_exception());
      continue;
    }

    // Execute against the REQUEST's matrix through the cached plan/bins:
    // the cache key ignores values, so the entry's own matrix may hold
    // different numbers (see plan_cache.hpp).
    const CsrMatrix<T>& a = *batch.front().matrix;
    const core::AutoSpmv<T>& rt = entry->runtime;
    const auto rows = static_cast<std::size_t>(a.rows());
    const auto cols = static_cast<std::size_t>(a.cols());
    const fmt::PlanLayouts<T>* layouts = rt.layouts();
    const double built_before =
        layouts != nullptr ? layouts->stats().build_s : 0.0;
    util::Timer exec;
    std::vector<std::vector<T>> results;
    results.reserve(batch.size());
    try {
      trace::TraceSpan span("execute-batch", "serve");
      span.arg("width", width);
      // One SpMM execution for every batch shape: an SpMM request's own
      // block, a lone SpMV (width 1), or coalesced vectors gathered
      // column-major, on the runtime's (native) backend. rt.layouts()
      // (null when the plan is all-CSR) accelerates format bins;
      // PlanLayouts keys by matrix instance, so the request's own matrix
      // gets its own layout slot even under shared structure.
      std::span<const T> xs(batch.front().x);
      std::vector<T> gathered;
      if (batch.size() > 1) {
        gathered.resize(cols * static_cast<std::size_t>(width));
        for (int b = 0; b < width; ++b)
          std::copy(batch[static_cast<std::size_t>(b)].x.begin(),
                    batch[static_cast<std::size_t>(b)].x.end(),
                    gathered.begin() + static_cast<std::size_t>(b) * cols);
        xs = std::span<const T>(gathered);
      }
      std::vector<T> ys(rows * static_cast<std::size_t>(width));
      core::execute_plan_spmm(rt.backend(), a, xs, std::span<T>(ys), width,
                              rt.bins(), rt.plan(), nullptr, rt.layouts());
      if (batch.size() == 1) {
        results.push_back(std::move(ys));
      } else {
        for (int b = 0; b < width; ++b) {
          const auto first = ys.begin() + static_cast<std::size_t>(b) * rows;
          results.emplace_back(first,
                               first + static_cast<std::ptrdiff_t>(rows));
        }
      }
    } catch (...) {
      fail_all(std::current_exception());
      continue;
    }
    const double exec_s = exec.elapsed_s();
    const double build_s =
        layouts != nullptr ? layouts->stats().build_s - built_before : 0.0;

    // The batch is booked before any of its futures resolves, so a caller
    // that reads stats() once its result is back finds its batch counted.
    const std::uint64_t done_ns = trace::now_ns();
    {
      std::lock_guard<std::mutex> lock(q.mutex);
      q.stats.add_batch(width);
      q.stats.queue_wait_total_s += wait_sum;
      q.stats.queue_wait_max_s = std::max(q.stats.queue_wait_max_s, wait_max);
      q.stats.exec_total_s += exec_s;
      q.stats.layout_build_s += build_s;
      for (const double w : waits) q.stats.queue_wait.add(w);
      // Every latency sample carries full provenance, so any histogram
      // bucket can answer "which request, through which plan, was that?".
      // The trace id rides along so the exemplar can point back into the
      // trace stream.
      prof::Exemplar ex;
      ex.fingerprint = entry->key.row_hash;
      ex.plan_revision = rt.plan().revision;
      ex.backend = static_cast<std::uint8_t>(rt.plan().backend);
      ex.formats = rt.plan().uses_formats();
      ex.promo_level = q.last_promo_level;
      for (const Request& r : batch) {
        ex.trace_id = r.trace_id;
        q.stats.request_latency.add(r.queued.elapsed_s(), ex);
      }
      ex.trace_id = batch.front().trace_id;
      q.stats.batch_exec.add(exec_s, ex);
    }
    lease.reset();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Request& r = batch[i];
      if (r.trace_id != 0) {
        // Claim-to-completion under the request's own id, so together with
        // its queue-wait span the request's lifetime is fully covered.
        trace::emit_complete("serve-batch", "serve", claim_ns, done_ns,
                             r.trace_id);
        trace::emit_async_end("request", "serve", r.trace_id);
      }
      r.result.set_value(std::move(results[i]));
    }
    if (opts_.obs_sink != nullptr) {
      opts_.obs_sink->push_stat("serve.batch_width", width);
      opts_.obs_sink->push_stat("serve.batch_exec_s", exec_s);
      opts_.obs_sink->push_stat("serve.queue_wait_max_s", wait_max);
    }

    // Online adaptation: offer this request to the bandit as a shadow-trial
    // opportunity. Runs synchronously on this worker (so shutdown's join
    // drains every in-flight trial) and holds the entry via shared_ptr, so
    // a trial can never touch a freed plan even if the cache evicts the
    // entry concurrently. A trial times its arms under a lease of its own.
    if (tuner_ != nullptr) {
      const util::SharedThreads::Lease trial_lease(q.threads);
      const auto promo =
          tuner_->observe(entry->key, rt.plan(), rt.bins(), a,
                          std::span<const T>(batch.front().x));
      if (promo.has_value()) {
        cache_.promote(entry->key, promo->plan, promo->gflops);
        {
          std::lock_guard<std::mutex> lock(q.mutex);
          q.last_promo_level = promo->level;
        }
        if (opts_.obs_sink != nullptr)
          opts_.obs_sink->push_stat("adapt.promotion_level",
                                    static_cast<double>(promo->level));
      }
    }
  }
}

template <typename T>
void SpmvService<T>::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    queue_->stopping = true;
  }
  queue_->cv.notify_all();
  // Joining the workers also drains in-flight adapt trials — observe()
  // runs synchronously inside worker_loop — so by the time the store is
  // flushed below no trial can be touching any plan.
  for (std::thread& w : queue_->workers) {
    if (w.joinable()) w.join();
  }
  queue_->workers.clear();

  if (opts_.plan_store != nullptr) {
    try {
      opts_.plan_store->flush();
    } catch (const std::exception& e) {
      util::log_warn() << "SpmvService: plan store flush failed: " << e.what();
    }
  }

  if (opts_.profile != nullptr && !queue_->profile_flushed) {
    queue_->profile_flushed = true;
    opts_.profile->serve.merge(stats());
    opts_.profile->threads_active_max = prof::threads_active_max();
    if (tuner_ != nullptr) opts_.profile->adapt.merge(tuner_->stats());
  }
}

template <typename T>
prof::ServeStats SpmvService<T>::stats() const {
  prof::ServeStats s;
  {
    std::lock_guard<std::mutex> lock(queue_->mutex);
    s = queue_->stats;
  }
  const auto c = cache_.stats();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  s.cache_evictions = c.evictions;
  s.cache_plan_hits = c.plan_hits;
  s.cache_warm_hits = c.warm_hits;
  s.cache_not_admitted = c.not_admitted;
  s.planning_passes = c.planning_passes;
  s.cache_promotions = c.promotions;
  s.cache_rebin_promotions = c.rebin_promotions;
  return s;
}

template class SpmvService<float>;
template class SpmvService<double>;

}  // namespace spmv::serve
