// Tests for the serving layer: fingerprints, the plan cache (hits, misses,
// admission and eviction, shared planning passes), batched execution and
// the SpmvService end to end. The many-client stress run lives in
// test_stress.cpp, under the fuzz label's per-seed passes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>

#include "adapt/plan_store.hpp"
#include "binning/binning.hpp"
#include "clsim/engine.hpp"
#include "core/plan_io.hpp"
#include "core/predictor.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "gen/generators.hpp"
#include "iter/session.hpp"
#include "kernels/reference.hpp"
#include "kernels/registry.hpp"
#include "prof/profile.hpp"
#include "serve/fingerprint.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"
#include "shard/sharded_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;
using namespace spmv::serve;

template <typename T>
std::vector<T> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

template <typename T>
void expect_matches_exact(const CsrMatrix<T>& a, std::span<const T> x,
                          std::span<const T> y, double tol) {
  const auto exact = kernels::spmv_exact(a, x);
  ASSERT_EQ(y.size(), exact.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i],
                tol * (std::abs(exact[i]) + 1.0))
        << "row " << i;
  }
}

/// Predictor wrapper that counts prediction passes — used to prove that
/// concurrent cache misses on one fingerprint share a single planning pass.
class CountingPredictor : public core::Predictor {
 public:
  explicit CountingPredictor(const core::Predictor& inner) : inner_(inner) {}

  [[nodiscard]] UnitChoice predict_unit(const RowStats& stats) const override {
    unit_calls.fetch_add(1, std::memory_order_relaxed);
    return inner_.predict_unit(stats);
  }
  [[nodiscard]] kernels::KernelId predict_kernel(const RowStats& stats,
                                                 index_t unit,
                                                 int bin_id) const override {
    return inner_.predict_kernel(stats, unit, bin_id);
  }

  mutable std::atomic<int> unit_calls{0};

 private:
  const core::Predictor& inner_;
};

/// A plan's full serialized form, revision and provenance included: equal
/// text means equal plans.
std::string plan_text(const core::Plan& p) {
  return core::plan_to_json(p).dump();
}

// --- Fingerprints ---------------------------------------------------------

TEST(Fingerprint, EqualStructureEqualFingerprint) {
  const auto a = gen::power_law<float>(1200, 1200, 2.0, 150, 5);
  auto b = a;  // identical structure, then change values only
  for (auto& v : b.vals_mutable()) v *= 2.0f;
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(b));
  EXPECT_EQ(FingerprintHash{}(fingerprint_of(a)),
            FingerprintHash{}(fingerprint_of(b)));
}

TEST(Fingerprint, DistinguishesStructures) {
  const auto a = gen::diagonal<float>(1000);
  const auto b = gen::diagonal<float>(1001);             // dims differ
  const auto c = gen::fixed_degree<float>(1000, 1000, 3, 9);  // nnz differs
  EXPECT_FALSE(fingerprint_of(a) == fingerprint_of(b));
  EXPECT_FALSE(fingerprint_of(a) == fingerprint_of(c));
}

TEST(Fingerprint, RowHashSeesRowLengthRedistribution) {
  // Same dims and nnz, different row-length layout: only row_hash differs.
  std::vector<offset_t> even{0, 2, 4, 6, 8};
  std::vector<offset_t> skew{0, 5, 6, 7, 8};
  const auto fe = fingerprint_csr(4, 8, 8, even);
  const auto fs = fingerprint_csr(4, 8, 8, skew);
  EXPECT_EQ(fe.rows, fs.rows);
  EXPECT_EQ(fe.nnz, fs.nnz);
  EXPECT_NE(fe.row_hash, fs.row_hash);
}

TEST(Fingerprint, LargeMatrixSamplingIsDeterministic) {
  const auto a = gen::fixed_degree<float>(50000, 1000, 2, 3);
  ASSERT_GT(a.row_ptr().size(), kMaxHashedEntries);
  EXPECT_EQ(fingerprint_of(a), fingerprint_of(a));
}

// --- PlanCache ------------------------------------------------------------

TEST(PlanCache, HitMissEvictCounters) {
  core::HeuristicPredictor pred;
  PlanCache<float> cache(pred, 2);

  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::diagonal<float>(500));
  auto b = std::make_shared<const CsrMatrix<float>>(
      gen::fixed_degree<float>(400, 400, 3, 6));
  auto c = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(600, 600, 2.0, 100, 7));

  EXPECT_NE(cache.get(a), nullptr);  // miss
  EXPECT_NE(cache.get(a), nullptr);  // hit: a used twice
  EXPECT_NE(cache.get(b), nullptr);  // miss (cache now full)
  EXPECT_NE(cache.get(c), nullptr);  // miss, not admitted: LRU a used more
  EXPECT_NE(cache.get(b), nullptr);  // hit: b was not evicted
  EXPECT_NE(cache.get(a), nullptr);  // hit: neither was a

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.not_admitted, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, OneShotScanDoesNotEvictHotRuntimes) {
  core::HeuristicPredictor heuristic;
  CountingPredictor pred(heuristic);
  PlanCache<float> cache(pred, 2);
  auto hot_a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(400, 3, 0.7, 41));
  auto hot_b = std::make_shared<const CsrMatrix<float>>(
      gen::fixed_degree<float>(300, 300, 4, 43));
  const auto a0 = cache.get(hot_a);
  const auto b0 = cache.get(hot_b);
  (void)cache.get(hot_a);
  (void)cache.get(hot_b);

  // A scan of structures seen once each: every one is served, planned
  // once, and refused a runtime slot.
  constexpr int kScan = 10;
  for (int i = 0; i < kScan; ++i) {
    const auto one_shot = std::make_shared<const CsrMatrix<float>>(
        gen::diagonal<float>(static_cast<index_t>(50 + i)));
    const auto entry = cache.get(one_shot);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->matrix, one_shot);
  }

  EXPECT_EQ(cache.get(hot_a), a0);
  EXPECT_EQ(cache.get(hot_b), b0);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.not_admitted, static_cast<std::uint64_t>(kScan));
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(2 + kScan));
  EXPECT_EQ(s.planning_passes, static_cast<std::uint64_t>(2 + kScan));
  EXPECT_EQ(pred.unit_calls.load(), 2 + kScan);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, CountsAgeSoAPopularityShiftIsAdmitted) {
  // Capacity 1 ages counts every kPlansPerRuntime gets. `old` was hot
  // long ago (far more uses than one aging period), then `fresh` turns
  // hot: halving lets it in within one period.
  core::HeuristicPredictor pred;
  PlanCache<float> cache(pred, 1);
  auto old = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(300, 2, 0.8, 47));
  auto fresh = std::make_shared<const CsrMatrix<float>>(
      gen::fixed_degree<float>(250, 250, 3, 49));
  const auto period = static_cast<int>(kPlansPerRuntime);
  for (int i = 0; i < 4 * period; ++i) (void)cache.get(old);
  ASSERT_EQ(cache.stats().evictions, 0u);

  int gets = 0;
  while (cache.stats().evictions == 0 && gets < 2 * period) {
    (void)cache.get(fresh);
    ++gets;
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(gets, period);
  EXPECT_EQ(cache.stats().not_admitted, static_cast<std::uint64_t>(gets - 1));
  const auto entry = cache.get(fresh);
  EXPECT_EQ(entry->matrix, fresh);
  EXPECT_EQ(cache.get(fresh), entry);  // cached now
}

TEST(PlanCache, SameStructureSharesOneEntry) {
  core::HeuristicPredictor pred;
  PlanCache<float> cache(pred, 4);
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(800, 3, 0.8, 11));
  auto b = std::make_shared<const CsrMatrix<float>>(*a);  // distinct object
  const auto ea = cache.get(a);
  const auto eb = cache.get(b);
  EXPECT_EQ(ea, eb);  // one entry serves both
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, ConcurrentMissesShareOnePlanningPass) {
  core::HeuristicPredictor heuristic;
  CountingPredictor pred(heuristic);
  PlanCache<double> cache(pred, 4);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(3000, 3000, 2.0, 300, 13));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const PlanCache<double>::Entry>> got(kThreads);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[static_cast<std::size_t>(i)] = cache.get(a); });
  for (auto& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], got[0]);
  // The whole stampede planned exactly once.
  EXPECT_EQ(pred.unit_calls.load(), 1);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(PlanCache, EvictedStructuresRebuildFromKeptPlans) {
  core::HeuristicPredictor heuristic;
  CountingPredictor pred(heuristic);
  PlanCache<float> cache(pred, 2);
  const std::vector<std::shared_ptr<const CsrMatrix<float>>> mats = {
      std::make_shared<const CsrMatrix<float>>(gen::diagonal<float>(500)),
      std::make_shared<const CsrMatrix<float>>(
          gen::fixed_degree<float>(400, 400, 3, 6)),
      std::make_shared<const CsrMatrix<float>>(
          gen::power_law<float>(600, 600, 2.0, 100, 7))};

  // a,b,c,a,b,c at capacity 2: every get misses and evicts, but only the
  // first pass over the structures plans.
  std::vector<std::string> planned;
  for (const auto& m : mats)
    planned.push_back(plan_text(cache.get(m)->runtime.plan()));
  for (std::size_t i = 0; i < mats.size(); ++i)
    EXPECT_EQ(plan_text(cache.get(mats[i])->runtime.plan()), planned[i])
        << "structure " << i;

  EXPECT_EQ(pred.unit_calls.load(), 3);
  const auto s = cache.stats();
  // The runtime tier counts exactly as it did before plans were kept.
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.evictions, 4u);
  EXPECT_EQ(s.planning_passes, 3u);
  EXPECT_EQ(s.plan_hits, 3u);
  EXPECT_EQ(s.warm_hits, 0u);
}

TEST(PlanCache, KeptPlansHoldNoMatrix) {
  core::HeuristicPredictor pred;
  PlanCache<float> cache(pred, 1);
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(700, 4, 0.7, 19));
  const auto same_structure = std::make_shared<const CsrMatrix<float>>(*a);
  const std::weak_ptr<const CsrMatrix<float>> weak = a;
  (void)cache.get(a);
  (void)cache.get(std::make_shared<const CsrMatrix<float>>(
      gen::diagonal<float>(300)));  // evicts a's runtime, keeps its plan
  a.reset();
  EXPECT_TRUE(weak.expired());

  // The kept plan still rebuilds the structure, against the new matrix.
  const auto entry = cache.get(same_structure);
  EXPECT_EQ(entry->matrix, same_structure);
  EXPECT_EQ(cache.stats().plan_hits, 1u);
  EXPECT_EQ(cache.stats().planning_passes, 2u);
}

TEST(PlanCache, PlanTierEvictsLeastRecentlyUsedPastItsBound) {
  core::HeuristicPredictor heuristic;
  CountingPredictor pred(heuristic);
  PlanCache<float> cache(pred, 1);
  // Capacity 1 keeps kPlansPerRuntime plans; one structure more drops the
  // least recently used.
  const int n = static_cast<int>(kPlansPerRuntime) + 1;
  std::vector<std::shared_ptr<const CsrMatrix<float>>> mats;
  for (int i = 0; i < n; ++i)
    mats.push_back(std::make_shared<const CsrMatrix<float>>(
        gen::diagonal<float>(static_cast<index_t>(10 + i))));
  for (const auto& m : mats) (void)cache.get(m);
  EXPECT_EQ(pred.unit_calls.load(), n);

  (void)cache.get(mats[1]);  // still kept
  EXPECT_EQ(pred.unit_calls.load(), n);
  EXPECT_EQ(cache.stats().plan_hits, 1u);
  (void)cache.get(mats[0]);  // dropped past the bound: plans again
  EXPECT_EQ(pred.unit_calls.load(), n + 1);
  EXPECT_EQ(cache.stats().planning_passes, static_cast<std::uint64_t>(n + 1));
}

TEST(PlanCache, MemoizedFingerprintMatchesFingerprintOf) {
  core::HeuristicPredictor pred;
  PlanCache<float> cache(pred, 2);
  const auto a = gen::power_law<float>(1200, 1200, 2.0, 150, 5);
  const auto large = gen::fixed_degree<float>(50000, 1000, 2, 3);
  ASSERT_GT(large.row_ptr().size(), kMaxHashedEntries);
  for (int pass = 0; pass < 2; ++pass) {  // the second pass reads the memo
    EXPECT_EQ(cache.fingerprint(a), fingerprint_of(a));
    EXPECT_EQ(cache.fingerprint(large), fingerprint_of(large));
  }

  const auto copy = a;  // shares the structure block
  ASSERT_EQ(copy.structure_id(), a.structure_id());
  EXPECT_EQ(cache.fingerprint(copy), fingerprint_of(copy));

  auto updated = a;
  updated.update_values(
      std::vector<float>(static_cast<std::size_t>(a.nnz()), 2.0f));
  ASSERT_EQ(updated.structure_id(), a.structure_id());
  EXPECT_EQ(cache.fingerprint(updated), fingerprint_of(updated));
  EXPECT_FALSE(cache.fingerprint(updated) == cache.fingerprint(large));

  // get() keys its entries by the memoized fingerprint.
  const auto shared = std::make_shared<const CsrMatrix<float>>(updated);
  EXPECT_EQ(cache.get(shared)->key, fingerprint_of(a));
}

TEST(PlanCache, ZeroCapacityThrows) {
  core::HeuristicPredictor pred;
  EXPECT_THROW(PlanCache<float>(pred, 0), std::invalid_argument);
}

// --- Multi-vector execution (SpMM) ---------------------------------------

/// Y = A·X through run_spmm on every backend: each column must equal a
/// run() of that column through the same runtime bit for bit, and match
/// the exact product within `tol`.
template <typename T>
void expect_spmm_matches_runs(const CsrMatrix<T>& a, const core::Plan& plan,
                              int width, double tol) {
  const auto n = static_cast<std::size_t>(a.cols());
  const auto m = static_cast<std::size_t>(a.rows());
  const auto xs = random_vector<T>(n * static_cast<std::size_t>(width), 29);
  for (const auto kind : exec::all_backends()) {
    const auto spmv = core::Tuner(a).plan(plan).backend(kind).build();
    std::vector<T> ys(m * static_cast<std::size_t>(width));
    spmv.run_spmm(xs, std::span<T>(ys), width);
    for (int b = 0; b < width; ++b) {
      const auto off = static_cast<std::size_t>(b);
      const auto x = std::span<const T>(xs).subspan(off * n, n);
      std::vector<T> y(m);
      spmv.run(x, std::span<T>(y));
      ASSERT_EQ(std::memcmp(ys.data() + off * m, y.data(), m * sizeof(T)), 0)
          << exec::backend_name(kind) << " column " << b << " of " << width
          << " not bit-identical to run()";
      expect_matches_exact<T>(a, x, std::span<const T>(y), tol);
    }
  }
}

/// A plan running kernel `id` in every occupied bin at granularity `unit`.
template <typename T>
core::Plan forced_plan(const CsrMatrix<T>& a, index_t unit,
                       kernels::KernelId id) {
  core::Plan plan;
  plan.unit = unit;
  const auto bins = binning::bin_matrix(a, unit);
  for (int b : bins.occupied_bins()) plan.bin_kernels.push_back({b, id});
  return plan;
}

TEST(BatchedRun, NativeSerialBatchMatchesReference) {
  const auto a = gen::power_law<double>(1500, 1500, 2.0, 200, 17);
  core::HeuristicPredictor pred;
  const auto plan = core::Tuner(a).predictor(pred).build().plan();
  expect_spmm_matches_runs<double>(a, plan, 4, 1e-9);
  expect_spmm_matches_runs<double>(
      a, forced_plan(a, 16, kernels::KernelId::Serial), 4, 1e-9);
}

TEST(BatchedRun, NativeSubvectorBatchMatchesReference) {
  // Subvector plans across widths, at a width beyond one clsim batched
  // launch (the double/Sub2 per-launch limit is below 15).
  const auto a = gen::fem_blocks<double>(120, 16, 90, 0.4, 23);
  for (const auto id : {kernels::KernelId::Sub2, kernels::KernelId::Sub16,
                        kernels::KernelId::Sub128})
    expect_spmm_matches_runs<double>(a, forced_plan(a, 16, id), 15, 1e-9);
}

TEST(BatchedRun, FallbackKernelsMatchReference) {
  // Vector has no clsim batched variant: clsim runs it per column, native
  // reuses the single-vector reduction per column. Both stay bit-identical.
  const auto a = gen::fem_blocks<float>(120, 16, 90, 0.4, 23);
  expect_spmm_matches_runs<float>(
      a, forced_plan(a, 16, kernels::KernelId::Vector), 3, 2e-4);
}

TEST(BatchedRun, BadExtentsThrow) {
  const auto a = gen::diagonal<float>(100);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a).predictor(pred).build();
  std::vector<float> xs(200), ys(100);  // ys too small for width 2
  EXPECT_THROW(spmv.run_spmm(std::span<const float>(xs),
                             std::span<float>(ys), 2),
               std::invalid_argument);
  EXPECT_THROW(spmv.run_spmm(std::span<const float>(xs),
                             std::span<float>(ys), 0),
               std::invalid_argument);
}

// --- Plan normalization (external plans may arrive unsorted) --------------

TEST(Plan, NormalizeRestoresBinarySearchInvariant) {
  core::Plan plan;
  plan.bin_kernels = {{7, kernels::KernelId::Vector},
                      {0, kernels::KernelId::Serial},
                      {3, kernels::KernelId::Sub8}};
  plan.normalize();
  EXPECT_EQ(plan.bin_kernels.front().bin_id, 0);
  EXPECT_EQ(plan.bin_kernels.back().bin_id, 7);
  EXPECT_EQ(plan.kernel_for(3), kernels::KernelId::Sub8);
  EXPECT_THROW(static_cast<void>(plan.kernel_for(5)), std::out_of_range);
}

// --- SpmvService ----------------------------------------------------------

TEST(SpmvService, SingleRequestIsExact) {
  core::HeuristicPredictor pred;
  SpmvService<double> service(pred);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::mixed_regime<double>(1000, 1000, 0.4, 0.4, 2, 30, 300, 16, 31));
  const auto x = random_vector<double>(static_cast<std::size_t>(a->cols()), 37);
  const auto y = service.run(a, x);
  expect_matches_exact<double>(*a, x, y, 1e-9);
  const auto s = service.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
}

/// The execution ledger splits off lazy layout builds: requests before the
/// amortization threshold build nothing, and the batch that materializes
/// the layouts books their build time inside its execution time.
TEST(SpmvService, LayoutBuildTimeIsBookedInsideExecution) {
  core::HeuristicPredictor pred;
  prof::RunProfile profile;
  ServiceOptions opts;
  opts.workers = 1;
  opts.format = fmt::FormatMode::Auto;
  opts.profile = &profile;
  SpmvService<float> service(pred, opts);
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(4000, 6, 0.7, 41));
  const auto x = random_vector<float>(static_cast<std::size_t>(a->cols()), 43);
  (void)service.run(a, x);
  EXPECT_EQ(service.stats().layout_build_s, 0.0);
  for (int i = 0; i < 4; ++i) (void)service.run(a, x);
  const auto entry = service.cache().get(a);
  ASSERT_TRUE(entry->runtime.plan().uses_formats())
      << entry->runtime.plan().to_string();
  const auto s = service.stats();
  EXPECT_GT(s.layout_build_s, 0.0);
  EXPECT_LE(s.layout_build_s, s.exec_total_s);
  service.shutdown();
  EXPECT_DOUBLE_EQ(profile.serve.layout_build_s, s.layout_build_s);
  EXPECT_GE(profile.threads_active_max, 1);
}

TEST(SpmvService, BatchesCoalesceAndStayExact) {
  core::HeuristicPredictor pred;
  ServiceOptions opts;
  opts.workers = 1;  // one drainer => queued requests must coalesce
  opts.max_batch = 8;
  prof::RunProfile profile;
  opts.profile = &profile;
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(2000, 2000, 2.0, 250, 41));
  const auto n = static_cast<std::size_t>(a->cols());

  std::vector<std::vector<float>> xs;
  std::vector<std::future<std::vector<float>>> futs;
  {
    SpmvService<float> service(pred, opts);
    // Prime the cache so the worker isn't stuck planning while we enqueue.
    (void)service.run(a, random_vector<float>(n, 1));
    constexpr int kRequests = 24;
    for (int i = 0; i < kRequests; ++i)
      xs.push_back(random_vector<float>(n, 100 + static_cast<std::uint64_t>(i)));
    for (int i = 0; i < kRequests; ++i)
      futs.push_back(service.submit(a, xs[static_cast<std::size_t>(i)]));
    for (int i = 0; i < kRequests; ++i) {
      const auto y = futs[static_cast<std::size_t>(i)].get();
      expect_matches_exact<float>(*a, xs[static_cast<std::size_t>(i)], y,
                                  2e-4);
    }
  }  // destructor drains + flushes stats into `profile`

  EXPECT_EQ(profile.serve.requests, 25u);
  EXPECT_GE(profile.serve.batches, 1u);
  // With one worker and a full queue, at least one multi-vector batch
  // must have formed (25 requests in fewer than 25 batches).
  EXPECT_LT(profile.serve.batches, 25u);
  EXPECT_GE(profile.serve.batch_width_hist.size(), 2u);
  // One lookup per batch: everything after the priming miss is a hit.
  EXPECT_EQ(profile.serve.cache_misses, 1u);
  EXPECT_GT(profile.serve.cache_hit_rate(), 0.5);

  // The serve section survives a JSON round trip.
  const auto parsed =
      prof::RunProfile::from_json(prof::Json::parse(profile.to_json_text()));
  EXPECT_EQ(parsed.serve.requests, profile.serve.requests);
  EXPECT_EQ(parsed.serve.batches, profile.serve.batches);
  EXPECT_EQ(parsed.serve.batch_width_hist, profile.serve.batch_width_hist);
}

/// Predictor for the coalescing test: unit 16 with Sub2 in every bin, and
/// the first planning pass parks until the test opens the gate, which
/// holds the single worker on a request while others queue behind it.
class GatedSub2Predictor final : public core::Predictor {
 public:
  [[nodiscard]] UnitChoice predict_unit(const RowStats&) const override {
    if (!first_.exchange(false)) return {16, false};
    gate_.wait();
    return {16, false};
  }
  [[nodiscard]] kernels::KernelId predict_kernel(const RowStats&, index_t,
                                                 int) const override {
    return kernels::KernelId::Sub2;
  }
  void open() { open_.set_value(); }

 private:
  mutable std::atomic<bool> first_{true};
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
};

TEST(SpmvService, CoalescedResultsBitIdenticalToSingleRuns) {
  // One native worker, Sub2 CSR bins. An SpMM request on another matrix
  // holds the worker (its planning is gated) while four single-vector
  // requests for `a` queue up; they must then run as one width-4 batch
  // and each result must equal run() through the cached runtime bit for
  // bit — coalescing may not change what a request gets back.
  GatedSub2Predictor pred;
  ServiceOptions opts;
  opts.workers = 1;
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::fem_blocks<double>(120, 16, 90, 0.4, 23));
  auto blocker = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(2000, 8, 0.7, 5));
  const auto n = static_cast<std::size_t>(a->cols());
  constexpr int kBlockerWidth = 2;
  constexpr int kRequests = 4;

  SpmvService<double> service(pred, opts);
  auto held = service.submit_spmm(
      blocker,
      random_vector<double>(
          static_cast<std::size_t>(blocker->cols()) * kBlockerWidth, 3),
      kBlockerWidth);
  std::vector<std::vector<double>> xs;
  std::vector<std::future<std::vector<double>>> futs;
  for (int i = 0; i < kRequests; ++i) {
    xs.push_back(random_vector<double>(n, 200 + static_cast<std::uint64_t>(i)));
    futs.push_back(service.submit(a, xs.back()));
  }
  pred.open();
  (void)held.get();
  std::vector<std::vector<double>> ys;
  for (auto& f : futs) ys.push_back(f.get());

  const auto hist = service.stats().batch_width_hist;
  ASSERT_GE(hist.size(), static_cast<std::size_t>(kRequests));
  std::uint64_t wide = 0;
  for (std::size_t w = kRequests - 1; w < hist.size(); ++w) wide += hist[w];
  EXPECT_GE(wide, 1u) << "the queued requests never coalesced";

  const auto entry = service.cache().get(a);
  for (int i = 0; i < kRequests; ++i) {
    const auto k = static_cast<std::size_t>(i);
    std::vector<double> y(static_cast<std::size_t>(a->rows()));
    entry->runtime.run(std::span<const double>(xs[k]), std::span<double>(y));
    ASSERT_EQ(ys[k].size(), y.size());
    EXPECT_EQ(std::memcmp(ys[k].data(), y.data(), y.size() * sizeof(double)),
              0)
        << "request " << i << " differs from a single run()";
  }
}

TEST(SpmvService, StructurallyEqualMatricesWithDifferentValuesStayExact) {
  // The cache key ignores values: the service must still compute with each
  // request's own values.
  core::HeuristicPredictor pred;
  SpmvService<double> service(pred);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(900, 4, 0.7, 43));
  auto scaled = *a;
  for (auto& v : scaled.vals_mutable()) v *= -3.0;
  auto b = std::make_shared<const CsrMatrix<double>>(std::move(scaled));

  const auto x = random_vector<double>(static_cast<std::size_t>(a->cols()), 47);
  expect_matches_exact<double>(*a, x, service.run(a, x), 1e-9);
  expect_matches_exact<double>(*b, x, service.run(b, x), 1e-9);
  const auto s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);  // one structure, one planning pass
  EXPECT_EQ(s.cache_hits, 1u);
}

TEST(SpmvService, WarmStartFromNativeBackendPlanExecutesExactly) {
  // A store written by a native-tuned process: the service warm-starts
  // from it, the rebuilt runtime carries the native backend, and results
  // stay exact.
  struct ScopedFile {
    explicit ScopedFile(std::string p) : path(std::move(p)) {
      std::remove(path.c_str());
    }
    ~ScopedFile() {
      std::remove(path.c_str());
      std::remove((path + ".tmp").c_str());
    }
    std::string path;
  } file("test_serve_native_store.json");

  core::HeuristicPredictor pred;
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::mixed_regime<double>(900, 900, 0.4, 0.4, 2, 30, 200, 16, 61));
  {
    adapt::PlanStore store(file.path);
    const auto tuned = core::Tuner(*a)
                           .predictor(pred)
                           .backend(exec::BackendKind::Native)
                           .build();
    adapt::StoredPlan sp;
    sp.plan = tuned.plan();
    store.put(fingerprint_of(*a), sp);
    store.flush();
  }

  adapt::PlanStore store(file.path);
  ServiceOptions opts;
  opts.plan_store = &store;
  SpmvService<double> service(pred, opts);
  const auto x =
      random_vector<double>(static_cast<std::size_t>(a->cols()), 63);
  const auto y = service.run(a, x);
  expect_matches_exact<double>(*a, x, y, 1e-9);
  const auto s = service.stats();
  EXPECT_GE(s.cache_warm_hits, 1u);
  EXPECT_EQ(s.planning_passes, 0u);
  const auto entry = service.cache().get(a);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->runtime.plan().backend, exec::BackendKind::Native);
}

TEST(SpmvService, PlanTierRebuildIsBitIdenticalToTheEvictedRuntime) {
  // Native backend with Auto formats (Ell and Dcsr bins), so the rebuilt
  // runtime also rebuilds its layouts: each of the first runs after the
  // rebuild must equal the matching run before the eviction bit for bit.
  // Under 32768 units of work, so runs stay inline (no OpenMP region for
  // tsan to trip on).
  core::HeuristicPredictor pred;
  ServiceOptions opts;
  opts.cache_capacity = 1;
  opts.workers = 1;
  opts.format = fmt::FormatMode::Auto;
  SpmvService<double> service(pred, opts);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::mixed_regime<double>(600, 600, 0.4, 0.4, 2, 30, 100, 16, 71));
  auto b = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(600, 4, 0.7, 73));
  const auto x = random_vector<double>(static_cast<std::size_t>(a->cols()), 75);
  const auto xb =
      random_vector<double>(static_cast<std::size_t>(b->cols()), 77);

  constexpr int kRuns = 5;  // past fmt's default min_reuse of 3
  std::vector<std::vector<double>> before;
  for (int r = 0; r < kRuns; ++r) before.push_back(service.run(a, x));
  const std::string planned = plan_text(service.cache().get(a)->runtime.plan());
  // b is admitted, evicting a's runtime, once it is used as often as a.
  int b_runs = 0;
  while (service.stats().cache_evictions == 0) {
    ASSERT_LT(b_runs, 4 * kRuns);
    (void)service.run(b, xb);
    ++b_runs;
  }
  for (int r = 0; r < kRuns; ++r) {
    const auto y = service.run(a, x);
    ASSERT_EQ(y.size(), before[static_cast<std::size_t>(r)].size());
    EXPECT_EQ(std::memcmp(y.data(), before[static_cast<std::size_t>(r)].data(),
                          y.size() * sizeof(double)),
              0)
        << "run " << r << " after the rebuild";
  }
  EXPECT_EQ(plan_text(service.cache().get(a)->runtime.plan()), planned);
  const auto s = service.stats();
  // Every run of b after its first, and a's one return, rebuilt from a
  // kept plan.
  EXPECT_EQ(s.cache_plan_hits, static_cast<std::uint64_t>(b_runs));
  EXPECT_EQ(s.planning_passes, 2u);
}

TEST(SpmvService, NotAdmittedMissIsBitIdenticalAndUncached) {
  // Native backend with Auto formats, under 32768 units of work (runs
  // stay inline). `hot` fills the one runtime slot; `a` misses and is
  // refused it until it has been used as often, and each refused run
  // must equal the admitted runtime's first run bit for bit.
  core::HeuristicPredictor pred;
  ServiceOptions opts;
  opts.cache_capacity = 1;
  opts.workers = 1;
  opts.format = fmt::FormatMode::Auto;
  SpmvService<double> service(pred, opts);
  auto hot = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(600, 4, 0.7, 79));
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::mixed_regime<double>(600, 600, 0.4, 0.4, 2, 30, 100, 16, 81));
  const auto xh =
      random_vector<double>(static_cast<std::size_t>(hot->cols()), 83);
  const auto x = random_vector<double>(static_cast<std::size_t>(a->cols()), 85);

  constexpr int kRuns = 5;  // past fmt's default min_reuse of 3
  for (int r = 0; r < kRuns; ++r) (void)service.run(hot, xh);
  const auto hot_entry = service.cache().get(hot);  // hot: 6 uses
  const auto refused = service.run(a, x);
  EXPECT_EQ(service.stats().cache_not_admitted, 1u);
  EXPECT_EQ(service.cache().size(), 1u);
  EXPECT_EQ(service.cache().get(hot), hot_entry);  // still cached

  // Run a until admitted: every refused run, and the first run of the
  // runtime that is then cached (layouts come only at min_reuse), gives
  // the same bits.
  int runs = 1;
  while (service.stats().cache_evictions == 0) {
    ASSERT_LT(runs, 4 * kRuns);
    const auto y = service.run(a, x);
    ASSERT_EQ(y.size(), refused.size());
    EXPECT_EQ(std::memcmp(y.data(), refused.data(), y.size() * sizeof(double)),
              0)
        << "run " << runs;
    ++runs;
  }
  const auto admitted = service.cache().get(a);
  ASSERT_EQ(admitted->matrix, a);
  EXPECT_TRUE(admitted->runtime.plan().uses_formats());
  for (int r = 0; r < kRuns; ++r)
    expect_matches_exact<double>(*a, x, service.run(a, x), 1e-9);
  EXPECT_EQ(service.cache().get(a), admitted);
  const auto s = service.stats();
  EXPECT_EQ(s.cache_not_admitted, static_cast<std::uint64_t>(runs - 1));
  EXPECT_EQ(s.cache_evictions, 1u);
  EXPECT_EQ(s.planning_passes, 2u);
  EXPECT_EQ(service.cache().size(), 1u);
}

TEST(SpmvService, BackpressureRejectsBeyondHighWater) {
  core::HeuristicPredictor pred;
  ServiceOptions opts;
  opts.queue_high_water = 0;  // every submission bounces
  SpmvService<float> service(pred, opts);
  auto a = std::make_shared<const CsrMatrix<float>>(gen::diagonal<float>(100));
  EXPECT_THROW(
      static_cast<void>(service.submit(a, std::vector<float>(100, 1.0f))),
      QueueFullError);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(SpmvService, SubmitValidation) {
  core::HeuristicPredictor pred;
  SpmvService<float> service(pred);
  auto a = std::make_shared<const CsrMatrix<float>>(gen::diagonal<float>(50));
  EXPECT_THROW(static_cast<void>(
                   service.submit(nullptr, std::vector<float>(50, 1.0f))),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(service.submit(a, std::vector<float>(49, 1.0f))),
      std::invalid_argument);
  service.shutdown();
  EXPECT_THROW(
      static_cast<void>(service.submit(a, std::vector<float>(50, 1.0f))),
      std::runtime_error);
}

// Serving runs native plans only: every serving surface that still takes a
// backend, and PlanStore::put, refuses any other kind with
// std::invalid_argument, instead of serving or storing it silently.
class RejectsClsim : public ::testing::TestWithParam<std::string> {};

TEST_P(RejectsClsim, Throws) {
  const core::HeuristicPredictor pred;
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(200, 3, 0.7, 5));
  constexpr exec::BackendKind kClsim = exec::BackendKind::Clsim;
  const std::string& surface = GetParam();
  if (surface == "SpmvService") {
    ServiceOptions opts;
    opts.backend = kClsim;
    EXPECT_THROW(SpmvService<float>(pred, opts), std::invalid_argument);
  } else if (surface == "ShardedService") {
    shard::ShardedOptions opts;
    opts.backend = kClsim;
    EXPECT_THROW(shard::ShardedService<float>(a, pred, opts),
                 std::invalid_argument);
  } else if (surface == "IterativeSession") {
    iter::SessionOptions opts;
    opts.backend = kClsim;
    EXPECT_THROW(iter::IterativeSession<float>(a, pred, opts),
                 std::invalid_argument);
  } else if (surface == "PlanCache") {
    EXPECT_THROW(PlanCache<float>(pred, clsim::default_engine(), 4, nullptr,
                                  kClsim, fmt::FormatMode::Csr),
                 std::invalid_argument);
    PlanCache<float> native(pred, clsim::default_engine(), 4, nullptr,
                            exec::BackendKind::Native, fmt::FormatMode::Csr);
    EXPECT_EQ(native.get(a)->runtime.plan().backend,
              exec::BackendKind::Native);
  } else if (surface == "PlanStorePut") {
    adapt::PlanStore store("rejects_clsim_store.tmp.json");  // never flushed
    adapt::StoredPlan sp;
    sp.plan.backend = kClsim;
    EXPECT_THROW(store.put(fingerprint_of(*a), sp), std::invalid_argument);
    EXPECT_FALSE(store.lookup(fingerprint_of(*a)).has_value());
  } else {
    ASSERT_EQ(surface, "PlanCachePromote");
    PlanCache<float> cache(pred, 4);
    core::Plan plan = cache.get(a)->runtime.plan();
    plan.revision += 1;
    plan.backend = kClsim;
    EXPECT_THROW((void)cache.promote(fingerprint_of(*a), plan),
                 std::invalid_argument);
    EXPECT_EQ(cache.stats().promotions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ServingSurfaces, RejectsClsim,
                         ::testing::Values("SpmvService", "ShardedService",
                                           "IterativeSession", "PlanCache",
                                           "PlanCachePromote", "PlanStorePut"),
                         [](const auto& info) { return info.param; });

}  // namespace
