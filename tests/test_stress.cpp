// Concurrency stress for the serving + adaptation stack, written to run
// under ThreadSanitizer (CI's tsan preset executes it via the fuzz label):
// client threads hammer one SpmvService while rigged measurement seams
// force the BanditTuner to keep promoting plans — including structurally
// different re-binned plans from U exploration — and the service restarts
// mid-test from its PlanStore. Invariants under load:
//   - every result equals the serial reference (no torn plans: a request
//     must never execute against a half-swapped plan/bins pair)
//   - the cached plan's revision is monotonically non-decreasing
//   - the restarted service warm-starts from the store (no planning pass)
//
// Seeding follows the suite protocol: SPMV_TEST_SEED overrides the base
// seed and failure messages carry it for replay.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "adapt/plan_store.hpp"
#include "core/exhaustive.hpp"
#include "core/predictor.hpp"
#include "gen/generators.hpp"
#include "iter/session.hpp"
#include "kernels/reference.hpp"
#include "prof/counters.hpp"
#include "serve/fingerprint.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"
#include "shard/sharded_service.hpp"
#include "sparse/convert.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace {

using namespace spmv;

std::uint64_t base_seed() {
  if (const char* s = std::getenv("SPMV_TEST_SEED"); s != nullptr && *s != '\0')
    return std::strtoull(s, nullptr, 10);
  return 0x57e55ULL;
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<float> random_x(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Rigged reward landscape: granularity 1000 and Sub16 dominate everything
/// else by 100x, so the bandit reliably promotes — a re-binned U switch
/// away from the predictor's unit plus per-bin kernel swaps on the rebuilt
/// plan — while the clients hammer the service. Pure functions:
/// deterministic and trivially thread-safe.
constexpr index_t kFavoredUnit = 1000;

double rigged_unit_gflops(index_t u) {
  return u == kFavoredUnit ? 100.0 : 1.0;
}

double rigged_kernel_gflops(kernels::KernelId k, int) {
  return k == kernels::KernelId::Sub16 ? 100.0 : 1.0;
}

void expect_result_exact(const std::vector<float>& y,
                         const std::vector<double>& exact,
                         const std::string& note) {
  ASSERT_EQ(y.size(), exact.size()) << note;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale = std::abs(exact[i]) + 1.0;
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i], 2e-4 * scale)
        << note << ", row " << i;
  }
}

TEST(StressServe, PromotionsUnderLoadNeverTearResults) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  ScopedFile f("stress_store.tmp.json");

  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(600, 600, 2.0, 80, base & 0xffff));
  const auto ad = convert_values<double>(*a);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 120;

  // Pre-compute every client's inputs and reference outputs so the hot
  // loop is pure submit/verify.
  std::vector<std::vector<std::vector<float>>> xs(kClients);
  std::vector<std::vector<std::vector<double>>> exacts(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      auto x = random_x(static_cast<std::size_t>(a->cols()),
                        util::SplitMix64(base + 1000 * c + r).next());
      const std::vector<double> xd(x.begin(), x.end());
      exacts[c].push_back(
          kernels::spmv_exact(ad, std::span<const double>(xd)));
      xs[c].push_back(std::move(x));
    }
  }

  adapt::AdaptOptions aopts;
  aopts.trial_fraction = 0.5;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.05;
  aopts.seed = base;
  aopts.measure_override = rigged_kernel_gflops;
  aopts.explore_units = true;
  aopts.unit_trial_fraction = 0.5;
  aopts.unit_min_samples = 2;
  aopts.unit_hysteresis = 1.05;
  aopts.unit_cooldown = 0;
  // Small pool: the favored unit is the predictor unit's direct grid
  // neighbor, so the hill-climbing challenger finds it within a few trials.
  aopts.unit_pool = {10, kFavoredUnit, 100000};
  aopts.measure_unit_override = rigged_unit_gflops;

  auto run_phase = [&](serve::SpmvService<float>& service, int half) {
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    // Monitor: the cached plan's revision must never go backwards, even
    // while promotions race the clients.
    std::thread monitor([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto entry = service.cache().get(a);
        const std::uint64_t rev = entry->runtime.plan().revision;
        if (rev < last) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        last = rev;
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> clients;
    const int lo = half * (kRequestsPerClient / 2);
    const int hi = lo + kRequestsPerClient / 2;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = lo; r < hi; ++r) {
          std::vector<float> y;
          try {
            y = service.run(a, xs[c][r]);
          } catch (const serve::QueueFullError&) {
            r -= 1;  // backpressure: retry the same request
            std::this_thread::yield();
            continue;
          }
          expect_result_exact(y, exacts[c][r],
                              "client " + std::to_string(c) + " request " +
                                  std::to_string(r) + note);
          if (::testing::Test::HasFatalFailure()) return;
        }
      });
    }
    for (auto& t : clients) t.join();
    stop.store(true, std::memory_order_relaxed);
    monitor.join();
    EXPECT_EQ(failures.load(), 0)
        << "plan revision went backwards under load" << note;
  };

  // Phase 1: cold start, promotions churning the whole time.
  const core::HeuristicPredictor predictor;
  prof::RunProfile profile1;
  std::uint64_t stored_revision = 0;
  {
    adapt::PlanStore store(f.path);
    serve::ServiceOptions opts;
    opts.workers = 3;
    opts.profile = &profile1;
    opts.plan_store = &store;
    opts.adapt = aopts;
    serve::SpmvService<float> service(predictor, opts);
    run_phase(service, 0);
    service.shutdown();
    const auto sp = store.lookup(serve::fingerprint_of(*a));
    ASSERT_TRUE(sp.has_value()) << note;
    stored_revision = sp->plan.revision;
    // The rigged landscape guarantees a structural U promotion: the store
    // must hold the re-binned plan with tuned-U provenance.
    EXPECT_EQ(sp->plan.unit, kFavoredUnit) << note;
    EXPECT_TRUE(sp->plan.unit_tuned) << note;
  }
  if (::testing::Test::HasFatalFailure()) return;
  std::printf("phase 1: %llu trials (%llu U), %llu promotions (%llu U)\n",
              static_cast<unsigned long long>(profile1.adapt.trials),
              static_cast<unsigned long long>(profile1.adapt.u_trials),
              static_cast<unsigned long long>(profile1.adapt.promotions),
              static_cast<unsigned long long>(profile1.adapt.u_promotions));
  EXPECT_GT(profile1.adapt.promotions, 0u)
      << "rigged rewards should force kernel promotions" << note;
  EXPECT_GT(profile1.adapt.u_promotions, 0u)
      << "rigged rewards should force a U promotion" << note;
  EXPECT_GT(profile1.serve.cache_rebin_promotions, 0u)
      << "the U promotion must reach the cache as a re-binned swap" << note;

  // Phase 2: restart mid-test from the store — warm start, then keep
  // promoting on top of the persisted revision.
  prof::RunProfile profile2;
  {
    adapt::PlanStore store(f.path);
    serve::ServiceOptions opts;
    opts.workers = 3;
    opts.profile = &profile2;
    opts.plan_store = &store;
    opts.adapt = aopts;
    serve::SpmvService<float> service(predictor, opts);
    run_phase(service, 1);
    service.shutdown();
    const auto sp = store.lookup(serve::fingerprint_of(*a));
    ASSERT_TRUE(sp.has_value()) << note;
    // Revisions stay monotonic across the restart too: the store's final
    // plan can only have moved forward from what phase 1 persisted.
    EXPECT_GE(sp->plan.revision, stored_revision) << note;
  }
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(profile2.serve.planning_passes, 0u)
      << "restart must warm-start from the plan store" << note;
  EXPECT_GT(profile2.serve.cache_warm_hits, 0u) << note;
}

// Sharded serving under the same rigged promotion landscape: multi-tenant
// clients hammer a ShardedService while every shard's bandit keeps
// promoting (kernel swaps AND structural U rebins rebuilt per shard), and
// the service restarts mid-test from its PlanStore. Invariants under load:
//   - every scatter-gathered result equals the serial reference (a request
//     must never see a half-swapped per-shard runtime)
//   - promoted plans keep their shard provenance stamps
//   - the restarted service warm-starts every shard (no planning pass)
// This is the tsan target for the concurrent multi-tenant submission path.
TEST(StressShard, MultiTenantSubmissionDuringPerShardPromotions) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  ScopedFile f("stress_shard_store.tmp.json");

  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::mixed_regime<float>(900, 900, 0.6, 0.32, 4, 24, 48, 32,
                               base & 0xffff));
  const auto ad = convert_values<double>(*a);
  constexpr int kShards = 3;
  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 60;
  const std::vector<shard::TenantSpec> tenants = {
      {"t0", 3.0}, {"t1", 1.0}, {"t2", 1.0}};

  std::vector<std::vector<std::vector<float>>> xs(kClients);
  std::vector<std::vector<std::vector<double>>> exacts(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      auto x = random_x(static_cast<std::size_t>(a->cols()),
                        util::SplitMix64(base + 5000 * c + r).next());
      const std::vector<double> xd(x.begin(), x.end());
      exacts[c].push_back(
          kernels::spmv_exact(ad, std::span<const double>(xd)));
      xs[c].push_back(std::move(x));
    }
  }

  adapt::AdaptOptions aopts;
  aopts.trial_fraction = 0.5;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.05;
  aopts.seed = base;
  aopts.measure_override = rigged_kernel_gflops;
  aopts.explore_units = true;
  aopts.unit_trial_fraction = 0.5;
  aopts.unit_min_samples = 2;
  aopts.unit_hysteresis = 1.05;
  aopts.unit_cooldown = 0;
  aopts.unit_pool = {10, kFavoredUnit, 100000};
  aopts.measure_unit_override = rigged_unit_gflops;

  auto run_phase = [&](shard::ShardedService<float>& service, int half) {
    std::vector<std::thread> clients;
    const int lo = half * (kRequestsPerClient / 2);
    const int hi = lo + kRequestsPerClient / 2;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::string tenant = "t" + std::to_string(c % 3);
        for (int r = lo; r < hi; ++r) {
          std::vector<float> y;
          try {
            y = service.run(tenant, xs[c][r]);
          } catch (const serve::QueueFullError&) {
            r -= 1;  // backpressure: retry the same request
            std::this_thread::yield();
            continue;
          }
          expect_result_exact(y, exacts[c][r],
                              "client " + std::to_string(c) + " request " +
                                  std::to_string(r) + note);
          if (::testing::Test::HasFatalFailure()) return;
        }
      });
    }
    for (auto& t : clients) t.join();
  };

  const core::HeuristicPredictor predictor;
  prof::RunProfile profile1;
  std::uint64_t parent = 0;
  {
    adapt::PlanStore store(f.path);
    shard::ShardedOptions opts;
    opts.partition.shards = kShards;
    opts.tenants = tenants;
    opts.workers_per_shard = 1;
    opts.plan_store = &store;
    opts.profile = &profile1;
    opts.adapt = aopts;
    shard::ShardedService<float> service(a, predictor, opts);
    parent = service.shards().parent_hash;
    run_phase(service, 0);
    service.shutdown();
    // Promotions landed and kept their provenance, in the live service and
    // in the store.
    for (const auto& info : service.shard_infos()) {
      EXPECT_EQ(info.plan.shard_index, info.index) << note;
      EXPECT_EQ(info.plan.shard_count, kShards) << note;
      EXPECT_EQ(info.plan.shard_parent, parent) << note;
    }
    for (const auto& fp : service.shards().fingerprints) {
      const auto sp = store.lookup(fp);
      ASSERT_TRUE(sp.has_value()) << note;
      EXPECT_EQ(sp->plan.shard_parent, parent) << note;
    }
  }
  if (::testing::Test::HasFatalFailure()) return;
  std::printf("sharded phase 1: %llu trials, %llu promotions\n",
              static_cast<unsigned long long>(profile1.adapt.trials),
              static_cast<unsigned long long>(profile1.adapt.promotions));
  EXPECT_GT(profile1.adapt.promotions, 0u)
      << "rigged rewards should force per-shard promotions" << note;

  prof::RunProfile profile2;
  {
    adapt::PlanStore store(f.path);
    shard::ShardedOptions opts;
    opts.partition.shards = kShards;
    opts.tenants = tenants;
    opts.workers_per_shard = 1;
    opts.plan_store = &store;
    opts.profile = &profile2;
    opts.adapt = aopts;
    shard::ShardedService<float> service(a, predictor, opts);
    run_phase(service, 1);
    service.shutdown();
  }
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(profile2.serve.planning_passes, 0u)
      << "restart must warm-start every shard from the store" << note;
  EXPECT_EQ(profile2.serve.cache_warm_hits,
            static_cast<std::uint64_t>(kShards))
      << note;
}

/// Solver-loop stress (spmv::iter): one IterativeSession with latency-
/// feedback tuning enabled, hammered concurrently by a step() power-
/// iteration thread, run() client threads, and an update_values() mutator
/// cycling between two value sets. Invariants under tsan and load:
///   - every run() result equals the reference for ONE of the two value
///     sets (each execution sees a consistent snapshot — never torn values
///     mid-swap)
///   - the step() feedback loop never yields a non-finite entry
///   - latency promotions racing the mutator never run a shadow launch
///     (adapt.trials stays 0) and never re-plan (planning_passes == 1)
///   - a restarted session over the flushed store warm-starts: zero
///     planning passes
TEST(StressIter, ConcurrentStepsRunsAndValueMutations) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  ScopedFile f("stress_iter_store.tmp.json");

  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(400, 400, 2.0, 60, base & 0xffff));
  const auto n = static_cast<std::size_t>(a->cols());

  // Two value sets the mutator flips between; references for both.
  std::vector<float> vals_b(a->vals().begin(), a->vals().end());
  for (auto& v : vals_b) v *= 2.0f;
  auto a_b = std::make_shared<CsrMatrix<float>>(*a);
  a_b->update_values(std::span<const float>(vals_b));
  const auto ad_a = convert_values<double>(*a);
  const auto ad_b = convert_values<double>(*a_b);

  const auto x = random_x(n, base ^ 0x17E4ULL);
  const std::vector<double> xd(x.begin(), x.end());
  const auto exact_a = kernels::spmv_exact(ad_a, std::span<const double>(xd));
  const auto exact_b = kernels::spmv_exact(ad_b, std::span<const double>(xd));

  const core::HeuristicPredictor pred;
  adapt::AdaptOptions aopts;
  aopts.min_samples = 2;
  aopts.hysteresis = 1.02;
  aopts.hot_bins = 4;
  aopts.seed = base;

  {
    adapt::PlanStore store(f.path);
    iter::SessionOptions opts;
    opts.plan_store = &store;
    opts.adapt = aopts;
    iter::IterativeSession<float> session(a, pred, opts);

    constexpr int kSteps = 150;
    constexpr int kRunsPerClient = 150;
    constexpr int kMutations = 200;
    std::atomic<int> failures{0};

    // Power-iteration thread: the feedback loop must stay finite while
    // values and plans swap underneath it.
    std::thread stepper([&] {
      std::vector<float> x0(n, 1.0f);
      session.seed(std::span<const float>(x0));
      for (int i = 0; i < kSteps; ++i) {
        const auto it = session.step();
        float norm = 0.0f;
        for (const float v : it) norm = std::max(norm, std::abs(v));
        if (!std::isfinite(norm) || norm == 0.0f) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const auto mut = session.iterate();
        for (auto& v : mut) v /= norm;
      }
    });

    // Client threads: every result must match one of the two value sets
    // exactly (snapshot consistency — a torn matrix would match neither).
    auto client = [&] {
      std::vector<float> y(static_cast<std::size_t>(a->rows()));
      for (int i = 0; i < kRunsPerClient; ++i) {
        session.run(std::span<const float>(x), std::span<float>(y));
        bool match_a = true;
        bool match_b = true;
        for (std::size_t r = 0; r < y.size(); ++r) {
          const double v = static_cast<double>(y[r]);
          if (std::abs(v - exact_a[r]) > 2e-4 * (std::abs(exact_a[r]) + 1.0))
            match_a = false;
          if (std::abs(v - exact_b[r]) > 2e-4 * (std::abs(exact_b[r]) + 1.0))
            match_b = false;
          if (!match_a && !match_b) break;
        }
        if (!match_a && !match_b) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    };
    std::thread c1(client), c2(client);

    // Mutator: flip the whole value set back and forth while everything
    // else runs.
    std::thread mutator([&] {
      for (int i = 0; i < kMutations; ++i) {
        session.update_values(
            i % 2 == 0 ? std::span<const float>(vals_b)
                       : std::span<const float>(a->vals()));
      }
    });

    stepper.join();
    c1.join();
    c2.join();
    mutator.join();
    EXPECT_EQ(failures.load(), 0) << note;

    const auto st = session.stats();
    EXPECT_EQ(st.planning_passes, 1u)
        << "value mutations must never re-plan" << note;
    EXPECT_EQ(st.structure_rebinds, 0u) << note;
    EXPECT_EQ(st.value_updates, static_cast<std::uint64_t>(kMutations))
        << note;
    EXPECT_EQ(st.iterations,
              static_cast<std::uint64_t>(kSteps + 2 * kRunsPerClient))
        << note;
    EXPECT_EQ(session.adapt_stats().trials, 0u)
        << "latency path must never shadow-launch" << note;
    session.flush();
  }

  // Restarted session over the flushed store: warm start, no predictor.
  {
    adapt::PlanStore store(f.path);
    iter::SessionOptions opts;
    opts.plan_store = &store;
    iter::IterativeSession<float> warmed(a, pred, opts);
    EXPECT_EQ(warmed.stats().planning_passes, 0u)
        << "restart must warm-start from the store" << note;
    EXPECT_EQ(warmed.stats().warm_starts, 1u) << note;
    std::vector<float> y(static_cast<std::size_t>(a->rows()));
    warmed.run(std::span<const float>(x), std::span<float>(y));
    expect_result_exact(y, exact_a, "warm-started run" + note);
  }
}

/// Value-buffer recycling under load: a retired state's value arrays are
/// reused by a later update_values, so a recycled array must never be
/// written while a launch still reads it. Client threads run() back to
/// back — each launch holding the snapshot it started on — while a mutator
/// cycles update_values through three value sets. Every product must equal,
/// bit for bit, the product of a fresh session under one of the three
/// sets: a torn or overwritten buffer would match none of them.
TEST(StressIter, RecycledValueBuffersNeverTearInFlightRuns) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  // Banded rows give Dcsr layouts. Kept small: under tsan every access
  // from an OpenMP worker goes through the suppression matcher.
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(1500, 6, 0.7, base & 0xffff));
  const auto x = random_x(static_cast<std::size_t>(a->cols()), base ^ 0x5E7ULL);

  const core::HeuristicPredictor pred;
  iter::SessionOptions opts;
  opts.format = fmt::FormatMode::Auto;

  constexpr int kSets = 3;
  std::vector<std::vector<float>> sets;
  std::vector<std::vector<float>> expected;
  for (int k = 0; k < kSets; ++k) {
    std::vector<float> v(a->vals().begin(), a->vals().end());
    for (auto& e : v) e *= static_cast<float>(k + 1);
    const auto m = std::make_shared<const CsrMatrix<float>>(
        a->with_values(std::span<const float>(v)));
    iter::IterativeSession<float> fresh(m, pred, opts);
    std::vector<float> y(static_cast<std::size_t>(a->rows()));
    fresh.run(std::span<const float>(x), std::span<float>(y));
    sets.push_back(std::move(v));
    expected.push_back(std::move(y));
  }

  iter::IterativeSession<float> session(a, pred, opts);
  ASSERT_TRUE(session.plan().uses_formats()) << session.plan().to_string();
  constexpr int kUpdates = 150;  // 50 cycles of the three sets
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> runs{0};
  auto client = [&] {
    std::vector<float> y(static_cast<std::size_t>(a->rows()));
    while (!done.load(std::memory_order_acquire)) {
      session.run(std::span<const float>(x), std::span<float>(y));
      runs.fetch_add(1, std::memory_order_relaxed);
      bool any = false;
      for (const auto& e : expected) any = any || e == y;
      if (!any) torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread c1(client), c2(client), c3(client);
  for (int i = 0; i < kUpdates; ++i) {
    const int seen = runs.load(std::memory_order_relaxed);
    session.update_values(std::span<const float>(sets[(i + 1) % kSets]));
    // Pace the updates by completed launches, so every update overlaps
    // runs that started on an older snapshot.
    while (runs.load(std::memory_order_relaxed) == seen)
      std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  c1.join();
  c2.join();
  c3.join();

  EXPECT_EQ(torn.load(), 0) << "of " << runs.load() << " runs" << note;
  EXPECT_GT(runs.load(), 0) << note;
  const auto st = session.stats();
  EXPECT_EQ(st.value_updates, static_cast<std::uint64_t>(kUpdates)) << note;
  EXPECT_EQ(st.planning_passes, 1u) << note;
  EXPECT_GT(st.recycled_value_buffers, 0u) << note;
}

/// The thread budget under load: a two-worker SpmvService fed mixed SpMV
/// and SpMM by four submitting threads, beside an IterativeSession stepping
/// on its own thread with the whole machine. The workers' leases never
/// hold more than the machine together (a lone worker all of it, two busy
/// workers half each), so the threads inside native execution at once
/// never exceed that plus the session's share — the threads.active_max
/// gauge checks it. Results are checked too.
TEST(StressServe, ThreadBudgetHoldsBesideASession) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  const int hw = util::process_threads();
  constexpr int kWorkers = 2;
  constexpr int kSubmitters = 4;
  constexpr int kRequests = 16;  // per submitter
  constexpr int kWidth = 4;
  // Large enough that runs open four-thread regions (about 150k nonzeros
  // plus rows, above 4 x the executor's least work per thread), small
  // enough for tsan.
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(16000, 6, 0.7, base & 0xffff));
  const auto b = std::make_shared<const CsrMatrix<float>>(
      gen::banded<float>(14000, 8, 0.6, (base >> 16) & 0xffff));
  const core::HeuristicPredictor pred;

  prof::reset_threads_active_max();
  std::atomic<bool> done{false};
  std::atomic<int> session_steps{0};
  std::thread session_thread([&] {
    util::set_thread_budget(hw);
    iter::SessionOptions so;
    so.format = fmt::FormatMode::Auto;
    iter::IterativeSession<float> session(a, pred, so);
    session.seed(random_x(static_cast<std::size_t>(a->cols()), base + 1));
    while (!done.load(std::memory_order_acquire)) {
      (void)session.step();
      session_steps.fetch_add(1, std::memory_order_relaxed);
    }
  });

  serve::ServiceOptions opts;
  opts.workers = kWorkers;
  opts.format = fmt::FormatMode::Auto;
  std::atomic<int> wrong{0};
  {
    serve::SpmvService<float> svc(pred, opts);
    std::vector<std::thread> submitters;
    for (int c = 0; c < kSubmitters; ++c) {
      submitters.emplace_back([&, c] {
        for (int i = 0; i < kRequests; ++i) {
          const auto& m = (i + c) % 2 == 0 ? a : b;
          const int width = i % 4 == 3 ? kWidth : 1;
          const auto cols = static_cast<std::size_t>(m->cols());
          const auto rows = static_cast<std::size_t>(m->rows());
          const auto x =
              random_x(cols * static_cast<std::size_t>(width),
                       base + 100 * static_cast<std::uint64_t>(c) +
                           static_cast<std::uint64_t>(i));
          const auto y = width == 1 ? svc.run(m, x)
                                    : svc.run_spmm(m, x, width);
          for (int k = 0; k < width; ++k) {
            const auto ref = kernels::spmv_exact(
                *m, std::span<const float>(x).subspan(
                        static_cast<std::size_t>(k) * cols, cols));
            for (std::size_t r = 0; r < rows; ++r) {
              const double got = y[static_cast<std::size_t>(k) * rows + r];
              if (std::abs(got - ref[r]) > 1e-3 * (std::abs(ref[r]) + 1.0))
                wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& t : submitters) t.join();
  }
  done.store(true, std::memory_order_release);
  session_thread.join();

  const std::int64_t seen = prof::threads_active_max();
  const std::int64_t bound = 2 * static_cast<std::int64_t>(hw);
  EXPECT_EQ(wrong.load(), 0) << note;
  EXPECT_GT(session_steps.load(), 0) << note;
  EXPECT_GE(seen, 1) << note;
  EXPECT_LE(seen, bound) << "threads.active_max " << seen << " on " << hw
                         << " hardware threads" << note;
}

// N client threads x M matrices hammering the cache + executor at once;
// every result checked against the reference. Capacity below M keeps the
// admission and eviction paths hot too.
TEST(SpmvServiceStress, ManyThreadsManyMatrices) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  const core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.cache_capacity = 3;
  opts.workers = 3;
  opts.max_batch = 4;
  opts.queue_high_water = 4096;
  serve::SpmvService<double> service(pred, opts);

  constexpr int kMatrices = 5;
  const std::uint64_t s = base & 0xffff;
  std::vector<std::shared_ptr<const CsrMatrix<double>>> mats;
  mats.reserve(kMatrices);
  mats.push_back(std::make_shared<const CsrMatrix<double>>(
      gen::diagonal<double>(700)));
  mats.push_back(std::make_shared<const CsrMatrix<double>>(
      gen::fixed_degree<double>(600, 500, 3, s + 51)));
  mats.push_back(std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(800, 800, 2.0, 120, s + 53)));
  mats.push_back(std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(500, 5, 0.6, s + 57)));
  mats.push_back(std::make_shared<const CsrMatrix<double>>(
      gen::cfd_longrow<double>(80, 60, s + 59)));
  // One get of the first capacity + 1 structures: equal use counts admit,
  // so the last one evicts before the clients race (uneven draws can keep
  // one runtime ahead of every other count for a whole run). The last
  // structure is still planned under the race.
  for (std::size_t i = 0; i <= opts.cache_capacity; ++i)
    (void)service.cache().get(mats[i]);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      util::Xoshiro256 rng(base + 1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const auto& a = mats[static_cast<std::size_t>(
            rng.next() % static_cast<std::uint64_t>(kMatrices))];
        std::vector<double> x(static_cast<std::size_t>(a->cols()));
        for (auto& v : x) v = rng.uniform(-1.0, 1.0);
        std::vector<double> y;
        try {
          y = service.run(a, x);
        } catch (const serve::QueueFullError&) {
          continue;  // legal backpressure outcome
        }
        const auto exact = kernels::spmv_exact(*a, std::span<const double>(x));
        for (std::size_t r = 0; r < y.size(); ++r) {
          if (std::abs(y[r] - exact[r]) >
              1e-9 * (std::abs(exact[r]) + 1.0)) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0) << note;

  const auto st = service.stats();
  EXPECT_EQ(st.requests + st.rejected,
            static_cast<std::uint64_t>(kThreads * kPerThread))
      << note;
  EXPECT_GT(st.cache_hits, 0u) << note;
  EXPECT_GT(st.cache_evictions, 0u) << note;  // capacity 3 < 5 matrices
  // Runtimes evicted or never admitted keep their plans: each structure
  // planned once, and every other miss rebuilt from the plan tier.
  EXPECT_EQ(st.planning_passes, static_cast<std::uint64_t>(kMatrices)) << note;
  EXPECT_EQ(st.cache_misses, st.planning_passes + st.cache_plan_hits) << note;
}

/// Gets, promotions and evictions racing across the plan cache's two
/// tiers: capacity 1 over three structures keeps every runtime churning
/// while a promoter bumps one structure's revision. Invariants:
///   - a get never returns a revision older than one already promoted
///     (the plan tier keeps the latest revision across evictions)
///   - each structure plans exactly once; every other miss rebuilds from
///     the plan tier
///   - every returned entry computes exactly against its matrix
TEST(StressServe, PlanTiersKeepPromotionsThroughEvictionRaces) {
  const std::uint64_t base = base_seed();
  const std::string note =
      " (replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
  const core::HeuristicPredictor pred;
  serve::PlanCache<float> cache(pred, 1);
  constexpr int kMatrices = 3;
  std::vector<std::shared_ptr<const CsrMatrix<float>>> mats;
  for (int i = 0; i < kMatrices; ++i)
    mats.push_back(
        std::make_shared<const CsrMatrix<float>>(gen::power_law<float>(
            300 + 60 * i, 300, 2.0, 40,
            (base + static_cast<std::uint64_t>(i)) & 0xffff)));
  const auto key0 = serve::fingerprint_of(*mats[0]);
  const core::Plan base_plan = cache.get(mats[0])->runtime.plan();
  const auto promote = [&](std::uint64_t revision) {
    core::Plan p = base_plan;
    p.revision = revision;
    return cache.promote(key0, p, 1.0) != nullptr;
  };
  ASSERT_TRUE(promote(1)) << note;  // mats[0]'s runtime is cached
  // An equal count admits, so one get of mats[1] evicts mats[0] before the
  // threads race (uneven draws can keep one runtime ahead of every other
  // count for a whole run). mats[2] is still planned under the race.
  (void)cache.get(mats[1]);

  std::atomic<std::uint64_t> landed{1};  // newest revision promoted
  std::atomic<bool> stop{false};
  std::thread promoter([&] {
    for (std::uint64_t rev = 2; !stop.load(std::memory_order_relaxed); ++rev)
      if (promote(rev)) landed.store(rev, std::memory_order_release);
  });
  std::atomic<int> stale{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> getters;
  for (int t = 0; t < 3; ++t) {
    getters.emplace_back([&, t] {
      util::Xoshiro256 rng(base + 100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 40; ++i) {
        const auto m = static_cast<std::size_t>(
            rng.next() % static_cast<std::uint64_t>(kMatrices));
        const std::uint64_t floor = landed.load(std::memory_order_acquire);
        const auto entry = cache.get(mats[m]);
        if (m == 0 && entry->runtime.plan().revision < floor)
          stale.fetch_add(1, std::memory_order_relaxed);
        const auto x = random_x(static_cast<std::size_t>(mats[m]->cols()),
                                rng.next());
        std::vector<float> y(static_cast<std::size_t>(mats[m]->rows()));
        core::execute_plan(entry->runtime.backend(), *mats[m],
                           std::span<const float>(x), std::span<float>(y),
                           entry->runtime.bins(), entry->runtime.plan());
        const auto exact =
            kernels::spmv_exact(*mats[m], std::span<const float>(x));
        for (std::size_t r = 0; r < y.size(); ++r)
          if (std::abs(y[r] - exact[r]) > 2e-4 * (std::abs(exact[r]) + 1.0)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
            break;
          }
      }
    });
  }
  for (std::thread& g : getters) g.join();
  stop.store(true, std::memory_order_relaxed);
  promoter.join();

  EXPECT_EQ(stale.load(), 0) << note;
  EXPECT_EQ(wrong.load(), 0) << note;
  const auto s = cache.stats();
  EXPECT_EQ(s.planning_passes, static_cast<std::uint64_t>(kMatrices)) << note;
  EXPECT_EQ(s.misses, s.planning_passes + s.plan_hits) << note;
  EXPECT_GT(s.evictions, 0u) << note;
  EXPECT_GE(s.promotions, 1u) << note;
}

}  // namespace
