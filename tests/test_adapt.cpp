// Tests for the online-adaptation layer (spmv::adapt): bandit convergence
// on a rigged reward landscape, hysteresis under injected measurement
// noise, PlanStore round-trips and damage tolerance, cache promotion
// monotonicity, concurrent promotion vs eviction (tsan coverage), and the
// service-level warm-start / shutdown-ordering contracts.
#include <gtest/gtest.h>
#include <algorithm>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "adapt/bandit.hpp"
#include "adapt/plan_store.hpp"
#include "core/predictor.hpp"
#include "core/plan_io.hpp"
#include "core/tuner.hpp"
#include "exec/backend.hpp"
#include "gen/generators.hpp"
#include "kernels/reference.hpp"
#include "serve/fingerprint.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;
using namespace spmv::adapt;

template <typename T>
std::vector<T> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Remove a store file before/after a test (ignore missing).
struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

core::Plan sample_plan() {
  core::Plan plan;
  plan.backend = exec::BackendKind::Native;  // the store keeps native plans
  plan.unit = 100;
  plan.revision = 2;
  plan.bin_kernels = {{0, kernels::KernelId::Serial},
                      {3, kernels::KernelId::Sub16}};
  return plan;
}

serve::Fingerprint sample_key() {
  // row_hash exercises the full 64-bit range — it must survive the JSON
  // round trip exactly (stored as hex, not as a double).
  return serve::Fingerprint{1000, 1000, 5000, 0xdeadbeefcafebabeULL};
}

// --- BanditTuner ----------------------------------------------------------

TEST(BanditTuner, ConvergesToRiggedBestKernel) {
  const auto a = gen::power_law<float>(2000, 2000, 2.0, 200, 7);
  core::Plan plan;
  plan.unit = 100;
  const auto bins = binning::bin_matrix(a, 100);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Serial});
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 9);
  const auto key = serve::fingerprint_of(a);

  AdaptOptions opts;
  opts.trial_fraction = 1.0;  // every observe() runs a trial
  opts.min_samples = 3;
  opts.hysteresis = 1.10;
  opts.hot_bins = 1;
  // Rigged registry: Sub16 is 10x everything else.
  opts.measure_override = [](kernels::KernelId id, int /*bin*/) {
    return id == kernels::KernelId::Sub16 ? 10.0 : 1.0;
  };
  BanditTuner<float> tuner(opts);

  std::optional<BanditTuner<float>::Promotion> promo;
  int trials = 0;
  for (; trials < 200 && !promo.has_value(); ++trials)
    promo = tuner.observe(key, plan, bins, a, x);
  ASSERT_TRUE(promo.has_value()) << "no promotion within 200 trials";
  // Bounded convergence: one kernel is 10x better; with unexplored-first
  // exploration it needs at most pool-size * min_samples trials.
  EXPECT_LE(trials, 9 * 3 + 1);
  EXPECT_EQ(promo->plan.revision, plan.revision + 1);
  EXPECT_DOUBLE_EQ(promo->gflops, 10.0);

  // The hottest bin flipped to the rigged winner; other bins untouched.
  int changed = 0;
  for (std::size_t i = 0; i < plan.bin_kernels.size(); ++i) {
    if (promo->plan.bin_kernels[i].kernel != plan.bin_kernels[i].kernel) {
      EXPECT_EQ(promo->plan.bin_kernels[i].kernel, kernels::KernelId::Sub16);
      changed += 1;
    }
  }
  EXPECT_EQ(changed, 1);

  const auto s = tuner.stats();
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_GE(s.trials, 3u);
  EXPECT_GE(s.regret_s, 0.0);
}

TEST(BanditTuner, HysteresisBlocksFlappingUnderNoise) {
  const auto a = gen::power_law<float>(1500, 1500, 2.0, 150, 11);
  core::Plan plan;
  plan.unit = 100;
  const auto bins = binning::bin_matrix(a, 100);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Serial});
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 13);
  const auto key = serve::fingerprint_of(a);

  // Challenger is genuinely ~5% faster but noisy (±2%); hysteresis demands
  // 10%, so it must never be promoted, no matter how many trials run.
  util::Xoshiro256 noise(17);
  AdaptOptions opts;
  opts.trial_fraction = 1.0;
  opts.min_samples = 3;
  opts.hysteresis = 1.10;
  opts.hot_bins = 1;
  opts.kernel_pool = {kernels::KernelId::Serial, kernels::KernelId::Sub2};
  opts.measure_override = [&noise](kernels::KernelId id, int /*bin*/) {
    const double base = id == kernels::KernelId::Sub2 ? 1.05 : 1.0;
    return base * noise.uniform(0.98, 1.02);
  };
  BanditTuner<float> tuner(opts);

  for (int i = 0; i < 300; ++i) {
    const auto promo = tuner.observe(key, plan, bins, a, x);
    EXPECT_FALSE(promo.has_value()) << "flapped on trial " << i;
  }
  const auto s = tuner.stats();
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_EQ(s.trials, 300u);
}

TEST(BanditTuner, UnitExplorationPromotesRebinnedPlan) {
  const auto a = gen::power_law<float>(2000, 2000, 2.0, 200, 61);
  core::Plan plan;
  plan.unit = 100;
  plan.revision = 3;
  const auto bins = binning::bin_matrix(a, 100);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Serial});
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 63);
  const auto key = serve::fingerprint_of(a);

  AdaptOptions opts;
  opts.trial_fraction = 1.0;
  opts.explore_units = true;
  opts.unit_trial_fraction = 1.0;  // every trial is a U trial
  opts.unit_min_samples = 2;
  opts.unit_hysteresis = 1.10;
  opts.unit_pool = {100, 1000};  // one grid neighbor to climb to
  // Rigged: whole-plan throughput at U=1000 is 10x the incumbent's.
  opts.measure_unit_override = [](index_t u) {
    return u == 1000 ? 10.0 : 1.0;
  };
  BanditTuner<float> tuner(opts);

  std::optional<BanditTuner<float>::Promotion> promo;
  int trials = 0;
  for (; trials < 50 && !promo.has_value(); ++trials)
    promo = tuner.observe(key, plan, bins, a, x);
  ASSERT_TRUE(promo.has_value()) << "no U promotion within 50 trials";
  EXPECT_LE(trials, opts.unit_min_samples + 1);

  // The promotion is a structural rebuild, not a kernel swap: new unit,
  // re-binned bin set, bumped revision, tuned-U provenance recording where
  // the lineage started.
  EXPECT_TRUE(promo->rebinned);
  EXPECT_EQ(promo->plan.unit, 1000);
  EXPECT_FALSE(promo->plan.single_bin);
  EXPECT_EQ(promo->plan.revision, plan.revision + 1);
  EXPECT_TRUE(promo->plan.unit_tuned);
  EXPECT_EQ(promo->plan.predicted_unit, 100);
  EXPECT_DOUBLE_EQ(promo->gflops, 10.0);
  // Every occupied bin at the NEW granularity has a kernel.
  const auto rebins = binning::bin_matrix(a, 1000);
  for (int b : rebins.occupied_bins())
    EXPECT_NO_THROW((void)promo->plan.kernel_for(b)) << "bin " << b;

  const auto s = tuner.stats();
  EXPECT_GE(s.u_trials, static_cast<std::uint64_t>(opts.unit_min_samples));
  EXPECT_EQ(s.u_promotions, 1u);
}

TEST(BanditTuner, UnitHysteresisAndCooldownPreventPingPong) {
  const auto a = gen::power_law<float>(1500, 1500, 2.0, 150, 67);
  core::Plan plan;
  plan.unit = 100;
  const auto bins = binning::bin_matrix(a, 100);
  for (int b : bins.occupied_bins())
    plan.bin_kernels.push_back({b, kernels::KernelId::Serial});
  const auto x = random_vector<float>(static_cast<std::size_t>(a.cols()), 69);
  const auto key = serve::fingerprint_of(a);

  // Challenger U is 5% better; unit hysteresis demands 15%. Never promote.
  AdaptOptions opts;
  opts.trial_fraction = 1.0;
  opts.explore_units = true;
  opts.unit_trial_fraction = 1.0;
  opts.unit_min_samples = 2;
  opts.unit_hysteresis = 1.15;
  opts.unit_pool = {100, 1000};
  opts.measure_unit_override = [](index_t u) {
    return u == 1000 ? 1.05 : 1.0;
  };
  BanditTuner<float> tuner(opts);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(tuner.observe(key, plan, bins, a, x).has_value())
        << "U flapped on trial " << i;
  EXPECT_EQ(tuner.stats().u_promotions, 0u);

  // Cooldown: after a genuine promotion, the next `unit_cooldown` observe()
  // calls must not run U trials against the new incumbent.
  AdaptOptions copts = opts;
  copts.unit_hysteresis = 1.01;
  copts.unit_cooldown = 10;
  copts.measure_unit_override = [](index_t u) {
    return u == 1000 ? 10.0 : 1.0;
  };
  BanditTuner<float> cool(copts);
  std::optional<BanditTuner<float>::Promotion> promo;
  for (int i = 0; i < 50 && !promo.has_value(); ++i)
    promo = cool.observe(key, plan, bins, a, x);
  ASSERT_TRUE(promo.has_value());
  const auto u_trials_at_promo = cool.stats().u_trials;
  const auto newbins = binning::bin_matrix(a, promo->plan.unit);
  for (int i = 0; i < copts.unit_cooldown; ++i)
    (void)cool.observe(key, promo->plan, newbins, a, x);
  EXPECT_EQ(cool.stats().u_trials, u_trials_at_promo)
      << "U trials ran during the cooldown window";
  EXPECT_EQ(cool.stats().u_promotions, 1u);
}

TEST(BanditTuner, RealMeasurementsDoNotThrow) {
  // No override: trials time real kernel launches on the request's matrix.
  const auto a = gen::power_law<double>(1200, 1200, 2.0, 100, 19);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a).predictor(pred).build();
  const auto x = random_vector<double>(static_cast<std::size_t>(a.cols()), 21);

  AdaptOptions opts;
  opts.trial_fraction = 1.0;
  opts.min_samples = 1;
  BanditTuner<double> tuner(opts);
  for (int i = 0; i < 10; ++i)
    (void)tuner.observe(serve::fingerprint_of(a), spmv.plan(), spmv.bins(), a,
                        x);
  EXPECT_EQ(tuner.stats().trials, 10u);
}

// --- Plan JSON round trip -------------------------------------------------

TEST(PlanIo, RoundTrip) {
  auto plan = sample_plan();
  plan.unit_tuned = true;
  plan.predicted_unit = 50000;
  const auto back = core::plan_from_json(core::plan_to_json(plan));
  EXPECT_EQ(back.unit, plan.unit);
  EXPECT_EQ(back.single_bin, plan.single_bin);
  EXPECT_EQ(back.revision, plan.revision);
  EXPECT_EQ(back.unit_tuned, plan.unit_tuned);
  EXPECT_EQ(back.predicted_unit, plan.predicted_unit);
  ASSERT_EQ(back.bin_kernels.size(), plan.bin_kernels.size());
  for (std::size_t i = 0; i < plan.bin_kernels.size(); ++i) {
    EXPECT_EQ(back.bin_kernels[i].bin_id, plan.bin_kernels[i].bin_id);
    EXPECT_EQ(back.bin_kernels[i].kernel, plan.bin_kernels[i].kernel);
  }
}

TEST(PlanIo, ProvenanceFieldsAreOptionalForOldArtifacts) {
  // A pre-provenance artifact (no unit_tuned / predicted_unit) must load
  // with the defaults.
  prof::Json j = core::plan_to_json(sample_plan());
  prof::Json stripped = prof::Json::object();
  for (const auto& [k, v] : j.members())
    if (k != "unit_tuned" && k != "predicted_unit") stripped.set(k, v);
  const auto back = core::plan_from_json(stripped);
  EXPECT_FALSE(back.unit_tuned);
  EXPECT_EQ(back.predicted_unit, 0);
}

// --- PlanStore ------------------------------------------------------------

TEST(PlanStore, RoundTripThroughDisk) {
  ScopedFile file("test_adapt_roundtrip.json");
  const auto key = sample_key();
  {
    PlanStore store(file.path);
    StoredPlan sp;
    sp.plan = sample_plan();
    sp.gflops = 3.5;
    sp.trials = 7;
    store.put(key, sp);
    store.flush();
  }
  PlanStore store(file.path);
  const auto stats = store.load();
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(store.size(), 1u);
  const auto got = store.lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->plan.unit, 100);
  EXPECT_EQ(got->plan.revision, 2u);
  EXPECT_EQ(got->plan.kernel_for(3), kernels::KernelId::Sub16);
  EXPECT_DOUBLE_EQ(got->gflops, 3.5);
  EXPECT_EQ(got->trials, 7u);
  EXPECT_GT(got->saved_unix_ms, 0);  // stamped by put()
}

/// Two stores flushing to one path from two threads never clobber each
/// other's temp file: every flush succeeds, the surviving file parses and
/// holds one writer's complete entry set, and no temp file is left over.
TEST(PlanStore, ConcurrentFlushesToOnePathLeaveOneWritersFile) {
  ScopedFile file("test_adapt_concurrent_flush.json");
  const auto fill = [&](PlanStore& store, std::int64_t first) {
    for (std::int64_t i = 0; i < 5; ++i) {
      StoredPlan sp;
      sp.plan = sample_plan();
      sp.gflops = static_cast<double>(first);
      store.put(serve::Fingerprint{first + i, 10, 20, 0x1234}, sp);
    }
  };
  PlanStore a(file.path);
  PlanStore b(file.path);
  fill(a, 100);
  fill(b, 200);
  std::atomic<int> failures{0};
  const auto flush_50 = [&](const PlanStore& store) {
    for (int i = 0; i < 50; ++i) {
      try {
        store.flush();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread ta(flush_50, std::cref(a));
  std::thread tb(flush_50, std::cref(b));
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);

  PlanStore back(file.path);
  EXPECT_EQ(back.load().loaded, 5u);
  const std::int64_t first = back.lookup({100, 10, 20, 0x1234}) ? 100 : 200;
  for (std::int64_t i = 0; i < 5; ++i) {
    const auto got = back.lookup({first + i, 10, 20, 0x1234});
    ASSERT_TRUE(got.has_value()) << "entry " << first + i;
    EXPECT_DOUBLE_EQ(got->gflops, static_cast<double>(first));
  }
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.rfind(file.path + ".tmp", 0), 0u) << "left over: " << name;
  }
}

TEST(PlanStore, PutKeepsNewerRevision) {
  PlanStore store("unused_path.json");
  const auto key = sample_key();
  StoredPlan newer;
  newer.plan = sample_plan();  // revision 2
  store.put(key, newer);
  StoredPlan stale;
  stale.plan = sample_plan();
  stale.plan.revision = 1;
  stale.gflops = 99.0;
  store.put(key, stale);  // must lose
  EXPECT_EQ(store.lookup(key)->plan.revision, 2u);
  EXPECT_NE(store.lookup(key)->gflops, 99.0);
}

TEST(PlanStore, CorruptAndTruncatedFilesLoadEmpty) {
  for (const auto& damage :
       {std::string("{ this is not json"),
        std::string("{\"schema\": 1, \"entries\": [{\"dev"),
        std::string("[1, 2, 3]")}) {
    ScopedFile file("test_adapt_corrupt.json");
    {
      std::ofstream out(file.path);
      out << damage;
    }
    PlanStore store(file.path);
    const auto stats = store.load();  // must not throw
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.skipped_malformed, 1u);
    EXPECT_EQ(store.size(), 0u);
  }
}

TEST(PlanStore, MissingFileIsEmptyStore) {
  PlanStore store("test_adapt_never_written.json");
  const auto stats = store.load();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped_malformed, 0u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PlanStore, ForeignSchemaSkippedWholesale) {
  ScopedFile file("test_adapt_schema.json");
  {
    std::ofstream out(file.path);
    out << "{\"schema\": 99, \"entries\": []}";
  }
  PlanStore store(file.path);
  const auto stats = store.load();
  EXPECT_EQ(stats.skipped_schema, 1u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(PlanStore, MalformedEntrySkippedOthersLoad) {
  ScopedFile file("test_adapt_partial.json");
  {
    PlanStore store(file.path);
    StoredPlan sp;
    sp.plan = sample_plan();
    store.put(sample_key(), sp);
    store.flush();
  }
  // Inject a broken entry alongside the good one.
  std::string text = read_file(file.path);
  const auto pos = text.find("\"entries\": [");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + std::string("\"entries\": [").size(),
              "{\"device\": \"x\"},");
  {
    std::ofstream out(file.path, std::ios::trunc);
    out << text;
  }
  PlanStore store(file.path);
  const auto stats = store.load();
  EXPECT_EQ(stats.loaded, 1u);
  // The injected entry counts as malformed or foreign-device — either way
  // it is skipped, never fatal.
  EXPECT_EQ(stats.skipped_malformed + stats.skipped_device, 1u);
  EXPECT_TRUE(store.lookup(sample_key()).has_value());
}

TEST(PlanStore, ForeignDeviceAndModelEntriesPreservedAcrossFlush) {
  ScopedFile file("test_adapt_foreign.json");
  const std::string other_device = "cu=1 group=64 lds=1024";
  {
    PlanStore store(file.path, other_device, "model-A");
    StoredPlan sp;
    sp.plan = sample_plan();
    store.put(sample_key(), sp);
    store.flush();
  }
  // A store scoped to the default device sees nothing usable...
  PlanStore mine(file.path);
  const auto stats = mine.load();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped_device, 1u);
  EXPECT_EQ(mine.size(), 0u);
  // ...but flush preserves the foreign entry for its owner.
  StoredPlan sp;
  sp.plan = sample_plan();
  serve::Fingerprint mine_key{5, 5, 5, 42};
  mine.put(mine_key, sp);
  mine.flush();
  {
    PlanStore theirs(file.path, other_device, "model-A");
    EXPECT_EQ(theirs.load().loaded, 1u);
    EXPECT_TRUE(theirs.lookup(sample_key()).has_value());
  }
  // gc() drops the preserved foreign entries; the next flush forgets them.
  PlanStore collector(file.path);
  collector.load();
  EXPECT_EQ(collector.gc(), 1u);
  collector.flush();
  {
    PlanStore theirs(file.path, other_device, "model-A");
    EXPECT_EQ(theirs.load().loaded, 0u);
  }
}

TEST(PlanStore, GcExpiredDropsStaleKeepsFreshAndForeign) {
  ScopedFile file("test_adapt_ttl.json");
  const std::string other_device = "cu=1 group=64 lds=1024";
  const std::int64_t now = 1'000'000'000;  // fixed clock: deterministic
  const std::int64_t hour = 3'600'000;
  {
    // A stale foreign entry — TTL gc must never touch other machines' work.
    PlanStore store(file.path, other_device, "model-A");
    StoredPlan sp;
    sp.plan = sample_plan();
    sp.saved_unix_ms = now - 100 * hour;
    sp.last_used_unix_ms = now - 100 * hour;
    store.put(sample_key(), sp);
    store.flush();
  }
  PlanStore store(file.path);
  store.load();
  const serve::Fingerprint stale_key{1, 1, 1, 11};
  const serve::Fingerprint fresh_key{2, 2, 2, 22};
  const serve::Fingerprint saved_only_key{3, 3, 3, 33};
  StoredPlan sp;
  sp.plan = sample_plan();
  sp.saved_unix_ms = now - 100 * hour;
  sp.last_used_unix_ms = now - 100 * hour;
  store.put(stale_key, sp);
  sp.last_used_unix_ms = now - hour;  // recurring fingerprint: stays
  store.put(fresh_key, sp);
  sp.saved_unix_ms = now - hour;  // no usage stamp, but recently saved
  sp.last_used_unix_ms = 0;       // put() backfills from save time
  store.put(saved_only_key, sp);

  EXPECT_EQ(store.gc_expired(24 * hour, now), 1u);  // only stale_key
  EXPECT_FALSE(store.lookup(stale_key).has_value());
  EXPECT_TRUE(store.lookup(fresh_key).has_value());
  EXPECT_TRUE(store.lookup(saved_only_key).has_value());

  // lookup() re-stamps usage, so a recurring fingerprint survives a TTL
  // shorter than its age-since-save.
  EXPECT_EQ(store.gc_expired(2 * hour, 0), 0u);

  // Negative TTL is a no-op guard.
  EXPECT_EQ(store.gc_expired(-1, now), 0u);

  // The foreign stale entry survived and is still flushed for its owner.
  store.flush();
  PlanStore theirs(file.path, other_device, "model-A");
  EXPECT_EQ(theirs.load().loaded, 1u);
}

TEST(PlanStore, ModelVersionScopesLookups) {
  ScopedFile file("test_adapt_model.json");
  {
    PlanStore store(file.path, PlanStore::device_config_string(), "v1");
    StoredPlan sp;
    sp.plan = sample_plan();
    store.put(sample_key(), sp);
    store.flush();
  }
  PlanStore v2(file.path, PlanStore::device_config_string(), "v2");
  const auto stats = v2.load();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped_model, 1u);
}

// --- PlanCache integration ------------------------------------------------

TEST(PlanCacheAdapt, WarmStartSkipsPredictor) {
  ScopedFile file("test_adapt_warmcache.json");
  core::HeuristicPredictor pred;
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(1000, 1000, 2.0, 120, 23));
  {
    PlanStore store(file.path);
    store.load();
    serve::PlanCache<float> cache(pred, 4, &store);
    EXPECT_NE(cache.get(a), nullptr);
    const auto s = cache.stats();
    EXPECT_EQ(s.planning_passes, 1u);
    EXPECT_EQ(s.warm_hits, 0u);
    store.flush();  // planning wrote through; persist it
  }
  PlanStore store(file.path);
  store.load();
  serve::PlanCache<float> cache(pred, 4, &store);
  EXPECT_NE(cache.get(a), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.warm_hits, 1u);
  EXPECT_EQ(s.planning_passes, 0u);
}

TEST(PlanCacheAdapt, PromoteIsMonotonicAndVisible) {
  core::HeuristicPredictor pred;
  serve::PlanCache<double> cache(pred, 4);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  const auto key = serve::fingerprint_of(*a);
  const auto first = cache.get(a);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->runtime.plan().revision, 0u);

  core::Plan improved = first->runtime.plan();
  improved.revision = 1;
  const auto promoted = cache.promote(key, improved, 2.0);
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(promoted->runtime.plan().revision, 1u);
  // Next get() serves the promoted entry.
  EXPECT_EQ(cache.get(a)->runtime.plan().revision, 1u);
  // Stale revision (== cached) is refused.
  EXPECT_EQ(cache.promote(key, improved, 2.0), nullptr);
  // Unknown key is refused.
  EXPECT_EQ(cache.promote(serve::Fingerprint{1, 1, 1, 1}, improved, 2.0),
            nullptr);
  EXPECT_EQ(cache.stats().promotions, 1u);

  // The promoted runtime still computes exactly.
  const auto x =
      random_vector<double>(static_cast<std::size_t>(a->cols()), 31);
  std::vector<double> y(static_cast<std::size_t>(a->rows()));
  const auto entry = cache.get(a);
  core::execute_plan(entry->runtime.backend(), *a,
                     std::span<const double>(x), std::span<double>(y),
                     entry->runtime.bins(), entry->runtime.plan());
  const auto exact = kernels::spmv_exact(*a, std::span<const double>(x));
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0));
}

TEST(PlanCacheAdapt, PromotedRevisionSurvivesRuntimeEvictionWithoutStore) {
  core::HeuristicPredictor pred;
  serve::PlanCache<double> cache(pred, 1);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  auto b = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(500, 3, 0.7, 33));
  const auto key = serve::fingerprint_of(*a);

  core::Plan improved = cache.get(a)->runtime.plan();
  ASSERT_FALSE(improved.bin_kernels.empty());
  improved.revision = 1;
  improved.bin_kernels[0].kernel =
      improved.bin_kernels[0].kernel == kernels::KernelId::Serial
          ? kernels::KernelId::Sub2
          : kernels::KernelId::Serial;
  const auto promoted = cache.promote(key, improved, 2.0);
  ASSERT_NE(promoted, nullptr);

  (void)cache.get(b);  // evicts a's promoted runtime
  const auto back = cache.get(a);
  EXPECT_EQ(back->runtime.plan().revision, 1u);
  EXPECT_EQ(core::plan_to_json(back->runtime.plan()).dump(),
            core::plan_to_json(promoted->runtime.plan()).dump());
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.planning_passes, 2u);
  EXPECT_EQ(s.warm_hits, 0u);
}

TEST(PlanCacheAdapt, PromotionOfAnUncachedStructureIsKept) {
  ScopedFile file("test_adapt_uncached_promotion.json");
  PlanStore store(file.path);
  store.load();
  core::HeuristicPredictor pred;
  serve::PlanCache<double> cache(pred, 1, &store);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  auto b = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(500, 3, 0.7, 33));
  const auto key = serve::fingerprint_of(*a);

  core::Plan improved = cache.get(a)->runtime.plan();
  ASSERT_FALSE(improved.bin_kernels.empty());
  (void)cache.get(b);  // evicts a's runtime; a's plan stays kept
  improved.revision = 1;
  improved.bin_kernels[0].kernel =
      improved.bin_kernels[0].kernel == kernels::KernelId::Serial
          ? kernels::KernelId::Sub2
          : kernels::KernelId::Serial;
  // Sent out of bin order, as an externally assembled plan may be.
  core::Plan sent = improved;
  std::reverse(sent.bin_kernels.begin(), sent.bin_kernels.end());
  // No runtime replaced, so nullptr and no promotion counted, but the
  // kept plan and the store both take the newer revision, normalized.
  EXPECT_EQ(cache.promote(key, sent, 2.0), nullptr);
  EXPECT_EQ(cache.stats().promotions, 0u);
  ASSERT_TRUE(store.lookup(key).has_value());
  EXPECT_EQ(store.lookup(key)->plan.revision, 1u);
  EXPECT_EQ(core::plan_to_json(store.lookup(key)->plan).dump(),
            core::plan_to_json(improved).dump());
  // A stale revision for the uncached structure changes nothing.
  core::Plan stale = improved;
  stale.revision = 1;
  stale.bin_kernels[0].kernel = kernels::KernelId::Sub4;
  EXPECT_EQ(cache.promote(key, stale, 3.0), nullptr);

  const auto back = cache.get(a);  // the next miss rebuilds at revision 1
  EXPECT_EQ(back->runtime.plan().revision, 1u);
  EXPECT_EQ(back->runtime.plan().bin_kernels[0].kernel,
            improved.bin_kernels[0].kernel);
  const auto s = cache.stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.planning_passes, 2u);
  EXPECT_EQ(s.promotions, 0u);
}

// A plan kept for an uncached structure is built only at its next miss.
// When that rebuild fails, the miss rethrows and drops the kept plan, so
// the miss after it plans again instead of rethrowing for good.
TEST(PlanCacheAdapt, KeptPlanThatFailsToRebuildIsDropped) {
  core::HeuristicPredictor pred;
  serve::PlanCache<double> cache(pred, 1);
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  auto b = std::make_shared<const CsrMatrix<double>>(
      gen::banded<double>(500, 3, 0.7, 33));
  const auto key = serve::fingerprint_of(*a);

  core::Plan broken = cache.get(a)->runtime.plan();
  (void)cache.get(b);  // evicts a's runtime; a's plan stays kept
  broken.revision = 1;
  broken.unit = 0;  // binning rejects a unit below 1
  EXPECT_EQ(cache.promote(key, broken), nullptr);
  EXPECT_THROW((void)cache.get(a), std::invalid_argument);

  std::shared_ptr<const serve::PlanCache<double>::Entry> back;
  ASSERT_NO_THROW(back = cache.get(a));
  EXPECT_EQ(back->runtime.plan().revision, 0u);
  EXPECT_GE(back->runtime.plan().unit, 1);
  const auto s = cache.stats();
  EXPECT_EQ(s.planning_passes, 3u);  // a, b, and a again
  EXPECT_EQ(s.plan_hits, 0u);
  EXPECT_EQ(s.promotions, 0u);
}

// A stored plan that cannot be built is erased from the store by the miss
// that failed on it, so the next miss plans instead of rethrowing on every
// later miss, and the flushed file no longer holds it.
TEST(PlanCacheAdapt, UnbuildableStoredPlanIsErased) {
  ScopedFile file("test_adapt_unbuildable.json");
  core::HeuristicPredictor pred;
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  const auto key = serve::fingerprint_of(*a);
  PlanStore store(file.path);
  store.load();
  StoredPlan bad;
  bad.plan = sample_plan();
  bad.plan.unit = 0;  // binning rejects a unit below 1
  store.put(key, bad);

  serve::PlanCache<double> cache(pred, 4, &store);
  EXPECT_THROW((void)cache.get(a), std::invalid_argument);
  EXPECT_EQ(store.stats().erased, 1u);
  ASSERT_NO_THROW((void)cache.get(a));
  const auto s = cache.stats();
  EXPECT_EQ(s.planning_passes, 1u);
  EXPECT_EQ(s.warm_hits, 0u);

  store.flush();
  PlanStore reread(file.path);
  EXPECT_EQ(reread.load().loaded, 1u);
  const auto got = reread.lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(got->plan.unit, 1);
  EXPECT_EQ(got->plan.revision, 0u);
}

// Serving runs native plans only. A store entry whose plan is for another
// backend — a clsim plan in a schema-3 file, or any schema-1 plan (those
// predate the backend field and load as Clsim) — loads as a skip counted in
// skipped_backend: the miss plans native instead, and flush() re-emits the
// entry verbatim next to the native plan.
TEST(PlanCacheAdapt, NonNativeStoredPlansAreSkippedAndReemitted) {
  core::HeuristicPredictor pred;
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::power_law<double>(900, 900, 2.0, 90, 29));
  const auto key = serve::fingerprint_of(*a);
  for (const int schema : {1, 3}) {
    SCOPED_TRACE("schema " + std::to_string(schema));
    ScopedFile file("test_adapt_nonnative_" + std::to_string(schema) +
                    ".json");
    {
      PlanStore writer(file.path);
      writer.put(key, StoredPlan{sample_plan()});
      writer.flush();
    }
    prof::Json doc = prof::Json::parse(read_file(file.path));
    prof::Json entry = doc.at("entries").at(std::size_t{0});
    prof::Json plan = entry.at("plan");
    if (schema == 1) {
      prof::Json v1 = prof::Json::object();  // no backend, no formats
      for (const char* k :
           {"unit", "single_bin", "revision", "unit_tuned", "predicted_unit"})
        v1.set(k, plan.at(k));
      prof::Json bins = prof::Json::array();
      for (const prof::Json& b : plan.at("bins").items()) {
        prof::Json v1bin = prof::Json::object();
        v1bin.set("bin", b.at("bin"));
        v1bin.set("kernel", b.at("kernel"));
        bins.push_back(std::move(v1bin));
      }
      v1.set("bins", std::move(bins));
      plan = std::move(v1);
    } else {
      plan.set("backend", prof::Json("clsim"));
    }
    entry.set("plan", std::move(plan));
    prof::Json entries = prof::Json::array();
    entries.push_back(entry);
    doc.set("schema", prof::Json(schema));
    doc.set("entries", std::move(entries));
    {
      std::ofstream out(file.path);
      out << doc.dump(2);
    }

    PlanStore store(file.path);
    const auto stats = store.load();
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.skipped_backend, 1u);
    EXPECT_EQ(stats.skipped_schema + stats.skipped_malformed, 0u);
    EXPECT_FALSE(store.lookup(key).has_value());

    serve::PlanCache<double> cache(pred, 4, &store);
    EXPECT_EQ(cache.get(a)->runtime.plan().backend, exec::BackendKind::Native);
    EXPECT_EQ(cache.stats().planning_passes, 1u);
    EXPECT_EQ(cache.stats().warm_hits, 0u);

    store.flush();
    const prof::Json flushed = prof::Json::parse(read_file(file.path));
    int verbatim = 0;
    int native = 0;
    for (const prof::Json& e : flushed.at("entries").items()) {
      if (e.dump(0) == entry.dump(0)) verbatim += 1;
      const prof::Json* b = e.at("plan").find("backend");
      if (b != nullptr && b->as_string() == "native") native += 1;
    }
    EXPECT_EQ(verbatim, 1);
    EXPECT_EQ(native, 1);
  }
}

// Two kernel-swap promotions racing at the same revision: the cache's
// monotonic-revision rule lets exactly one land and refuses the other as
// stale. (tsan preset runs this under ThreadSanitizer.)
TEST(PlanCacheAdaptStress, TwoKernelPromotionsRaceAtOneRevision) {
  core::HeuristicPredictor pred;
  serve::PlanCache<float> cache(pred, 4);
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(800, 800, 2.0, 80, 83));
  const auto key = serve::fingerprint_of(*a);
  const core::Plan base = cache.get(a)->runtime.plan();
  ASSERT_FALSE(base.bin_kernels.empty());
  ASSERT_EQ(base.backend, exec::BackendKind::Native);

  // Each swaps bin 0's kernel to a different one, neither the incumbent.
  const kernels::KernelId incumbent = base.bin_kernels[0].kernel;
  std::vector<kernels::KernelId> others;
  for (kernels::KernelId id : kernels::all_kernels())
    if (id != incumbent) others.push_back(id);
  core::Plan swaps[2] = {base, base};
  for (int i = 0; i < 2; ++i) {
    swaps[i].revision = base.revision + 1;
    swaps[i].bin_kernels[0].kernel = others[static_cast<std::size_t>(i)];
  }

  std::shared_ptr<const serve::PlanCache<float>::Entry> won[2];
  std::thread t1([&] { won[0] = cache.promote(key, swaps[0], 2.0); });
  std::thread t2([&] { won[1] = cache.promote(key, swaps[1], 2.0); });
  t1.join();
  t2.join();

  // Exactly one promotion landed; the loser saw the bumped revision.
  ASSERT_NE(won[0] != nullptr, won[1] != nullptr);
  EXPECT_EQ(cache.stats().promotions, 1u);
  const int winner = won[0] != nullptr ? 0 : 1;
  const auto entry = cache.get(a);
  EXPECT_EQ(entry->runtime.plan().revision, base.revision + 1);
  EXPECT_EQ(entry->runtime.plan().bin_kernels[0].kernel,
            swaps[winner].bin_kernels[0].kernel);

  // Whichever won, the cached runtime still computes exactly.
  const auto x =
      random_vector<float>(static_cast<std::size_t>(a->cols()), 87);
  std::vector<float> y(static_cast<std::size_t>(a->rows()));
  core::execute_plan(entry->runtime.backend(), *a, std::span<const float>(x),
                     std::span<float>(y), entry->runtime.bins(),
                     entry->runtime.plan());
  const auto exact = kernels::spmv_exact(*a, std::span<const float>(x));
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], exact[i], 2e-4 * (std::abs(exact[i]) + 1.0));
}

// Promotions racing gets and LRU evictions: no crash, no deadlock, no
// torn entries (tsan preset runs this under ThreadSanitizer).
TEST(PlanCacheAdaptStress, ConcurrentPromotionVsEviction) {
  core::HeuristicPredictor pred;
  serve::PlanCache<float> cache(pred, 2);
  constexpr int kMatrices = 4;
  std::vector<std::shared_ptr<const CsrMatrix<float>>> mats;
  for (int i = 0; i < kMatrices; ++i)
    mats.push_back(std::make_shared<const CsrMatrix<float>>(
        gen::fixed_degree<float>(300 + 50 * i, 300, 3,
                                 static_cast<std::uint64_t>(37 + i))));
  const auto key0 = serve::fingerprint_of(*mats[0]);
  const core::Plan base = cache.get(mats[0])->runtime.plan();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> next_rev{1};
  std::thread promoter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      core::Plan p = base;
      p.revision = next_rev.fetch_add(1, std::memory_order_relaxed);
      (void)cache.promote(key0, p, 1.0);  // may lose to eviction: fine
    }
  });
  std::vector<std::thread> getters;
  for (int t = 0; t < 3; ++t) {
    getters.emplace_back([&, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(100 + t));
      for (int i = 0; i < 60; ++i) {
        const auto& m = mats[static_cast<std::size_t>(
            rng.next() % static_cast<std::uint64_t>(kMatrices))];
        EXPECT_NE(cache.get(m), nullptr);
      }
    });
  }
  for (auto& g : getters) g.join();
  stop.store(true, std::memory_order_relaxed);
  promoter.join();
  EXPECT_GT(cache.stats().evictions, 0u);
}

// --- SpmvService integration ----------------------------------------------

TEST(AdaptService, WarmStartAfterRestart) {
  ScopedFile file("test_adapt_service_warm.json");
  core::HeuristicPredictor pred;
  auto a = std::make_shared<const CsrMatrix<double>>(
      gen::mixed_regime<double>(800, 800, 0.4, 0.4, 2, 30, 200, 16, 41));
  const auto x =
      random_vector<double>(static_cast<std::size_t>(a->cols()), 43);
  const auto exact = kernels::spmv_exact(*a, std::span<const double>(x));

  {
    PlanStore store(file.path);
    serve::ServiceOptions opts;
    opts.plan_store = &store;
    serve::SpmvService<double> service(pred, opts);
    (void)service.run(a, x);
    const auto s = service.stats();
    EXPECT_EQ(s.planning_passes, 1u);
    EXPECT_EQ(s.cache_warm_hits, 0u);
    service.shutdown();  // flushes the store
  }

  // "Restarted process": a fresh store object over the same file.
  PlanStore store(file.path);
  serve::ServiceOptions opts;
  opts.plan_store = &store;
  serve::SpmvService<double> service(pred, opts);
  const auto y = service.run(a, x);
  for (std::size_t i = 0; i < y.size(); ++i)
    ASSERT_NEAR(y[i], exact[i], 1e-9 * (std::abs(exact[i]) + 1.0));
  const auto s = service.stats();
  EXPECT_EQ(s.planning_passes, 0u);  // known fingerprint: no re-planning
  EXPECT_GE(s.cache_warm_hits, 1u);
}

TEST(AdaptService, OnlinePromotionReachesTheCache) {
  core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.workers = 2;
  AdaptOptions adapt;
  adapt.trial_fraction = 1.0;
  adapt.min_samples = 2;
  adapt.hot_bins = 1;
  // Rigged landscape: reward grows with the kernel id, so whatever the
  // predictor picked, a better challenger exists (unless it picked Vector,
  // which the heuristic never does for a power-law matrix).
  adapt.measure_override = [](kernels::KernelId id, int /*bin*/) {
    return 1.0 + static_cast<double>(id);
  };
  opts.adapt = adapt;
  prof::RunProfile profile;
  opts.profile = &profile;

  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(1500, 1500, 2.0, 150, 47));
  const auto n = static_cast<std::size_t>(a->cols());
  {
    serve::SpmvService<float> service(pred, opts);
    for (int i = 0; i < 120; ++i)
      (void)service.run(a, random_vector<float>(
                               n, 500 + static_cast<std::uint64_t>(i)));
    const auto s = service.stats();
    EXPECT_GE(s.cache_promotions, 1u);
  }  // destructor folds adapt stats into the profile

  EXPECT_GE(profile.adapt.trials, 2u);
  EXPECT_GE(profile.adapt.promotions, 1u);

  // The adapt section survives the JSON round trip and reaches Prometheus.
  const auto parsed =
      prof::RunProfile::from_json(prof::Json::parse(profile.to_json_text()));
  EXPECT_EQ(parsed.adapt.trials, profile.adapt.trials);
  EXPECT_EQ(parsed.adapt.promotions, profile.adapt.promotions);
  EXPECT_NE(prof::prometheus_text(profile).find("spmv_adapt_trials_total"),
            std::string::npos);
}

// Shutdown while trials are still in flight: the join must drain them
// before the store flush; no trial may touch a freed plan. (tsan preset
// runs this under ThreadSanitizer.)
TEST(AdaptService, ShutdownDrainsInflightTrials) {
  ScopedFile file("test_adapt_shutdown.json");
  core::HeuristicPredictor pred;
  PlanStore store(file.path);
  serve::ServiceOptions opts;
  opts.workers = 3;
  opts.plan_store = &store;
  AdaptOptions adapt;
  adapt.trial_fraction = 1.0;  // every request runs a real timed trial
  adapt.min_samples = 1;
  adapt.hysteresis = 1.0;  // promote eagerly: exercises promote-vs-shutdown
  opts.adapt = adapt;
  serve::SpmvService<float> service(pred, opts);

  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(1000, 1000, 2.0, 100, 53));
  const auto n = static_cast<std::size_t>(a->cols());
  std::vector<std::future<std::vector<float>>> futs;
  for (int i = 0; i < 40; ++i)
    futs.push_back(service.submit(
        a, random_vector<float>(n, 900 + static_cast<std::uint64_t>(i))));
  service.shutdown();  // join drains trials, then flushes the store
  for (auto& f : futs) EXPECT_FALSE(f.get().empty());

  // The flushed store is loadable and holds this fingerprint.
  PlanStore reopened(file.path);
  reopened.load();
  EXPECT_TRUE(reopened.lookup(serve::fingerprint_of(*a)).has_value());
}

}  // namespace
