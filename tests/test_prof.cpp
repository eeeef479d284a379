// spmv::prof: engine counter aggregation under concurrent launches, JSON
// round-tripping of a RunProfile, and the Tuner facade's telemetry wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "autospmv.hpp"

using namespace spmv;

namespace {

// A 4-compute-unit device whose launches in this file stay on the inline
// fast path (num_groups <= 2), so concurrent Engine::launch calls from
// many host threads never contend on the shared thread pool.
clsim::Device small_device() {
  clsim::Device d;
  d.compute_units = 4;
  return d;
}

}  // namespace

TEST(ProfCounters, DisabledFlagRecordsNothing) {
  prof::ScopedEnable off(false);
  clsim::Engine engine(small_device());
  engine.launch({.num_groups = 2, .group_size = 64},
                [](clsim::WorkGroup& wg) { wg.local_array<float>(16); });
  const auto s = engine.counters().snapshot();
  EXPECT_EQ(s.launches, 0u);
  EXPECT_EQ(s.groups, 0u);
  EXPECT_EQ(s.arena_high_water_bytes, 0u);
}

TEST(ProfCounters, ConcurrentInlineLaunchesAggregate) {
  prof::ScopedEnable on;
  clsim::Engine engine(small_device());

  constexpr int kThreads = 8;
  constexpr int kLaunchesPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine] {
      for (int i = 0; i < kLaunchesPerThread; ++i) {
        engine.launch({.num_groups = 2, .group_size = 64},
                      [](clsim::WorkGroup& wg) {
                        auto scratch = wg.local_array<float>(64);
                        scratch[0] = static_cast<float>(wg.group_id());
                      });
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto s = engine.counters().snapshot();
  EXPECT_EQ(s.launches, static_cast<std::uint64_t>(kThreads) *
                            kLaunchesPerThread);
  EXPECT_EQ(s.inline_launches, s.launches);
  EXPECT_EQ(s.groups, 2 * s.launches);
  EXPECT_EQ(s.chunks, 0u);  // inline fast path never touches the pool
  EXPECT_GE(s.arena_high_water_bytes, 64 * sizeof(float));
}

TEST(ProfCounters, PooledLaunchCountsGroupsAndChunks) {
  prof::ScopedEnable on;
  clsim::Engine engine;  // default device: all hardware threads
  engine.counters().reset();
  engine.launch({.num_groups = 64, .group_size = 64, .chunk = 4},
                [](clsim::WorkGroup& wg) { wg.local_array<double>(32); });

  const auto s = engine.counters().snapshot();
  EXPECT_EQ(s.launches, 1u);
  EXPECT_EQ(s.groups, 64u);
  if (engine.device().resolved_compute_units() > 1) {
    EXPECT_EQ(s.inline_launches, 0u);
    EXPECT_EQ(s.chunks, 16u);  // ceil(64 / 4)
  } else {
    EXPECT_EQ(s.inline_launches, 1u);
    EXPECT_EQ(s.chunks, 0u);
  }
  EXPECT_GE(s.arena_high_water_bytes, 32 * sizeof(double));
}

TEST(ProfCounters, SnapshotDelta) {
  prof::EngineCountersSnapshot before{.launches = 2,
                                      .inline_launches = 1,
                                      .groups = 10,
                                      .chunks = 3,
                                      .arena_high_water_bytes = 128};
  prof::EngineCountersSnapshot after{.launches = 5,
                                     .inline_launches = 1,
                                     .groups = 40,
                                     .chunks = 9,
                                     .arena_high_water_bytes = 512};
  const auto d = after.delta_since(before);
  EXPECT_EQ(d.launches, 3u);
  EXPECT_EQ(d.inline_launches, 0u);
  EXPECT_EQ(d.groups, 30u);
  EXPECT_EQ(d.chunks, 6u);
  EXPECT_EQ(d.arena_high_water_bytes, 512u);  // level, not flow
}

TEST(ProfJson, ScalarAndContainerRoundTrip) {
  prof::Json obj = prof::Json::object();
  obj.set("name", "bin \"0\"\n");
  obj.set("count", std::int64_t{42});
  obj.set("ratio", 0.125);
  obj.set("on", true);
  obj.set("off", prof::Json());
  prof::Json arr = prof::Json::array();
  arr.push_back(1);
  arr.push_back(-2.5);
  obj.set("items", arr);

  const auto parsed = prof::Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "bin \"0\"\n");
  EXPECT_EQ(parsed.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").as_number(), 0.125);
  EXPECT_TRUE(parsed.at("on").as_bool());
  EXPECT_TRUE(parsed.at("off").is_null());
  EXPECT_EQ(parsed.at("items").size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("items").at(1).as_number(), -2.5);
  // Compact and pretty dumps parse to the same document.
  EXPECT_EQ(prof::Json::parse(obj.dump(0)).dump(), parsed.dump());
}

TEST(ProfJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(prof::Json::parse(""), std::runtime_error);
  EXPECT_THROW(prof::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(prof::Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(prof::Json::parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(prof::Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(prof::Json::parse("nul"), std::runtime_error);
}

TEST(ProfRunProfile, JsonRoundTrip) {
  prof::RunProfile p;
  p.label = "cant";
  p.rows = 62451;
  p.cols = 62451;
  p.nnz = 4007383;
  p.plan = "U=100 {bin0:serial, bin3:subvector16}";
  p.plan_timing = {.features_s = 1e-4, .predict_s = 2e-5, .binning_s = 3e-4};
  p.add_bin_run(0, "serial", 625, 62451, 3000000, 0.002);
  p.add_bin_run(0, "serial", 625, 62451, 3000000, 0.001);  // second run
  p.add_bin_run(3, "subvector16", 10, 1000, 1007383, 0.0005);
  p.runs = 2;
  p.run_total_s = 0.0035;
  p.engine = {.launches = 4,
              .inline_launches = 1,
              .groups = 1024,
              .chunks = 256,
              .arena_high_water_bytes = 8192};
  p.add_candidate("U=100", 0.05, 18, 0.002);
  p.add_candidate("single-bin", 0.04, 9, 0.004);
  p.adapt = {.trials = 40,
             .promotions = 5,
             .regret_s = 0.25,
             .u_trials = 9,
             .u_promotions = 1,
             .l_trials = 6,
             .l_promotions = 2};

  const auto restored =
      prof::RunProfile::from_json(prof::Json::parse(p.to_json_text()));
  EXPECT_EQ(restored.label, p.label);
  EXPECT_EQ(restored.rows, p.rows);
  EXPECT_EQ(restored.nnz, p.nnz);
  EXPECT_EQ(restored.plan, p.plan);
  EXPECT_DOUBLE_EQ(restored.plan_timing.features_s, 1e-4);
  EXPECT_DOUBLE_EQ(restored.plan_timing.total_s(), p.plan_timing.total_s());
  ASSERT_EQ(restored.bins.size(), 2u);
  EXPECT_EQ(restored.bins[0].bin_id, 0);
  EXPECT_EQ(restored.bins[0].kernel, "serial");
  EXPECT_EQ(restored.bins[0].launches, 2u);  // merged across runs
  EXPECT_DOUBLE_EQ(restored.bins[0].seconds, 0.003);
  EXPECT_EQ(restored.bins[1].nnz, 1007383);
  EXPECT_EQ(restored.runs, 2u);
  EXPECT_EQ(restored.engine.groups, 1024u);
  EXPECT_EQ(restored.engine.arena_high_water_bytes, 8192u);
  ASSERT_EQ(restored.tuning.size(), 2u);
  EXPECT_EQ(restored.tuning[1].label, "single-bin");
  EXPECT_DOUBLE_EQ(restored.tuning_total_s, 0.09);
  EXPECT_EQ(restored.adapt.trials, 40u);
  EXPECT_EQ(restored.adapt.u_promotions, 1u);
  EXPECT_EQ(restored.adapt.l_trials, 6u);
  // Serializing again is a fixed point.
  EXPECT_EQ(restored.to_json_text(), p.to_json_text());

  // Artifacts written while the bandit still had backend and format levels
  // carry b_/f_ trial and promotion counters in the adapt block. They
  // still load, and every other counter survives.
  std::string old_text = p.to_json_text();
  const auto at = old_text.find("\"l_trials\"");
  ASSERT_NE(at, std::string::npos);
  old_text.insert(at,
                  "\"b_trials\": 3, \"b_promotions\": 1, \"f_trials\": 7, "
                  "\"f_promotions\": 2, ");
  const auto old_profile =
      prof::RunProfile::from_json(prof::Json::parse(old_text));
  EXPECT_EQ(old_profile.adapt.trials, 40u);
  EXPECT_EQ(old_profile.adapt.promotions, 5u);
  EXPECT_DOUBLE_EQ(old_profile.adapt.regret_s, 0.25);
  EXPECT_EQ(old_profile.adapt.u_trials, 9u);
  EXPECT_EQ(old_profile.adapt.u_promotions, 1u);
  EXPECT_EQ(old_profile.adapt.l_trials, 6u);
  EXPECT_EQ(old_profile.adapt.l_promotions, 2u);
  EXPECT_EQ(old_profile.to_json_text(), p.to_json_text());
}

TEST(ProfHistogram, BucketIndexAndPercentiles) {
  using H = prof::LatencyHistogram;
  // Bucket 0 catches everything at or below the 100 ns floor — including
  // the pathological inputs add() clamps.
  EXPECT_EQ(H::bucket_index(0.0), 0);
  EXPECT_EQ(H::bucket_index(-1.0), 0);
  EXPECT_EQ(H::bucket_index(1e-7), 0);
  EXPECT_EQ(H::bucket_index(1e-6), H::bucket_index(1e-6));
  EXPECT_LT(H::bucket_index(1e-6), H::bucket_index(1e-3));
  EXPECT_EQ(H::bucket_index(1e9), H::kBuckets - 1);  // clamped to the top
  // Bounds tile the axis: each bucket's upper bound is the next lower one.
  for (int i = 0; i < H::kBuckets - 1; ++i)
    EXPECT_DOUBLE_EQ(H::bucket_upper_bound(i), H::bucket_lower_bound(i + 1));

  H h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  for (int i = 0; i < 99; ++i) h.add(1e-3);
  h.add(1.0);  // one outlier
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min_s(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_s(), 1.0);
  // p50/p95 land in the 1 ms bucket (one-bucket ~26% accuracy); p99 is
  // still below the outlier, p100 reaches it.
  EXPECT_NEAR(h.percentile(50), 1e-3, 0.3e-3);
  EXPECT_NEAR(h.percentile(95), 1e-3, 0.3e-3);
  EXPECT_LT(h.percentile(99), 0.5);
  // p100 lands in the outlier's bucket (midpoint within ~26%, never past
  // the observed max).
  EXPECT_NEAR(h.percentile(100), 1.0, 0.3);
  EXPECT_LE(h.percentile(100), h.max_s());
}

TEST(ProfHistogram, MergeAndJsonRoundTrip) {
  prof::LatencyHistogram a;
  a.add(1e-4);
  a.add(2e-4);
  prof::LatencyHistogram b;
  b.add(5e-2);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min_s(), 1e-4);
  EXPECT_DOUBLE_EQ(a.max_s(), 5e-2);
  EXPECT_NEAR(a.total_s(), 1e-4 + 2e-4 + 5e-2, 1e-12);
  // Merging an empty histogram is a no-op either direction.
  prof::LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 3u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 3u);

  const auto restored = prof::LatencyHistogram::from_json(
      prof::Json::parse(a.to_json().dump()));
  EXPECT_EQ(restored.count(), a.count());
  EXPECT_DOUBLE_EQ(restored.min_s(), a.min_s());
  EXPECT_DOUBLE_EQ(restored.max_s(), a.max_s());
  EXPECT_EQ(restored.buckets(), a.buckets());
  EXPECT_DOUBLE_EQ(restored.percentile(50), a.percentile(50));
}

TEST(ProfServeStats, AddBatchEdgeCases) {
  prof::ServeStats s;
  // width < 1 still counts the dispatch but records no histogram slot.
  s.add_batch(0);
  s.add_batch(-3);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_TRUE(s.batch_width_hist.empty());
  // The width histogram grows to the widest batch seen and backfills.
  s.add_batch(1);
  s.add_batch(5);
  s.add_batch(5);
  ASSERT_EQ(s.batch_width_hist.size(), 5u);
  EXPECT_EQ(s.batch_width_hist[0], 1u);
  EXPECT_EQ(s.batch_width_hist[1], 0u);
  EXPECT_EQ(s.batch_width_hist[4], 2u);
  EXPECT_EQ(s.batches, 5u);
}

TEST(ProfServeStats, CacheHitRateWithZeroTraffic) {
  const prof::ServeStats s;
  EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(ProfServeStats, MergeFoldsCountersMaxesAndHistograms) {
  prof::ServeStats a;
  a.requests = 10;
  a.batches = 4;
  a.queue_wait_total_s = 0.5;
  a.queue_wait_max_s = 0.2;
  a.cache_hits = 8;
  a.add_batch(2);
  a.request_latency.add(1e-3);
  prof::ServeStats b;
  b.requests = 5;
  b.rejected = 1;
  b.queue_wait_total_s = 0.25;
  b.queue_wait_max_s = 0.4;
  b.cache_misses = 2;
  b.exec_total_s = 0.3;
  b.layout_build_s = 0.125;
  b.add_batch(3);
  b.request_latency.add(2e-3);
  b.batch_exec.add(5e-4);

  a.layout_build_s = 0.25;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.layout_build_s, 0.375);
  EXPECT_EQ(a.requests, 15u);
  EXPECT_EQ(a.rejected, 1u);
  EXPECT_EQ(a.batches, 6u);  // 4 + 1 (add_batch) + 1 (merged)
  EXPECT_DOUBLE_EQ(a.queue_wait_total_s, 0.75);
  EXPECT_DOUBLE_EQ(a.queue_wait_max_s, 0.4);  // max, not sum
  EXPECT_EQ(a.cache_hits, 8u);
  EXPECT_EQ(a.cache_misses, 2u);
  ASSERT_EQ(a.batch_width_hist.size(), 3u);
  EXPECT_EQ(a.batch_width_hist[1], 1u);
  EXPECT_EQ(a.batch_width_hist[2], 1u);
  EXPECT_EQ(a.request_latency.count(), 2u);
  EXPECT_EQ(a.batch_exec.count(), 1u);
}

TEST(ProfRunProfile, ServeHistogramsRoundTripThroughJson) {
  prof::RunProfile p;
  p.label = "serve";
  p.serve.requests = 100;
  p.serve.batches = 30;
  p.serve.cache_hits = 95;
  p.serve.cache_misses = 5;
  p.serve.add_batch(4);
  for (int i = 0; i < 100; ++i) p.serve.request_latency.add(1e-3 + 1e-5 * i);
  for (int i = 0; i < 100; ++i) p.serve.queue_wait.add(2e-4);
  for (int i = 0; i < 30; ++i) p.serve.batch_exec.add(8e-4);

  const auto restored =
      prof::RunProfile::from_json(prof::Json::parse(p.to_json_text()));
  EXPECT_EQ(restored.serve.requests, 100u);
  EXPECT_EQ(restored.serve.request_latency.count(), 100u);
  EXPECT_EQ(restored.serve.queue_wait.count(), 100u);
  EXPECT_EQ(restored.serve.batch_exec.count(), 30u);
  EXPECT_DOUBLE_EQ(restored.serve.request_latency.percentile(95),
                   p.serve.request_latency.percentile(95));
  // Serializing again is a fixed point (percentile fields included).
  EXPECT_EQ(restored.to_json_text(), p.to_json_text());

  // Old artifacts without histogram fields still load.
  auto j = prof::Json::parse(p.to_json_text());
  prof::Json serve = prof::Json::object();
  for (const auto& [key, value] : j.at("serve").members()) {
    if (key != "request_latency" && key != "queue_wait" &&
        key != "batch_exec")
      serve.set(key, value);
  }
  prof::Json trimmed = prof::Json::object();
  for (const auto& [key, value] : j.members())
    trimmed.set(key, key == "serve" ? serve : value);
  const auto old = prof::RunProfile::from_json(trimmed);
  EXPECT_EQ(old.serve.requests, 100u);
  EXPECT_TRUE(old.serve.request_latency.empty());
}

TEST(ProfRunProfile, CachePlanHitsMergeRoundTripAndExport) {
  prof::RunProfile p;
  p.serve.requests = 10;
  p.serve.cache_misses = 4;
  p.serve.cache_plan_hits = 3;
  p.serve.cache_warm_hits = 1;
  p.serve.cache_not_admitted = 6;
  prof::ServeStats other;
  other.cache_plan_hits = 2;
  other.cache_not_admitted = 1;
  p.serve.merge(other);
  EXPECT_EQ(p.serve.cache_plan_hits, 5u);
  EXPECT_EQ(p.serve.cache_warm_hits, 1u);
  EXPECT_EQ(p.serve.cache_not_admitted, 7u);

  const auto restored =
      prof::RunProfile::from_json(prof::Json::parse(p.to_json_text()));
  EXPECT_EQ(restored.serve.cache_plan_hits, 5u);
  EXPECT_EQ(restored.serve.cache_not_admitted, 7u);
  const std::string prom = prof::prometheus_text(p);
  EXPECT_NE(prom.find("spmv_serve_cache_plan_hits_total 5"),
            std::string::npos);
  EXPECT_NE(prom.find("spmv_serve_cache_not_admitted_total 7"),
            std::string::npos);

  // Profiles written before the plan tier have no plan_hits key, and none
  // written before admission has not_admitted.
  auto j = prof::Json::parse(p.to_json_text());
  prof::Json cache = prof::Json::object();
  for (const auto& [key, value] : j.at("serve").at("cache").members())
    if (key != "plan_hits" && key != "not_admitted") cache.set(key, value);
  prof::Json serve = prof::Json::object();
  for (const auto& [key, value] : j.at("serve").members())
    serve.set(key, key == "cache" ? cache : value);
  prof::Json trimmed = prof::Json::object();
  for (const auto& [key, value] : j.members())
    trimmed.set(key, key == "serve" ? serve : value);
  const auto old = prof::RunProfile::from_json(trimmed);
  EXPECT_EQ(old.serve.cache_plan_hits, 0u);
  EXPECT_EQ(old.serve.cache_not_admitted, 0u);
  EXPECT_EQ(old.serve.cache_warm_hits, 1u);
}

TEST(ProfPrometheus, ExposesCountersAndQuantiles) {
  prof::RunProfile p;
  p.runs = 4;
  p.run_total_s = 0.02;
  p.serve.requests = 10;
  p.serve.batches = 3;
  p.serve.cache_hits = 9;
  p.serve.cache_misses = 1;
  for (int i = 0; i < 10; ++i) p.serve.request_latency.add(1e-3);

  const auto text = prof::prometheus_text(p);
  EXPECT_NE(text.find("spmv_runs_total 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spmv_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("spmv_serve_requests_total 10"), std::string::npos);
  EXPECT_NE(text.find("spmv_serve_cache_hit_rate 0.9"), std::string::npos);
  EXPECT_NE(
      text.find("spmv_serve_request_latency_seconds{quantile=\"0.95\"}"),
      std::string::npos);
  EXPECT_NE(text.find("spmv_serve_request_latency_seconds_count 10"),
            std::string::npos);
  // Empty serve stats expose only the run/engine families.
  const auto bare = prof::prometheus_text(prof::RunProfile{});
  EXPECT_NE(bare.find("spmv_runs_total 0"), std::string::npos);
  EXPECT_EQ(bare.find("spmv_serve_requests_total"), std::string::npos);
}

TEST(ProfHistogram, ExemplarTracedBeatsUntracedThenRecencyWins) {
  prof::LatencyHistogram h;
  const int bucket = prof::LatencyHistogram::bucket_index(1e-3);

  prof::Exemplar untraced;  // trace_id == 0: a sampled-out request
  untraced.fingerprint = 11;
  h.add(1e-3, untraced);
  ASSERT_TRUE(h.exemplar(bucket).valid());
  EXPECT_EQ(h.exemplar(bucket).trace_id, 0u);
  EXPECT_DOUBLE_EQ(h.exemplar(bucket).value_s, 1e-3);
  EXPECT_TRUE(h.has_exemplars());

  prof::Exemplar traced;
  traced.trace_id = 77;
  traced.fingerprint = 22;
  h.add(1e-3, traced);  // same bucket
  EXPECT_EQ(h.exemplar(bucket).trace_id, 77u);

  // A later untraced sample must NOT displace the resolvable exemplar...
  h.add(1e-3, untraced);
  EXPECT_EQ(h.exemplar(bucket).trace_id, 77u);
  EXPECT_EQ(h.exemplar(bucket).fingerprint, 22u);
  // ...but a later traced one replaces it (recency among equals).
  prof::Exemplar newer;
  newer.trace_id = 78;
  h.add(1e-3, newer);
  EXPECT_EQ(h.exemplar(bucket).trace_id, 78u);

  // Other buckets are untouched; counts include every add.
  EXPECT_EQ(h.count(), 4u);
  EXPECT_FALSE(h.exemplar(bucket + 5).valid());
}

TEST(ProfHistogram, ExemplarsMergeAndSurviveJsonRoundTrip) {
  prof::LatencyHistogram a;
  prof::Exemplar ea;
  ea.trace_id = 1;
  ea.fingerprint = 0xdeadbeefcafef00dULL;
  ea.plan_revision = 3;
  ea.backend = 1;
  ea.formats = true;
  ea.promo_level = 2;
  a.add(1e-3, ea);

  prof::LatencyHistogram b;
  prof::Exemplar eb;
  eb.trace_id = 0;  // untraced: loses the merge for the shared bucket
  b.add(1e-3, eb);
  prof::Exemplar eb2;
  eb2.trace_id = 9;
  b.add(2.0, eb2);  // a bucket only b populates

  a.merge(b);
  const int shared = prof::LatencyHistogram::bucket_index(1e-3);
  const int slow = prof::LatencyHistogram::bucket_index(2.0);
  EXPECT_EQ(a.exemplar(shared).trace_id, 1u);
  EXPECT_EQ(a.exemplar(slow).trace_id, 9u);

  const auto restored = prof::LatencyHistogram::from_json(
      prof::Json::parse(a.to_json().dump()));
  const auto& ex = restored.exemplar(shared);
  EXPECT_EQ(ex.trace_id, 1u);
  EXPECT_EQ(ex.fingerprint, 0xdeadbeefcafef00dULL);  // hex string in JSON
  EXPECT_EQ(ex.plan_revision, 3u);
  EXPECT_EQ(ex.backend, 1);
  EXPECT_TRUE(ex.formats);
  EXPECT_EQ(ex.promo_level, 2);
  EXPECT_DOUBLE_EQ(ex.value_s, 1e-3);
  EXPECT_EQ(restored.exemplar(slow).trace_id, 9u);

  // Histograms without exemplars serialize without the key and load clean.
  prof::LatencyHistogram plain;
  plain.add(1e-3);
  EXPECT_FALSE(plain.has_exemplars());
  EXPECT_EQ(plain.to_json().find("exemplars"), nullptr);
  const auto replain = prof::LatencyHistogram::from_json(
      prof::Json::parse(plain.to_json().dump()));
  EXPECT_FALSE(replain.has_exemplars());
}

TEST(ProfPrometheus, EscapesLabelValues) {
  EXPECT_EQ(prof::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prof::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prof::prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prof::prometheus_escape_label("line1\nline2"), "line1\\nline2");

  prof::RunProfile p;
  p.label = "web\"graph\\v2\n(test)";
  const auto text = prof::prometheus_text(p);
  EXPECT_NE(text.find("spmv_profile_info{label=\"web\\\"graph\\\\v2\\n"
                      "(test)\"} 1"),
            std::string::npos);
}

TEST(ProfPrometheus, ExpositionIsConformant) {
  prof::RunProfile p;
  p.label = "conformance";
  p.runs = 2;
  p.run_total_s = 0.01;
  p.serve.requests = 8;
  p.serve.batches = 2;
  p.serve.cache_hits = 8;
  prof::Exemplar ex;
  ex.trace_id = 0xabcULL;
  ex.fingerprint = 0x123ULL;
  ex.plan_revision = 2;
  ex.backend = 1;
  ex.promo_level = 2;
  for (int i = 0; i < 8; ++i) p.serve.request_latency.add(1e-3, ex);
  p.serve.request_latency.add(0.5, ex);
  p.trace_stats.events = 40;
  p.trace_stats.dropped_spans = 2;
  p.trace_stats.threads = 3;

  const auto text = prof::prometheus_text(p);
  std::istringstream lines(text);
  std::string line;
  std::set<std::string> helped;
  std::set<std::string> typed;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      const auto name = line.substr(7, line.find(' ', 7) - 7);
      // HELP precedes TYPE precedes samples, once per family.
      EXPECT_TRUE(helped.insert(name).second) << "duplicate HELP " << name;
      EXPECT_EQ(typed.count(name), 0u) << "TYPE before HELP for " << name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(name).second) << "duplicate TYPE " << name;
      EXPECT_EQ(helped.count(name), 1u) << "TYPE without HELP for " << name;
      continue;
    }
    // Sample lines: a valid metric name, then either a value or labels.
    const auto brace = line.find('{');
    const auto name_end = std::min(brace, line.find(' '));
    ASSERT_NE(name_end, std::string::npos) << line;
    const auto name = line.substr(0, name_end);
    ASSERT_FALSE(name.empty());
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_')
        << name;
    for (char c : name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char in " << name;
    // Every sample belongs to a HELPed+TYPEd family (modulo the
    // _bucket/_sum/_count suffixes of summaries and histograms).
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed.count(family) == 0)
        family = family.substr(0, family.size() - s.size());
    }
    EXPECT_EQ(typed.count(family), 1u) << "sample without TYPE: " << line;
  }

  // Histogram conformance: cumulative le buckets ending at +Inf == _count.
  const auto hist_pos =
      text.find("# TYPE spmv_serve_request_latency_hist_seconds histogram");
  ASSERT_NE(hist_pos, std::string::npos);
  EXPECT_NE(
      text.find("spmv_serve_request_latency_hist_seconds_bucket{le=\"+Inf\"} "
                "9"),
      std::string::npos);
  EXPECT_NE(text.find("spmv_serve_request_latency_hist_seconds_count 9"),
            std::string::npos);

  // OpenMetrics exemplar syntax on the non-empty buckets: `# {labels} value`
  // with fixed-width hex ids and decoded provenance labels.
  EXPECT_NE(text.find("# {trace_id=\"0000000000000abc\",fingerprint=\""
                      "0000000000000123\",plan_revision=\"2\",backend=\""
                      "native\",formats=\"0\",promo_level=\"unit\"} "),
            std::string::npos);

  // The trace family rides along when trace stats are present.
  EXPECT_NE(text.find("spmv_trace_events_total 40"), std::string::npos);
  EXPECT_NE(text.find("spmv_trace_dropped_spans_total 2"), std::string::npos);
  EXPECT_NE(text.find("spmv_trace_threads 3"), std::string::npos);
}

TEST(ProfRunProfile, TraceStatsRoundTripThroughJson) {
  prof::RunProfile p;
  EXPECT_TRUE(p.trace_stats.empty());
  // Absent from JSON while empty, so old artifacts stay byte-identical.
  EXPECT_EQ(prof::Json::parse(p.to_json_text()).find("trace"), nullptr);

  EXPECT_EQ(prof::Json::parse(p.to_json_text()).find("threads"), nullptr);

  p.trace_stats.events = 123;
  p.trace_stats.dropped_spans = 7;
  p.trace_stats.threads = 4;
  p.threads_active_max = 6;
  p.serve.requests = 3;
  p.serve.exec_total_s = 0.5;
  p.serve.layout_build_s = 0.2;
  const auto restored =
      prof::RunProfile::from_json(prof::Json::parse(p.to_json_text()));
  EXPECT_EQ(restored.threads_active_max, 6);
  EXPECT_DOUBLE_EQ(restored.serve.layout_build_s, 0.2);
  EXPECT_EQ(restored.trace_stats.events, 123u);
  EXPECT_EQ(restored.trace_stats.dropped_spans, 7u);
  EXPECT_EQ(restored.trace_stats.threads, 4);
}

TEST(ProfTrajectory, AppendFlattensNumericLeavesWithDottedNames) {
  prof::Json bench = prof::Json::parse(R"({
    "bench": "serve_throughput",
    "config": {"rows": 20000, "requests": 512},
    "serve_rps": 1500.5,
    "request_latency": {"p50_s": 0.001, "p95_s": 0.004},
    "bins": [1, 2, 3]
  })");
  prof::Trajectory t;
  EXPECT_TRUE(t.empty());
  t.append(bench, "run-1");
  ASSERT_EQ(t.entries().size(), 1u);
  const auto& e = t.entries()[0];
  EXPECT_EQ(e.seq, 1u);
  EXPECT_EQ(e.label, "run-1");
  ASSERT_NE(e.find("config.rows"), nullptr);
  EXPECT_DOUBLE_EQ(*e.find("config.rows"), 20000.0);
  ASSERT_NE(e.find("request_latency.p95_s"), nullptr);
  EXPECT_DOUBLE_EQ(*e.find("request_latency.p95_s"), 0.004);
  EXPECT_DOUBLE_EQ(*e.find("serve_rps"), 1500.5);
  // Strings and arrays are not metrics.
  EXPECT_EQ(e.find("bench"), nullptr);
  EXPECT_EQ(e.find("bins"), nullptr);

  // Pruning keeps the newest entries; seq keeps counting.
  for (int i = 2; i <= 10; ++i)
    t.append(bench, "run-" + std::to_string(i), /*max_entries=*/4);
  ASSERT_EQ(t.entries().size(), 4u);
  EXPECT_EQ(t.entries().front().label, "run-7");
  EXPECT_EQ(t.entries().back().seq, 10u);
}

TEST(ProfTrajectory, CheckGatesHeadAgainstRollingWindow) {
  auto bench = [](double rps, double p95) {
    prof::Json j = prof::Json::object();
    j.set("serve_rps", rps);
    j.set("p95_s", p95);
    prof::Json config = prof::Json::object();
    config.set("requests", 512);
    j.set("config", config);
    return j;
  };

  prof::Trajectory t;
  t.append(bench(1000, 1e-3), "a");
  // One entry: a young trajectory only observes.
  EXPECT_TRUE(t.check(5, 1.25).metrics.empty());

  for (const char* label : {"b", "c", "d"})
    t.append(bench(1000, 1e-3), label);
  EXPECT_FALSE(t.check(5, 1.25).regressed());

  // Latency-like metrics regress upward...
  t.append(bench(1000, 2e-3), "slow");
  auto check = t.check(5, 1.25);
  ASSERT_TRUE(check.regressed());
  bool p95_flagged = false;
  for (const auto& m : check.metrics) {
    if (m.name == "p95_s") {
      p95_flagged = true;
      EXPECT_FALSE(m.higher_is_better);
      EXPECT_NEAR(m.ratio, 2.0, 1e-9);
      EXPECT_TRUE(m.regressed);
    }
    if (m.name == "serve_rps") {
      EXPECT_FALSE(m.regressed);
    }
  }
  EXPECT_TRUE(p95_flagged);

  // ...throughput-like metrics regress downward (direction-normalized).
  prof::Trajectory t2;
  for (const char* label : {"a", "b", "c"}) t2.append(bench(1000, 1e-3), label);
  t2.append(bench(600, 1e-3), "throttled");
  check = t2.check(5, 1.25);
  ASSERT_TRUE(check.regressed());
  for (const auto& m : check.metrics) {
    if (m.name == "serve_rps") {
      EXPECT_TRUE(m.higher_is_better);
      EXPECT_GT(m.ratio, 1.25);
      EXPECT_TRUE(m.regressed);
    }
  }

  // config.* never gates, even on a big deliberate change.
  prof::Trajectory t3;
  t3.append(bench(1000, 1e-3), "a");
  auto big = bench(1000, 1e-3);
  prof::Json big_config = prof::Json::object();
  big_config.set("requests", 4096);
  big.set("config", big_config);
  t3.append(big, "bigger-bench");
  check = t3.check(5, 1.25);
  for (const auto& m : check.metrics) {
    if (m.name == "config.requests") {
      EXPECT_GT(m.ratio, 1.25);
      EXPECT_FALSE(m.regressed);
    }
  }
  EXPECT_FALSE(check.regressed());

  // A metric the previous entry had but the head lost is schema drift.
  prof::Json partial = prof::Json::object();
  partial.set("serve_rps", 1000.0);
  t3.append(partial, "lost-p95");
  check = t3.check(5, 1.25);
  ASSERT_FALSE(check.missing.empty());
  bool lost_p95 = false;
  for (const auto& [stream, name] : check.missing)
    lost_p95 |= stream.empty() && name == "p95_s";
  EXPECT_TRUE(lost_p95);

  EXPECT_THROW(t3.check(0, 1.25), std::invalid_argument);
  EXPECT_THROW(t3.check(5, 0.0), std::invalid_argument);
}

// CI appends serve, then sharded, then iter snapshots and checks once:
// every stream's head must be gated, not only the last-appended one.
TEST(ProfTrajectory, CheckGatesEveryStreamNotOnlyTheLastAppended) {
  auto serve = [](double rps, double p99) {
    prof::Json j = prof::Json::object();
    j.set("bench", "serve_throughput");
    j.set("serve_rps", rps);
    prof::Json lat = prof::Json::object();
    lat.set("p99_s", p99);
    j.set("request_latency", lat);
    return j;
  };
  auto iter = [](double recovery) {
    prof::Json j = prof::Json::object();
    j.set("bench", "iter");
    j.set("recovery", recovery);
    return j;
  };

  prof::Trajectory t;
  t.append(serve(1000, 1e-3), "base");
  t.append(iter(0.95), "base-iter");
  t.append(serve(1000, 1.2e-3), "slow");  // 1.2x p99 on the serve stream
  t.append(iter(0.95), "slow-iter");
  const auto check = t.check(1, 1.15);
  ASSERT_TRUE(check.regressed());
  bool p99_flagged = false;
  for (const auto& m : check.metrics) {
    if (m.name == "request_latency.p99_s") {
      EXPECT_EQ(m.stream, "serve_throughput");
      EXPECT_NEAR(m.ratio, 1.2, 1e-9);
      p99_flagged |= m.regressed;
    }
    if (m.stream == "iter") {
      EXPECT_FALSE(m.regressed);
    }
  }
  EXPECT_TRUE(p99_flagged);

  // An unchanged history passes.
  prof::Trajectory same;
  for (const char* label : {"a", "b"}) {
    same.append(serve(1000, 1e-3), label);
    same.append(iter(0.95), label);
  }
  EXPECT_FALSE(same.check(1, 1.15).regressed());

  // recovery is a fraction of the oracle: a rise is no regression, a drop
  // is.
  prof::Trajectory up;
  up.append(iter(0.8), "a");
  up.append(iter(1.0), "b");
  EXPECT_FALSE(up.check(1, 1.15).regressed());
  prof::Trajectory down;
  down.append(iter(1.0), "a");
  down.append(iter(0.8), "b");
  EXPECT_TRUE(down.check(1, 1.15).regressed());
  EXPECT_TRUE(prof::Trajectory::higher_is_better("recovery"));

  // Schema drift in a stream that is not the last appended is reported
  // under its own stream.
  prof::Trajectory drift;
  drift.append(serve(1000, 1e-3), "a");
  prof::Json lost = prof::Json::object();
  lost.set("bench", "serve_throughput");
  lost.set("serve_rps", 1000.0);
  drift.append(lost, "b");
  drift.append(iter(0.95), "c");
  const auto drifted = drift.check(1, 1.15);
  ASSERT_EQ(drifted.missing.size(), 1u);
  EXPECT_EQ(drifted.missing[0].first, "serve_throughput");
  EXPECT_EQ(drifted.missing[0].second, "request_latency.p99_s");
}

// Only performance signals gate: a counter that moves with batching or
// bandit noise (one extra promotion is 4 -> 5 = 1.25x) is reported but
// never fails the check, while a time or a throughput still does.
TEST(ProfTrajectory, CountersAreReportedButNotGated) {
  auto iter = [](double promotions, double refined_gflops) {
    prof::Json j = prof::Json::object();
    j.set("bench", "iter");
    j.set("rows", 20000.0);
    j.set("l_promotions", promotions);
    j.set("refined_gflops", refined_gflops);
    return j;
  };
  prof::Trajectory t;
  t.append(iter(4, 2.0), "a");
  t.append(iter(5, 2.0), "b");
  auto check = t.check(1, 1.15);
  EXPECT_FALSE(check.regressed());
  bool promotions_reported = false;
  for (const auto& m : check.metrics) {
    if (m.name == "l_promotions") {
      promotions_reported = true;
      EXPECT_NEAR(m.ratio, 1.25, 1e-9);
      EXPECT_FALSE(m.gated);
    }
    if (m.name == "refined_gflops") {
      EXPECT_TRUE(m.gated);
    }
  }
  EXPECT_TRUE(promotions_reported);

  t.append(iter(5, 1.5), "slow");
  EXPECT_TRUE(t.check(1, 1.15).regressed());

  for (const char* name : {"batches", "l_trials", "warm_starts", "nnz",
                           "rejected", "stored_spmm_width", "config.rows"})
    EXPECT_FALSE(prof::Trajectory::gated(name)) << name;
  for (const char* name :
       {"serve_rps", "shard_speedup", "cache_hit_rate", "recovery",
        "request_latency.p99_s", "queue_wait.p95_s", "flat_ms"})
    EXPECT_TRUE(prof::Trajectory::gated(name)) << name;
}

TEST(ProfTrajectory, SaveLoadRoundTripAndMarkdownDashboard) {
  const std::string path =
      ::testing::TempDir() + "/autospmv_trajectory_test.json";
  std::remove(path.c_str());

  // A missing file bootstraps an empty trajectory.
  auto t = prof::Trajectory::load_file(path);
  EXPECT_TRUE(t.empty());

  prof::Json bench = prof::Json::object();
  bench.set("serve_rps", 1200.0);
  bench.set("p95_s", 2e-3);
  t.append(bench, "commit-1");
  bench.set("serve_rps", 1300.0);
  t.append(bench, "commit-2");
  t.save_file(path);

  const auto loaded = prof::Trajectory::load_file(path);
  ASSERT_EQ(loaded.entries().size(), 2u);
  EXPECT_EQ(loaded.entries()[0].label, "commit-1");
  EXPECT_EQ(loaded.entries()[1].seq, 2u);
  EXPECT_DOUBLE_EQ(*loaded.entries()[1].find("serve_rps"), 1300.0);
  // Appending after a reload keeps the sequence monotonic.
  auto more = loaded;
  more.append(bench, "commit-3");
  EXPECT_EQ(more.entries().back().seq, 3u);

  const auto md = loaded.render_markdown();
  EXPECT_NE(md.find("# Perf trajectory"), std::string::npos);
  EXPECT_NE(md.find("`commit-2`"), std::string::npos);
  EXPECT_NE(md.find("| `serve_rps` |"), std::string::npos);
  EXPECT_NE(md.find("▁"), std::string::npos);  // sparkline rendered
  EXPECT_NE(md.find("1300"), std::string::npos);

  // A corrupt history must not pass silently.
  {
    std::ofstream out(path);
    out << "not json";
  }
  EXPECT_THROW(prof::Trajectory::load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ProfRunProfile, BinSamplesStaySortedByBinId) {
  prof::RunProfile p;
  p.add_bin_run(7, "vector", 1, 1, 10, 0.1);
  p.add_bin_run(2, "serial", 1, 1, 10, 0.1);
  p.add_bin_run(5, "subvector4", 1, 1, 10, 0.1);
  ASSERT_EQ(p.bins.size(), 3u);
  EXPECT_EQ(p.bins[0].bin_id, 2);
  EXPECT_EQ(p.bins[1].bin_id, 5);
  EXPECT_EQ(p.bins[2].bin_id, 7);
}

TEST(Tuner, BuildsProfiledRuntimeAndRecordsRuns) {
  prof::ScopedEnable on;
  const auto a = gen::power_law<float>(4000, 4000, 2.0, 200, /*seed=*/7);
  core::HeuristicPredictor pred;
  prof::RunProfile profile;
  const auto spmv =
      core::Tuner(a).predictor(pred).profile(&profile).build();

  // Plan description is recorded at build time.
  EXPECT_EQ(profile.rows, a.rows());
  EXPECT_EQ(profile.nnz, a.nnz());
  EXPECT_EQ(profile.plan, spmv.plan().to_string());
  EXPECT_GT(profile.plan_timing.features_s, 0.0);
  EXPECT_GT(profile.plan_timing.binning_s, 0.0);

  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  const int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) spmv.run(x, std::span<float>(y));

  EXPECT_EQ(profile.runs, static_cast<std::uint64_t>(kRuns));
  EXPECT_GT(profile.run_total_s, 0.0);
  ASSERT_FALSE(profile.bins.empty());
  std::int64_t bins_nnz = 0;
  for (const auto& b : profile.bins) {
    EXPECT_EQ(b.launches, static_cast<std::uint64_t>(kRuns));
    EXPECT_GT(b.seconds, 0.0);
    bins_nnz += b.nnz;
  }
  // The occupied bins partition the matrix.
  EXPECT_EQ(bins_nnz, static_cast<std::int64_t>(a.nnz()));
  EXPECT_GT(profile.engine.launches, 0u);
  EXPECT_GT(profile.engine.groups, 0u);

  // Correctness: matches the sequential reference.
  std::vector<float> expect(static_cast<std::size_t>(a.rows()));
  kernels::spmv_sequential(a, std::span<const float>(x),
                           std::span<float>(expect));
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_NEAR(expect[i], y[i], 1e-3f * (std::abs(expect[i]) + 1.0f));
}

TEST(Tuner, RunOverloadFillsCallerProfile) {
  const auto a = gen::banded<float>(2000, 9, 0.9, /*seed=*/3);
  core::HeuristicPredictor pred;
  const auto spmv = core::Tuner(a).predictor(pred).build();
  EXPECT_EQ(spmv.profile(), nullptr);

  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  prof::RunProfile local;
  spmv.run(std::span<const float>(x), std::span<float>(y), &local);
  EXPECT_EQ(local.runs, 1u);
  EXPECT_FALSE(local.bins.empty());
}

TEST(Tuner, SchemeAndUnitOverrides) {
  const auto a = gen::power_law<float>(3000, 3000, 2.0, 100, /*seed=*/11);
  core::HeuristicPredictor pred;

  const auto single =
      core::Tuner(a).predictor(pred).scheme(binning::SchemeKind::SingleBin)
          .build();
  EXPECT_TRUE(single.plan().single_bin);
  ASSERT_EQ(single.plan().bin_kernels.size(), 1u);
  EXPECT_EQ(single.plan().bin_kernels[0].bin_id, 0);

  const auto fine =
      core::Tuner(a).predictor(pred).scheme(binning::SchemeKind::Fine).build();
  EXPECT_EQ(fine.plan().unit, 1);
  EXPECT_FALSE(fine.plan().single_bin);

  const auto forced = core::Tuner(a).predictor(pred).unit(50).build();
  EXPECT_EQ(forced.plan().unit, 50);

  EXPECT_THROW(core::Tuner(a).predictor(pred)
                   .scheme(binning::SchemeKind::Hybrid)
                   .build(),
               std::invalid_argument);
}

TEST(Tuner, ConfigurationErrors) {
  const auto a = gen::banded<float>(100, 3, 0.9, /*seed=*/1);
  EXPECT_THROW(core::Tuner(a).build(), std::logic_error);

  core::Plan plan;
  plan.unit = 10;
  plan.bin_kernels.push_back({0, kernels::KernelId::Serial});
  EXPECT_THROW(core::Tuner(a).plan(plan).unit(10).build(),
               std::invalid_argument);

  // plan() alone works and executes correctly.
  const auto spmv = core::Tuner(a).plan(plan).build();
  EXPECT_EQ(spmv.plan().unit, 10);
}

TEST(ExhaustiveTune, RecordsPerCandidateCost) {
  const auto a = gen::power_law<float>(2000, 2000, 2.0, 80, /*seed=*/5);
  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  core::CandidatePools pools;
  pools.units = {10, 100};
  pools.kernel_pool = {kernels::KernelId::Serial, kernels::KernelId::Sub8};
  pools.include_single_bin = true;

  prof::RunProfile profile;
  core::ExhaustiveOptions opts;
  opts.measure = {.warmup = 0, .reps = 1, .max_total_s = 0.05};
  opts.profile = &profile;
  core::exhaustive_tune(*exec::shared_backend(exec::BackendKind::Clsim), a,
                        std::span<const float>(x), pools, opts);

  ASSERT_EQ(profile.tuning.size(), 3u);  // U=10, U=100, single-bin
  EXPECT_EQ(profile.tuning[0].label, "U=10");
  EXPECT_EQ(profile.tuning[1].label, "U=100");
  EXPECT_EQ(profile.tuning[2].label, "single-bin");
  for (const auto& c : profile.tuning) {
    EXPECT_GT(c.measure_s, 0.0);
    EXPECT_GT(c.measurements, 0);
    EXPECT_GT(c.best_s, 0.0);
  }
  EXPECT_GE(profile.tuning_total_s,
            profile.tuning[0].measure_s + profile.tuning[1].measure_s);
}
