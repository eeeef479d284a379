// spmv::shard: partition invariants (coverage, nnz balance, locality
// search), extract_shard fidelity, FairQueue DRR ratios / per-tenant quota
// rejections / fifo baseline, the ShardedService end-to-end contracts
// (reference-accurate results, bit-exact scatter-gather against per-shard
// standalone runtimes, plan-store warm starts with shard provenance,
// per-tenant/per-shard stats blocks, admission rejections), sharded-plan
// JSON round trips, the obs sink's per-producer-group rings, and the
// perf-trajectory learned threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "autospmv.hpp"

using namespace spmv;

namespace {

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Fresh per-test obs segment directory (same idiom as test_obs).
class ObsDir {
 public:
  explicit ObsDir(const std::string& name)
      : path_(::testing::TempDir() + "/autospmv_shard_" + name) {
    std::filesystem::remove_all(path_);
  }
  ~ObsDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<prof::Json> read_records(const std::vector<std::string>& files) {
  std::vector<prof::Json> out;
  for (const auto& f : files) {
    std::ifstream in(f);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) out.push_back(prof::Json::parse(line));
    }
  }
  return out;
}

std::vector<float> random_x(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// The suite's mixed-regime workload: short/mid/long row blocks so the K
/// shards see genuinely different structure.
std::shared_ptr<const CsrMatrix<float>> mixed_matrix(index_t rows,
                                                     std::uint64_t seed) {
  return std::make_shared<const CsrMatrix<float>>(
      gen::mixed_regime<float>(rows, rows, 0.6, 0.32, 4, 30, 60, 32, seed));
}

/// Random CSR with a random row-length regime (partition fuzzing).
CsrMatrix<double> random_csr(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto rows = static_cast<index_t>(1 + rng.bounded(200));
  const auto cols = static_cast<index_t>(1 + rng.bounded(200));
  CooMatrix<double> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    auto len = static_cast<index_t>(rng.bounded(8));
    if (rng.uniform() < 0.1)
      len = static_cast<index_t>(rng.bounded(static_cast<std::uint64_t>(cols)));
    len = std::min(len, cols);
    for (index_t k = 0; k < len; ++k)
      coo.add(r, static_cast<index_t>(rng.bounded(
                     static_cast<std::uint64_t>(cols))),
              rng.uniform(-1.0, 1.0));
  }
  return coo_to_csr(std::move(coo));
}

void expect_partition_invariants(const CsrMatrix<double>& a,
                                 const std::vector<shard::ShardRange>& ranges,
                                 const std::string& note) {
  ASSERT_FALSE(ranges.empty()) << note;
  ASSERT_EQ(ranges.front().row_begin, 0) << note;
  ASSERT_EQ(ranges.back().row_end, a.rows()) << note;
  offset_t nnz = 0;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    if (s > 0) {
      ASSERT_EQ(ranges[s].row_begin, ranges[s - 1].row_end) << note;
    }
    ASSERT_LE(ranges[s].row_begin, ranges[s].row_end) << note;
    ASSERT_EQ(ranges[s].nnz,
              a.row_ptr()[static_cast<std::size_t>(ranges[s].row_end)] -
                  a.row_ptr()[static_cast<std::size_t>(ranges[s].row_begin)])
        << note;
    nnz += ranges[s].nnz;
  }
  ASSERT_EQ(nnz, a.nnz()) << note;
}

}  // namespace

// ---------------------------------------------------------------------------
// Partitioner

TEST(ShardPartition, CoversRowsAndBalancesNnz) {
  const auto a = convert_values<double>(*mixed_matrix(4000, 11));
  shard::PartitionOptions opts;
  opts.shards = 4;
  const auto ranges = shard::partition_rows(a, opts);
  ASSERT_EQ(ranges.size(), 4u);
  expect_partition_invariants(a, ranges, "K=4 mixed");
  // Balance: no shard beyond 1.5x the ideal nnz share (the locality search
  // trades a bounded amount of imbalance, never more).
  const double ideal = static_cast<double>(a.nnz()) / 4.0;
  for (const auto& r : ranges) {
    EXPECT_LT(static_cast<double>(r.nnz), 1.5 * ideal)
        << "shard [" << r.row_begin << ", " << r.row_end << ")";
    EXPECT_GT(r.rows(), 0);
  }
}

TEST(ShardPartition, RandomizedInvariantsAndClamping) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto a = random_csr(seed * 7919);
    for (int k : {1, 2, 3, 7, 1000}) {
      shard::PartitionOptions opts;
      opts.shards = k;
      const auto ranges = shard::partition_rows(a, opts);
      const auto note = "seed " + std::to_string(seed) + " K=" +
                        std::to_string(k) + " rows=" +
                        std::to_string(a.rows());
      // K clamps to [1, rows]: never more shards than rows, never zero.
      ASSERT_LE(ranges.size(),
                static_cast<std::size_t>(std::max<index_t>(1, a.rows())))
          << note;
      expect_partition_invariants(a, ranges, note);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardPartition, PurePrefixCutsStayWithinOneRowOfIdeal) {
  const auto a = convert_values<double>(*mixed_matrix(3000, 5));
  shard::PartitionOptions opts;
  opts.shards = 5;
  opts.locality_weight = 0.0;  // disable the local search entirely
  const auto ranges = shard::partition_rows(a, opts);
  expect_partition_invariants(a, ranges, "pure prefix cuts");
  // With the locality term off, every cut sits on the nnz prefix sum: a
  // prefix shard's cumulative nnz overshoots its ideal share by less than
  // the heaviest single row (the prefix-sum cut granularity).
  offset_t max_row = 0;
  for (index_t r = 0; r < a.rows(); ++r)
    max_row = std::max(max_row,
                       a.row_ptr()[static_cast<std::size_t>(r) + 1] -
                           a.row_ptr()[static_cast<std::size_t>(r)]);
  offset_t cum = 0;
  for (std::size_t s = 0; s + 1 < ranges.size(); ++s) {
    cum += ranges[s].nnz;
    const double ideal = static_cast<double>(a.nnz()) *
                         static_cast<double>(s + 1) /
                         static_cast<double>(ranges.size());
    EXPECT_LT(std::abs(static_cast<double>(cum) - ideal),
              static_cast<double>(max_row) + 1.0)
        << "cut " << s;
  }
}

TEST(ShardPartition, ExtractShardReproducesParentRows) {
  const auto a = random_csr(0xE47);
  shard::PartitionOptions opts;
  opts.shards = 3;
  const auto set = shard::plan_shards(a, opts);
  ASSERT_EQ(set.count(), static_cast<int>(set.ranges.size()));
  ASSERT_EQ(set.matrices.size(), set.ranges.size());
  ASSERT_EQ(set.fingerprints.size(), set.ranges.size());
  EXPECT_EQ(set.parent_hash, serve::fingerprint_of(a).row_hash);
  for (std::size_t s = 0; s < set.ranges.size(); ++s) {
    const auto& range = set.ranges[s];
    const auto& sub = *set.matrices[s];
    ASSERT_EQ(sub.rows(), range.rows());
    ASSERT_EQ(sub.cols(), a.cols());  // every shard multiplies the full x
    ASSERT_EQ(sub.nnz(), range.nnz);
    ASSERT_EQ(set.fingerprints[s], serve::fingerprint_of(sub));
    for (index_t r = 0; r < sub.rows(); ++r) {
      const auto parent_row = static_cast<std::size_t>(range.row_begin + r);
      const auto pb = a.row_ptr()[parent_row];
      const auto pe = a.row_ptr()[parent_row + 1];
      const auto sb = sub.row_ptr()[static_cast<std::size_t>(r)];
      ASSERT_EQ(pe - pb, sub.row_ptr()[static_cast<std::size_t>(r) + 1] - sb);
      for (offset_t i = 0; i < pe - pb; ++i) {
        ASSERT_EQ(sub.col_idx()[static_cast<std::size_t>(sb + i)],
                  a.col_idx()[static_cast<std::size_t>(pb + i)]);
        ASSERT_EQ(sub.vals()[static_cast<std::size_t>(sb + i)],
                  a.vals()[static_cast<std::size_t>(pb + i)]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FairQueue

TEST(FairQueue, DrrServesBacklogProportionallyToWeights) {
  shard::FairQueue<int> q({{"heavy", 3.0}, {"light", 1.0}},
                          shard::QueuePolicy::Fair, 100);
  const std::size_t heavy = q.tenant_index("heavy");
  const std::size_t light = q.tenant_index("light");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(q.push(heavy, i));
    if (i < 10) {
      ASSERT_TRUE(q.push(light, 100 + i));
    }
  }
  // Both backlogged for the first 40 pops: DRR must serve 3:1.
  int got_heavy = 0;
  int got_light = 0;
  int window_light = 0;
  for (int i = 0; i < 40; ++i) {
    int item = -1;
    std::size_t tenant = 99;
    ASSERT_TRUE(q.pop(&item, &tenant));
    (tenant == heavy ? got_heavy : got_light) += 1;
    // Starvation bound: the light tenant is served at least once in any
    // aligned window of 4 pops.
    window_light += tenant == light ? 1 : 0;
    if (i % 4 == 3) {
      EXPECT_GE(window_light, 1) << "pops " << i - 3 << ".." << i;
      window_light = 0;
    }
  }
  EXPECT_EQ(got_heavy, 30);
  EXPECT_EQ(got_light, 10);
  EXPECT_EQ(q.counters(heavy).dispatched, 30u);
  EXPECT_EQ(q.counters(light).dispatched, 10u);
  // Drain the rest; the queue must hand everything back exactly once.
  int item = 0;
  std::size_t n = 0;
  while (q.pop(&item)) n += 1;
  EXPECT_EQ(n, 10u);
  EXPECT_TRUE(q.empty());
}

TEST(FairQueue, QuotaBouncesTheFlooderAndKeepsOtherSlotsFree) {
  shard::FairQueue<int> q({{"a", 1.0}, {"b", 1.0}}, shard::QueuePolicy::Fair,
                          8);
  const std::size_t a = q.tenant_index("a");
  const std::size_t b = q.tenant_index("b");
  EXPECT_EQ(q.quota(a), 4u);
  EXPECT_EQ(q.quota(b), 4u);
  int accepted = 0;
  for (int i = 0; i < 6; ++i) accepted += q.push(a, i) ? 1 : 0;
  EXPECT_EQ(accepted, 4);  // a's quota, not the global bound
  EXPECT_EQ(q.counters(a).rejected, 2u);
  // b's slots stayed free despite a's flood.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(b, i));
  EXPECT_EQ(q.counters(b).rejected, 0u);
  // Now the global high water is reached: everyone bounces.
  EXPECT_FALSE(q.push(b, 99));
  EXPECT_EQ(q.counters(b).rejected, 1u);
  EXPECT_EQ(q.size(), 8u);
}

TEST(FairQueue, FifoPreservesGlobalArrivalOrder) {
  shard::FairQueue<int> q({{"a", 5.0}, {"b", 1.0}}, shard::QueuePolicy::Fifo,
                          16);
  const std::size_t a = q.tenant_index("a");
  const std::size_t b = q.tenant_index("b");
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i % 2 == 0 ? a : b, i));
  for (int i = 0; i < 10; ++i) {
    int item = -1;
    std::size_t tenant = 99;
    ASSERT_TRUE(q.pop(&item, &tenant));
    EXPECT_EQ(item, i);  // arrival order, weights ignored
    EXPECT_EQ(tenant, i % 2 == 0 ? a : b);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FairQueue, UnknownTenantThrowsAndDefaultRosterExists) {
  shard::FairQueue<int> q({}, shard::QueuePolicy::Fair, 4);
  EXPECT_EQ(q.tenant_count(), 1u);
  EXPECT_NO_THROW((void)q.tenant_index("default"));
  EXPECT_THROW((void)q.tenant_index("nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ShardedService

TEST(ShardedService, MatchesReferenceAndScatterGatherIsLossless) {
  const auto a = mixed_matrix(2000, 3);
  const auto ad = convert_values<double>(*a);
  const core::HeuristicPredictor pred;
  shard::ShardedOptions opts;
  opts.partition.shards = 3;
  shard::ShardedService<float> service(a, pred, opts);

  const auto x = random_x(static_cast<std::size_t>(a->cols()), 77);
  const std::vector<double> xd(x.begin(), x.end());
  const auto exact = kernels::spmv_exact(ad, std::span<const double>(xd));
  const std::vector<float> y = service.run("default", x);
  ASSERT_EQ(y.size(), static_cast<std::size_t>(a->rows()));
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale = std::abs(exact[i]) + 1.0;
    ASSERT_NEAR(static_cast<double>(y[i]), exact[i], 2e-4 * scale)
        << "row " << i;
  }

  // Scatter-gather must be lossless: each shard's slice of y is BIT-equal
  // to a standalone runtime built from the same sub-matrix and the same
  // plan (row results are shard-local, so assembly may not perturb them).
  const auto infos = service.shard_infos();
  ASSERT_EQ(infos.size(), 3u);
  for (const auto& info : infos) {
    const auto& sub = *service.shards().matrices[static_cast<std::size_t>(
        info.index)];
    const auto rt = core::Tuner<float>(sub).plan(info.plan).build();
    std::vector<float> ys(static_cast<std::size_t>(sub.rows()));
    rt.run(std::span<const float>(x), std::span<float>(ys));
    for (std::size_t r = 0; r < ys.size(); ++r) {
      ASSERT_EQ(y[static_cast<std::size_t>(info.range.row_begin) + r], ys[r])
          << "shard " << info.index << " local row " << r
          << " differs bit-for-bit";
    }
  }
  service.shutdown();
}

TEST(ShardedService, PlanStoreWarmStartCarriesShardProvenance) {
  ScopedFile f("shard_store.tmp.json");
  const auto a = mixed_matrix(1500, 9);
  const core::HeuristicPredictor pred;
  constexpr int kShards = 3;

  prof::RunProfile profile1;
  std::uint64_t parent = 0;
  {
    adapt::PlanStore store(f.path);
    shard::ShardedOptions opts;
    opts.partition.shards = kShards;
    opts.plan_store = &store;
    opts.profile = &profile1;
    shard::ShardedService<float> service(a, pred, opts);
    parent = service.shards().parent_hash;
    (void)service.run("default",
                      random_x(static_cast<std::size_t>(a->cols()), 1));
    for (const auto& info : service.shard_infos()) {
      EXPECT_FALSE(info.warm_start);
      EXPECT_EQ(info.plan.shard_index, info.index);
      EXPECT_EQ(info.plan.shard_count, kShards);
      EXPECT_EQ(info.plan.shard_parent, parent);
    }
    service.shutdown();
    // Every shard wrote its plan through, provenance included.
    for (const auto& fp : service.shards().fingerprints) {
      const auto sp = store.lookup(fp);
      ASSERT_TRUE(sp.has_value());
      EXPECT_EQ(sp->plan.shard_count, kShards);
      EXPECT_EQ(sp->plan.shard_parent, parent);
    }
  }
  EXPECT_EQ(profile1.serve.planning_passes, static_cast<std::uint64_t>(kShards));

  prof::RunProfile profile2;
  {
    adapt::PlanStore store(f.path);
    shard::ShardedOptions opts;
    opts.partition.shards = kShards;
    opts.plan_store = &store;
    opts.profile = &profile2;
    shard::ShardedService<float> service(a, pred, opts);
    for (const auto& info : service.shard_infos())
      EXPECT_TRUE(info.warm_start) << "shard " << info.index;
    (void)service.run("default",
                      random_x(static_cast<std::size_t>(a->cols()), 2));
    service.shutdown();
  }
  EXPECT_EQ(profile2.serve.planning_passes, 0u);
  EXPECT_EQ(profile2.serve.cache_warm_hits,
            static_cast<std::uint64_t>(kShards));
}

// A shard whose stored plan fails to build erases it and plans again at
// construction, instead of every service over that store throwing; the
// flushed store then holds the shard's new plan.
TEST(ShardedService, UnbuildableStoredPlanIsErasedAndReplanned) {
  ScopedFile f("shard_unbuildable_store.tmp.json");
  const auto a = mixed_matrix(1500, 9);
  const core::HeuristicPredictor pred;
  constexpr int kShards = 3;
  shard::PartitionOptions popts;
  popts.shards = kShards;
  const auto set = shard::plan_shards(*a, popts);

  adapt::PlanStore store(f.path);
  store.load();
  adapt::StoredPlan bad;
  bad.plan.unit = 0;  // binning rejects a unit below 1
  bad.plan.backend = exec::BackendKind::Native;
  store.put(set.fingerprints[1], bad);

  prof::RunProfile profile;
  {
    shard::ShardedOptions opts;
    opts.partition.shards = kShards;
    opts.plan_store = &store;
    opts.profile = &profile;
    shard::ShardedService<float> service(a, pred, opts);
    for (const auto& info : service.shard_infos())
      EXPECT_FALSE(info.warm_start) << "shard " << info.index;
    EXPECT_EQ(store.stats().erased, 1u);
    (void)service.run("default",
                      random_x(static_cast<std::size_t>(a->cols()), 3));
    service.shutdown();
  }
  EXPECT_EQ(profile.serve.planning_passes, static_cast<std::uint64_t>(kShards));
  EXPECT_EQ(profile.serve.cache_warm_hits, 0u);

  adapt::PlanStore reread(f.path);
  (void)reread.load();
  const auto got = reread.lookup(set.fingerprints[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(got->plan.unit, 1);
  EXPECT_EQ(got->plan.shard_index, 1);
}

TEST(ShardedService, StatsCarryPerTenantAndPerShardBlocks) {
  const auto a = mixed_matrix(1200, 21);
  const core::HeuristicPredictor pred;
  shard::ShardedOptions opts;
  opts.partition.shards = 2;
  opts.tenants = {{"interactive", 4.0}, {"batch", 1.0}};
  shard::ShardedService<float> service(a, pred, opts);
  for (int i = 0; i < 4; ++i)
    (void)service.run("interactive",
                      random_x(static_cast<std::size_t>(a->cols()),
                               static_cast<std::uint64_t>(i)));
  for (int i = 0; i < 2; ++i)
    (void)service.run("batch",
                      random_x(static_cast<std::size_t>(a->cols()),
                               static_cast<std::uint64_t>(100 + i)));
  const prof::ServeStats s = service.stats();
  service.shutdown();

  ASSERT_EQ(s.tenants.size(), 2u);
  const auto& ti = s.tenants[0].name == "interactive" ? s.tenants[0]
                                                      : s.tenants[1];
  const auto& tb = s.tenants[0].name == "interactive" ? s.tenants[1]
                                                      : s.tenants[0];
  EXPECT_EQ(ti.name, "interactive");
  EXPECT_DOUBLE_EQ(ti.weight, 4.0);
  EXPECT_EQ(ti.requests, 4u);
  EXPECT_EQ(tb.requests, 2u);
  EXPECT_EQ(ti.rejected, 0u);
  EXPECT_EQ(ti.latency.count(), 4u);
  EXPECT_EQ(tb.latency.count(), 2u);

  ASSERT_EQ(s.shards.size(), 2u);
  for (const auto& sh : s.shards) {
    EXPECT_EQ(sh.executions, 6u);  // every request fans out to every shard
    EXPECT_GT(sh.nnz, 0);
    EXPECT_FALSE(sh.plan.empty());
    EXPECT_NE(sh.plan.find("shard"), std::string::npos)
        << "plan string must carry shard provenance: " << sh.plan;
  }
  EXPECT_EQ(s.requests, 6u);
}

TEST(ShardedService, AdmissionBouncesAreCountedPerTenant) {
  const auto a = mixed_matrix(2500, 31);
  const core::HeuristicPredictor pred;
  shard::ShardedOptions opts;
  opts.partition.shards = 2;
  opts.queue_high_water = 1;
  opts.dispatch_window = 1;
  shard::ShardedService<float> service(a, pred, opts);

  const auto x = random_x(static_cast<std::size_t>(a->cols()), 5);
  constexpr int kSubmitted = 32;
  std::vector<std::future<std::vector<float>>> futs;
  int rejected = 0;
  for (int i = 0; i < kSubmitted; ++i) {
    try {
      futs.push_back(service.submit("default", x));
    } catch (const serve::QueueFullError&) {
      rejected += 1;
    }
  }
  for (auto& f : futs) (void)f.get();
  const prof::ServeStats s = service.stats();
  service.shutdown();

  // Back-to-back submission against a high water of 1 cannot all be
  // admitted: the worker would have to complete ~all requests while the
  // submit loop runs.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kSubmitted - rejected));
  EXPECT_EQ(s.rejected, static_cast<std::uint64_t>(rejected));
  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].rejected, static_cast<std::uint64_t>(rejected));
}

// ---------------------------------------------------------------------------
// Sharded-plan JSON provenance

TEST(ShardPlanIo, ProvenanceRoundTripsAndUnshardedStaysBare) {
  const auto a = mixed_matrix(600, 1);
  const core::HeuristicPredictor pred;
  const auto rt = core::Tuner<float>(*a).predictor(pred).build();
  core::Plan plan = rt.plan();

  // Unsharded: the JSON artifact keeps the pre-shard shape.
  const prof::Json bare = core::plan_to_json(plan);
  EXPECT_EQ(bare.find("shard_index"), nullptr);
  const core::Plan bare_back = core::plan_from_json(bare);
  EXPECT_EQ(bare_back.shard_index, -1);

  plan.shard_index = 2;
  plan.shard_count = 4;
  plan.shard_parent = 0xDEADBEEFCAFEF00DULL;
  const prof::Json j = core::plan_to_json(plan);
  const core::Plan back = core::plan_from_json(j);
  EXPECT_EQ(back.shard_index, 2);
  EXPECT_EQ(back.shard_count, 4);
  EXPECT_EQ(back.shard_parent, 0xDEADBEEFCAFEF00DULL);
  EXPECT_NE(back.to_string().find("shard 2/4"), std::string::npos)
      << back.to_string();

  // Tampered provenance (index beyond count) must not load.
  prof::Json bad = core::plan_to_json(plan);
  bad.set("shard_count", 2);
  EXPECT_THROW((void)core::plan_from_json(bad), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Obs sink producer groups

TEST(ShardObs, ProducerGroupsRouteToOwnRingsWithPerRingDropAccounting) {
  ObsDir dir("rings");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.producer_groups = 3;
  sopts.ring_capacity = 4;
  sopts.start_paused = true;  // deterministic drop injection
  obs::StreamingSink sink(sopts);

  // Group 2 overflows its own ring; group 0 stays within its capacity.
  obs::StreamingSink::set_producer_group(2);
  int accepted = 0;
  for (int i = 0; i < 6; ++i)
    accepted += sink.push_stat("shard.exec_s", 0.1, /*shard=*/2) ? 1 : 0;
  EXPECT_EQ(accepted, 4);
  obs::StreamingSink::set_producer_group(0);
  EXPECT_TRUE(sink.push_stat("serve.request_latency_s", 0.2));

  sink.resume();
  sink.close();
  const auto stats = sink.stats();
  EXPECT_EQ(stats.flushed, 5u);
  EXPECT_EQ(stats.dropped, 2u);
  ASSERT_EQ(stats.dropped_by_ring.size(), 3u);
  EXPECT_EQ(stats.dropped_by_ring[0], 0u);
  EXPECT_EQ(stats.dropped_by_ring[1], 0u);
  EXPECT_EQ(stats.dropped_by_ring[2], 2u);

  // Shard-tagged stat deltas surface the tag as an attrs object.
  int tagged = 0;
  for (const auto& r : read_records(sink.segment_files())) {
    if (r.at("name").as_string() == "shard.exec_s") {
      EXPECT_EQ(r.at("attrs").at("shard").as_int(), 2);
      tagged += 1;
    }
  }
  EXPECT_EQ(tagged, 4);
}

TEST(ShardObs, ShardedServiceStreamsShardTaggedStats) {
  ObsDir dir("service");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.producer_groups = 3;  // 2 shards + ring 0
  obs::StreamingSink sink(sopts);

  const auto a = mixed_matrix(1000, 41);
  const core::HeuristicPredictor pred;
  shard::ShardedOptions opts;
  opts.partition.shards = 2;
  opts.obs_sink = &sink;
  {
    shard::ShardedService<float> service(a, pred, opts);
    for (int i = 0; i < 3; ++i)
      (void)service.run("default",
                        random_x(static_cast<std::size_t>(a->cols()),
                                 static_cast<std::uint64_t>(i)));
    service.shutdown();
  }
  // Shard workers retagged their threads; restore the default group for
  // whatever reuses this thread.
  obs::StreamingSink::set_producer_group(0);
  sink.close();

  std::vector<int> exec_per_shard(2, 0);
  for (const auto& r : read_records(sink.segment_files())) {
    if (r.at("type").as_string() != "stat") continue;
    if (r.at("name").as_string() != "shard.exec_s") continue;
    const auto shard = r.at("attrs").at("shard").as_int();
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 2);
    exec_per_shard[static_cast<std::size_t>(shard)] += 1;
  }
  EXPECT_EQ(exec_per_shard[0], 3);
  EXPECT_EQ(exec_per_shard[1], 3);
  EXPECT_EQ(sink.stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// Learned trajectory threshold

TEST(Trajectory, LearnedGateWidensWithWindowNoiseAndFloorsAtFixed) {
  prof::Trajectory t;
  const double noisy[] = {1.0, 1.4, 0.6, 1.2, 0.8};  // mean 1.0, sigma .283
  for (double v : noisy) {
    auto j = prof::Json::object();
    j.set("noisy_ms", v);
    j.set("flat_ms", 1.0);
    t.append(j, "hist");
  }
  auto head = prof::Json::object();
  head.set("noisy_ms", 1.6);  // 1.6x the window mean
  head.set("flat_ms", 1.3);   // 1.3x the window mean
  t.append(head, "head");

  // Fixed gate: both exceed 1.25x and regress.
  const auto fixed = t.check(5, 1.25);
  ASSERT_EQ(fixed.metrics.size(), 2u);
  for (const auto& m : fixed.metrics) {
    EXPECT_TRUE(m.regressed) << m.name;
    EXPECT_DOUBLE_EQ(m.threshold, 1.25) << m.name;
  }

  // Learned gate: the noisy metric earns mean + 3*sigma headroom
  // (~1.85x here) and stops regressing; the flat metric's variance is 0,
  // so its gate collapses to the 1.25 floor and it still regresses.
  const auto learned = t.check(5, 1.25, /*learned=*/true);
  ASSERT_EQ(learned.metrics.size(), 2u);
  for (const auto& m : learned.metrics) {
    if (m.name == "noisy_ms") {
      EXPECT_FALSE(m.regressed);
      EXPECT_NEAR(m.threshold, 1.0 + 3.0 * std::sqrt(0.08), 1e-9);
    } else {
      EXPECT_TRUE(m.regressed);
      EXPECT_DOUBLE_EQ(m.threshold, 1.25);
    }
  }
  EXPECT_TRUE(learned.regressed());
}

// One PERF_TRAJECTORY file interleaving the standard and sharded serve
// snapshots: every stream's head is gated, each only against its own
// stream — the other bench's entries neither pollute the rolling mean nor
// read as schema drift — and the stream tag survives a save/load round
// trip.
TEST(Trajectory, MixedBenchStreamsGateIndependently) {
  auto standard = [](double rps) {
    auto j = prof::Json::object();
    j.set("bench", "serve_throughput");
    j.set("serve_rps", rps);
    return j;
  };
  auto sharded = [](double rps) {
    auto j = prof::Json::object();
    j.set("bench", "serve_throughput");
    j.set("mode", "sharded");
    j.set("sharded_rps", rps);
    return j;
  };

  prof::Trajectory t;
  for (int i = 0; i < 3; ++i) {
    t.append(standard(1000.0), "run" + std::to_string(i));
    t.append(sharded(4000.0), "run" + std::to_string(i) + "-sharded");
  }

  // The first sharded append followed a standard-only history and must
  // have been observe-only, not schema drift (the cold-start CI case).
  {
    prof::Trajectory cold;
    cold.append(standard(1000.0), "seed");
    cold.append(sharded(4000.0), "first-sharded");
    const auto c = cold.check(5, 1.25);
    EXPECT_TRUE(c.metrics.empty());
    EXPECT_TRUE(c.missing.empty());
  }

  // A sharded head regresses against sharded history only; the adjacent
  // standard entries (different schema) never surface as missing, and the
  // standard stream's own head stays green.
  t.append(sharded(2000.0), "slow-sharded");
  auto check = t.check(5, 1.25);
  EXPECT_TRUE(check.missing.empty());
  ASSERT_EQ(check.metrics.size(), 2u);
  for (const auto& m : check.metrics) {
    if (m.stream == "serve_throughput/sharded") {
      EXPECT_EQ(m.name, "sharded_rps");
      EXPECT_NEAR(m.ratio, 2.0, 1e-9);
      EXPECT_TRUE(m.regressed);
    } else {
      EXPECT_EQ(m.stream, "serve_throughput");
      EXPECT_EQ(m.name, "serve_rps");
      EXPECT_FALSE(m.regressed);
    }
  }
  EXPECT_TRUE(check.regressed());

  // A healthy standard head appended after it does not hide the slow
  // sharded head; only a recovered sharded head clears the gate.
  t.append(standard(1000.0), "healthy-standard");
  check = t.check(5, 1.25);
  EXPECT_TRUE(check.missing.empty());
  EXPECT_TRUE(check.regressed());
  t.append(sharded(4000.0), "recovered-sharded");
  EXPECT_FALSE(t.check(5, 1.25).regressed());

  // Stream tags round-trip through the JSON form.
  const auto reloaded = prof::Trajectory::from_json(t.to_json());
  ASSERT_EQ(reloaded.entries().size(), t.entries().size());
  EXPECT_EQ(reloaded.entries().back().stream, "serve_throughput/sharded");
  EXPECT_EQ(reloaded.entries()[reloaded.entries().size() - 2].stream,
            "serve_throughput");
  EXPECT_FALSE(reloaded.check(5, 1.25).regressed());
}
