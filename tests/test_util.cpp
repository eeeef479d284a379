// Unit tests for src/util: timing, RNG, statistics, CLI parsing, and the
// huge-page path of util::Buffer.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/value_pool.hpp"
#include "util/buffer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace spmv::util;

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = t.elapsed_ms();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 2000.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.reset();
  EXPECT_LT(t.elapsed_ms(), 10.0);
}

TEST(Timer, UnitsAreConsistent) {
  Timer t;
  const double s = t.elapsed_s();
  const double us = t.elapsed_us();
  EXPECT_GE(us, s * 1e6);  // us sampled after s
}

TEST(Measure, RunsRequestedReps) {
  int calls = 0;
  const auto r = measure([&] { ++calls; }, {.warmup = 2, .reps = 5,
                                            .max_total_s = 10.0});
  EXPECT_EQ(calls, 7);  // 2 warmup + 5 timed
  EXPECT_EQ(r.reps, 5);
  EXPECT_LE(r.best_s, r.mean_s + 1e-12);
}

TEST(Measure, AlwaysRunsAtLeastOnce) {
  int calls = 0;
  const auto r = measure(
      [&] {
        ++calls;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      },
      {.warmup = 0, .reps = 100, .max_total_s = 0.0});
  EXPECT_GE(calls, 1);
  EXPECT_GE(r.reps, 1);
  EXPECT_LT(r.reps, 100);  // budget cut it short
}

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, IsDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.25);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.25);
  }
}

TEST(Xoshiro256, BoundedIsInRange) {
  Xoshiro256 rng(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1048576ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Xoshiro256, BoundedOneAlwaysZero) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro256, BoundedCoversAllValues) {
  Xoshiro256 rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, RangeInclusive) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, NormalHasRoughlyStandardMoments) {
  Xoshiro256 rng(10);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Xoshiro256, ZipfStaysInRangeAndIsSkewed) {
  Xoshiro256 rng(11);
  std::uint64_t ones = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.zipf(100, 2.0);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  // With s=2 the mass at 1 is ~61%; verify heavy skew toward small values.
  EXPECT_GT(ones, 10000u);
}

TEST(Xoshiro256, ZipfDegenerateN) {
  Xoshiro256 rng(12);
  EXPECT_EQ(rng.zipf(1, 2.0), 1u);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (double x : xs) stats.add(x);
  const double mean = (1 + 2 + 4 + 8 + 16) / 5.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5.0;
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne) {
  RunningStats stats;
  stats.add(1.0);
  EXPECT_EQ(stats.sample_variance(), 0.0);
  stats.add(3.0);
  EXPECT_NEAR(stats.sample_variance(), 2.0, 1e-12);
  EXPECT_NEAR(stats.variance(), 1.0, 1e-12);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h({0, 10, 100});
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(99);
  h.add(100);   // overflow bucket
  h.add(5000);  // overflow bucket
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_DOUBLE_EQ(h.fraction_below(100), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(10), 2.0 / 6.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h({0, 10});
  h.add(3, 7);
  h.add(12, 3);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.bucket(0), 7u);
  EXPECT_DOUBLE_EQ(h.fraction_below(10), 0.7);
}

TEST(Histogram, RejectsBadEdges) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({5, 3}), std::invalid_argument);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(v), 4.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, Median) {
  const std::vector<double> odd = {5.0, 1.0, 3.0};
  const std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog",         "--alpha=3", "--beta",
                        "7",            "pos1",      "--delta=x y",
                        "--gamma"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("gamma", false));  // bare trailing flag
  EXPECT_EQ(cli.get("delta"), "x y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("nope"));
  EXPECT_EQ(cli.get("nope", "def"), "def");
  EXPECT_EQ(cli.get_int("nope", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("nope", 2.5), 2.5);
  EXPECT_TRUE(cli.get_bool("nope", true));
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false"};
  Cli cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, RejectUnknownNamesTheFirstStrayFlag) {
  const char* argv[] = {"prog", "--rows=10", "--check", "pos"};
  const Cli cli(4, argv);
  EXPECT_NO_THROW(cli.reject_unknown({"rows", "check"}));
  EXPECT_NO_THROW(cli.reject_unknown({"check", "rows", "iter"}));
  // Positional arguments are not flags; a flag nobody lists throws, even
  // one in bare boolean form (the stale `--formats --check` case).
  const char* stale[] = {"prog", "--formats", "--check"};
  const Cli old(3, stale);
  try {
    old.reject_unknown({"rows", "check"});
    FAIL() << "unknown flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--formats"), std::string::npos);
  }
  const char* none[] = {"prog"};
  EXPECT_NO_THROW(Cli(1, none).reject_unknown({}));
}

// --- util::Buffer's huge-page path ------------------------------------------

using spmv::CsrMatrix;
using spmv::index_t;
using spmv::ValuePool;

/// Entries that make a Buffer<T> exactly kHugeArrayBytes long.
template <typename T>
constexpr std::size_t huge_entries() {
  return kHugeArrayBytes / sizeof(T);
}

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes == 0;
}

/// Whether the page holding `p` is mapped in this process: mincore()
/// fails with ENOMEM on an unmapped page. A freed huge array is unmapped,
/// so this tells the two free paths apart (and under ASan, freeing either
/// kind of array by the other's path is a reported error).
bool mapped(const void* p) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto at = reinterpret_cast<std::uintptr_t>(p) / page * page;
  unsigned char resident = 0;
  return ::mincore(reinterpret_cast<void*>(at), page, &resident) == 0 ||
         errno != ENOMEM;
}

TEST(HugeArrays, ArraysFromTheThresholdOnAreHugePageAligned) {
  const Buffer<float> at(huge_entries<float>());
  EXPECT_TRUE(huge_aligned(at.data()));
  const Buffer<std::uint16_t> over(huge_entries<std::uint16_t>() + 3);
  EXPECT_TRUE(huge_aligned(over.data()));
  const Buffer<double> filled(huge_entries<double>(), 2.5);  // fills still fill
  EXPECT_TRUE(huge_aligned(filled.data()));
  EXPECT_EQ(filled.front(), 2.5);
  EXPECT_EQ(filled.back(), 2.5);
}

TEST(HugeArrays, GrowthAcrossTheThresholdKeepsEntriesAndUnmapsOnFree) {
  const void* last = nullptr;
  {
    Buffer<std::int32_t> v;
    const std::size_t n = huge_entries<std::int32_t>() * 2 + 17;
    bool crossed = false;  // a reallocation from the heap onto a mapping
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cap = v.capacity();
      v.push_back(static_cast<std::int32_t>(i));
      if (v.capacity() != cap &&
          cap * sizeof(std::int32_t) < kHugeArrayBytes &&
          v.capacity() * sizeof(std::int32_t) >= kHugeArrayBytes)
        crossed = true;
    }
    EXPECT_TRUE(crossed);
    EXPECT_TRUE(huge_aligned(v.data()));
    for (std::size_t i = 0; i < n; i += 4099)
      ASSERT_EQ(v[i], static_cast<std::int32_t>(i));
    EXPECT_EQ(v.back(), static_cast<std::int32_t>(n - 1));
    last = v.data();
    EXPECT_TRUE(mapped(last));
  }
  EXPECT_FALSE(mapped(last));
}

TEST(HugeArrays, ReleasedCsrValuesAreFreedByTheirOwnPath) {
  // One row of entries, whose values reach the threshold.
  const auto nnz = static_cast<index_t>(huge_entries<float>());
  std::vector<index_t> cols(static_cast<std::size_t>(nnz));
  for (index_t j = 0; j < nnz; ++j) cols[static_cast<std::size_t>(j)] = j;
  CsrMatrix<float> m(1, nnz, {0, nnz}, std::move(cols),
                     std::vector<float>(static_cast<std::size_t>(nnz), 1.5f));
  EXPECT_TRUE(huge_aligned(m.vals().data()));
  const void* at = nullptr;
  {
    const Buffer<float> vals = std::move(m).release_values();
    at = vals.data();
    EXPECT_TRUE(huge_aligned(at));
    EXPECT_EQ(vals.back(), 1.5f);
    EXPECT_EQ(m.nnz(), 0);
  }
  EXPECT_FALSE(mapped(at));
}

TEST(HugeArrays, ValuePoolRoundTripHandsBackTheSameMapping) {
  const std::size_t n = huge_entries<double>();
  const std::shared_ptr<const void> structure = std::make_shared<int>(0);
  const void* at = nullptr;
  {
    ValuePool<Buffer<double>> pool;
    Buffer<double> v = pool.take(structure, n);  // fresh
    at = v.data();
    EXPECT_TRUE(huge_aligned(at));
    v[0] = 4.0;
    pool.put(structure, std::move(v));
    Buffer<double> again = pool.take(structure, n);  // the spare
    EXPECT_EQ(again.data(), at);
    EXPECT_EQ(again[0], 4.0);
    EXPECT_EQ(pool.recycled(), 1u);
    pool.put(structure, std::move(again));
  }  // the pool frees its spare
  EXPECT_FALSE(mapped(at));
}

}  // namespace
