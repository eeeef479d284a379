// Persistence and input fuzzing: the plan store, the plan
// (de)serializers and the Matrix Market reader face untrusted bytes —
// hand-edited artifacts, partial writes from a crash mid-rename, copy
// corruption, hostile size lines. Contract under test: PlanStore::load()
// NEVER throws or crashes regardless of input (it falls back to an empty
// store with the reason counted in stats, and stays flushable), and
// core::plan_from_json fails only by throwing std::exception (no UB on
// huge/negative/non-integral numbers, no crash on type confusion).
//
// Randomized passes derive from SPMV_TEST_SEED (same replay protocol as
// test_differential); every assertion message carries the seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/plan_store.hpp"
#include "binning/binning.hpp"
#include "core/plan_io.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "kernels/registry.hpp"
#include "sparse/mm_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace spmv;

std::uint64_t base_seed() {
  if (const char* s = std::getenv("SPMV_TEST_SEED"); s != nullptr && *s != '\0')
    return std::strtoull(s, nullptr, 10);
  return 0xF0221EDULL;
}

std::string seed_note(std::uint64_t base, std::uint64_t seed) {
  return " (seed " + std::to_string(seed) +
         ", replay with SPMV_TEST_SEED=" + std::to_string(base) + ")";
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A random but internally valid Plan, including tuned-U provenance.
core::Plan random_plan(util::Xoshiro256& rng) {
  core::Plan p;
  p.unit = static_cast<index_t>(1 + rng.bounded(1000000));
  p.single_bin = rng.uniform() < 0.25;
  p.revision = rng.bounded(1000);
  p.unit_tuned = rng.uniform() < 0.5;
  p.predicted_unit =
      rng.uniform() < 0.5 ? 0 : static_cast<index_t>(1 + rng.bounded(1000000));
  p.backend = static_cast<exec::BackendKind>(
      rng.bounded(static_cast<std::uint64_t>(exec::kBackendCount)));
  const auto& pool = kernels::all_kernels();
  const auto random_format = [&rng] {
    return static_cast<fmt::FormatKind>(
        rng.bounded(static_cast<std::uint64_t>(fmt::kFormatCount)));
  };
  if (p.single_bin) {
    p.bin_kernels.push_back(
        {0, pool[rng.bounded(pool.size())], random_format()});
  } else {
    int bin = 0;
    const int n = 1 + static_cast<int>(rng.bounded(8));
    for (int i = 0; i < n && bin < binning::kMaxBins; ++i) {
      p.bin_kernels.push_back(
          {bin, pool[rng.bounded(pool.size())], random_format()});
      bin += 1 + static_cast<int>(rng.bounded(12));
    }
  }
  return p;
}

void expect_plans_equal(const core::Plan& a, const core::Plan& b,
                        const std::string& note) {
  EXPECT_EQ(a.unit, b.unit) << note;
  EXPECT_EQ(a.single_bin, b.single_bin) << note;
  EXPECT_EQ(a.revision, b.revision) << note;
  EXPECT_EQ(a.unit_tuned, b.unit_tuned) << note;
  EXPECT_EQ(a.predicted_unit, b.predicted_unit) << note;
  EXPECT_EQ(a.backend, b.backend) << note;
  ASSERT_EQ(a.bin_kernels.size(), b.bin_kernels.size()) << note;
  for (std::size_t i = 0; i < a.bin_kernels.size(); ++i) {
    EXPECT_EQ(a.bin_kernels[i].bin_id, b.bin_kernels[i].bin_id) << note;
    EXPECT_EQ(a.bin_kernels[i].kernel, b.bin_kernels[i].kernel) << note;
    EXPECT_EQ(a.bin_kernels[i].format, b.bin_kernels[i].format) << note;
  }
}

serve::Fingerprint random_fingerprint(util::Xoshiro256& rng) {
  serve::Fingerprint f;
  f.rows = static_cast<std::int64_t>(1 + rng.bounded(1000000));
  f.cols = static_cast<std::int64_t>(1 + rng.bounded(1000000));
  f.nnz = static_cast<std::int64_t>(rng.bounded(10000000));
  f.row_hash = rng.next();
  return f;
}

// ---- plan_io round-trip + fuzz ------------------------------------------

TEST(PlanIoFuzz, RoundTripRandomPlansWithProvenance) {
  const std::uint64_t base = base_seed();
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t seed =
        util::SplitMix64(base + static_cast<std::uint64_t>(i)).next();
    util::Xoshiro256 rng(seed);
    const core::Plan p = random_plan(rng);
    // Through the text layer, not just the Json tree: the store writes text.
    const auto back = core::plan_from_json(
        prof::Json::parse(core::plan_to_json(p).dump(2)));
    expect_plans_equal(p, back, "plan " + std::to_string(i) +
                                    seed_note(base, seed));
  }
}

TEST(PlanIoFuzz, MutatedPlanJsonThrowsOrParsesButNeverCrashes) {
  const std::uint64_t base = base_seed();
  util::Xoshiro256 rng(util::SplitMix64(base ^ 0x9a7).next());
  const std::string text = core::plan_to_json(random_plan(rng)).dump(2);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = text;
    // 1-4 random byte edits: flip, overwrite with a random byte, or delete.
    const int edits = 1 + static_cast<int>(rng.bounded(4));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = rng.bounded(mutated.size());
      switch (rng.bounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(mutated[pos] ^
                                           (1 << rng.bounded(8)));
          break;
        case 1:
          mutated[pos] = static_cast<char>(rng.bounded(256));
          break;
        default:
          mutated.erase(pos, 1);
          break;
      }
    }
    try {
      (void)core::plan_from_json(prof::Json::parse(mutated));
    } catch (const std::exception&) {
      // Throwing is the allowed failure mode; crashing/UB is not.
    }
  }
}

TEST(PlanIoFuzz, TypeConfusedPlanFieldsThrowCleanly) {
  util::Xoshiro256 rng(7);
  const core::Plan p = random_plan(rng);
  // Each mutation swaps one field for a wrong-typed or out-of-range value;
  // all must throw std::exception (never crash, never return garbage).
  const std::vector<std::pair<const char*, prof::Json>> bad = {
      {"unit", prof::Json("ten")},
      {"unit", prof::Json(0)},
      {"unit", prof::Json(1e300)},
      {"unit", prof::Json(3.5)},
      {"revision", prof::Json(-2)},
      {"single_bin", prof::Json("yes")},
      {"unit_tuned", prof::Json(1.0)},
      {"predicted_unit", prof::Json(-1e20)},
      {"bins", prof::Json("not-an-array")},
      // Backend-field type confusion: wrong JSON type, and a well-typed
      // string that names no backend. Both must surface as the same
      // runtime_error family every other malformed field raises.
      {"backend", prof::Json("turbo")},
      {"backend", prof::Json(1)},
      {"backend", prof::Json(true)},
      {"backend", prof::Json::array()},
  };
  for (const auto& [key, value] : bad) {
    prof::Json j = core::plan_to_json(p);
    j.set(key, value);
    EXPECT_THROW((void)core::plan_from_json(j), std::exception)
        << "field " << key << " = " << value.dump(0);
  }
}

TEST(PlanIoFuzz, UnknownOrGarbageFormatNamesThrowCleanly) {
  const std::uint64_t base = base_seed();
  util::Xoshiro256 rng(util::SplitMix64(base ^ 0xF02).next());
  const core::Plan p = random_plan(rng);
  // Deterministic near-misses plus random byte soup: every name the format
  // registry does not know must surface as the counted-skip runtime_error
  // family — never crash, never silently load as some format.
  std::vector<std::string> names = {"",     "ELL",  "csr ", "ell2",
                                    "hyb",  "bsr",  "dcsr\n", "\xff\xfe"};
  for (int i = 0; i < 50; ++i) {
    std::string s;
    const auto len = 1 + rng.bounded(12);
    for (std::uint64_t c = 0; c < len; ++c)
      s.push_back(static_cast<char>(rng.bounded(256)));
    names.push_back(std::move(s));
  }
  for (const auto& name : names) {
    fmt::FormatKind k;
    if (fmt::try_format_from_name(name, &k))
      continue;  // the soup hit a real name; round-trip tests cover those
    prof::Json j = core::plan_to_json(p);
    prof::Json bins = prof::Json::array();
    bool first = true;
    for (const prof::Json& b : j.at("bins").items()) {
      prof::Json copy = b;
      if (first) {
        copy.set("format", prof::Json(name));
        first = false;
      }
      bins.push_back(std::move(copy));
    }
    j.set("bins", std::move(bins));
    EXPECT_THROW((void)core::plan_from_json(j), std::exception)
        << "format name of " << name.size() << " bytes silently loaded";
  }
  // Wrong-typed format values fail the same way.
  for (const prof::Json& bad :
       {prof::Json(3), prof::Json(true), prof::Json::array()}) {
    prof::Json j = core::plan_to_json(p);
    prof::Json bins = prof::Json::array();
    prof::Json bin = j.at("bins").at(std::size_t{0});
    bin.set("format", bad);
    bins.push_back(std::move(bin));
    if (!p.single_bin) {
      bool first = true;
      for (const prof::Json& b : j.at("bins").items()) {
        if (first) {
          first = false;
          continue;
        }
        bins.push_back(b);
      }
    }
    j.set("bins", std::move(bins));
    EXPECT_THROW((void)core::plan_from_json(j), std::exception)
        << "format = " << bad.dump(0);
  }
}

// ---- PlanStore fuzz ------------------------------------------------------

/// A valid one-entry store file at `path`, returning the entry written.
/// The plan is native: the store keeps no other kind (a non-native entry
/// loads as a skip; test_adapt covers that path).
std::pair<serve::Fingerprint, adapt::StoredPlan> write_valid_store(
    const std::string& path, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  adapt::PlanStore store(path, "dev-a", "model-a");
  adapt::StoredPlan sp;
  sp.plan = random_plan(rng);
  sp.plan.backend = exec::BackendKind::Native;
  sp.gflops = rng.uniform(0.1, 10.0);
  sp.trials = rng.bounded(500);
  const auto key = random_fingerprint(rng);
  store.put(key, sp);
  store.flush();
  return {key, sp};
}

TEST(PlanStoreFuzz, StoreRoundTripPreservesPlanAndProvenance) {
  const std::uint64_t base = base_seed();
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seed =
        util::SplitMix64(base + 5000 + static_cast<std::uint64_t>(i)).next();
    ScopedFile f("fuzz_store_roundtrip.tmp.json");
    const auto [key, sp] = write_valid_store(f.path, seed);
    adapt::PlanStore reread(f.path, "dev-a", "model-a");
    const auto stats = reread.load();
    const std::string note = seed_note(base, seed);
    ASSERT_EQ(stats.loaded, 1u) << note;
    const auto got = reread.lookup(key);
    ASSERT_TRUE(got.has_value()) << note;
    expect_plans_equal(sp.plan, got->plan, note);
    EXPECT_DOUBLE_EQ(sp.gflops, got->gflops) << note;
    EXPECT_EQ(sp.trials, got->trials) << note;
  }
}

TEST(PlanStoreFuzz, CorruptedStoreFilesNeverThrowAndStayFlushable) {
  const std::uint64_t base = base_seed();
  ScopedFile f("fuzz_store_corrupt.tmp.json");
  const std::uint64_t seed = util::SplitMix64(base ^ 0xC0221).next();
  write_valid_store(f.path, seed);
  const std::string valid = read_text(f.path);
  ASSERT_FALSE(valid.empty());

  util::Xoshiro256 rng(seed ^ 1);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    if (i % 3 == 0) {
      // Truncation: a crash mid-write leaves a prefix.
      mutated.resize(rng.bounded(mutated.size()));
    } else {
      const int edits = 1 + static_cast<int>(rng.bounded(6));
      for (int e = 0; e < edits; ++e) {
        const auto pos = rng.bounded(mutated.size());
        mutated[pos] = static_cast<char>(rng.bounded(256));
      }
    }
    write_text(f.path, mutated);
    adapt::PlanStore store(f.path, "dev-a", "model-a");
    ASSERT_NO_THROW((void)store.load())
        << "mutation " << i << seed_note(base, seed);
    // Whatever survived, the store must still be writable over the damage.
    ASSERT_NO_THROW(store.flush())
        << "mutation " << i << seed_note(base, seed);
  }
}

TEST(PlanStoreFuzz, TypeConfusedStoreFieldsAreSkippedAndCounted) {
  ScopedFile f("fuzz_store_types.tmp.json");
  write_valid_store(f.path, 42);
  const prof::Json valid = prof::Json::parse(read_text(f.path));

  struct Case {
    const char* name;
    const char* field;  // top-level or entry-level field to corrupt
    prof::Json value;
    bool whole_file;  // corruption rejects the whole file vs one entry
  };
  const std::vector<Case> cases = {
      {"schema as string", "schema", prof::Json("v1"), true},
      {"schema wrong version", "schema", prof::Json(999), true},
      {"entries as object", "entries", prof::Json::object(), true},
      {"device as number", "device", prof::Json(3.0), false},
      {"plan as string", "plan", prof::Json("fast"), false},
      {"fingerprint as array", "fingerprint", prof::Json::array(), false},
      {"trials as string", "trials", prof::Json("many"), false},
      {"trials negative", "trials", prof::Json(-7), false},
      {"trials huge", "trials", prof::Json(1e300), false},
      {"saved_unix_ms non-integral", "saved_unix_ms", prof::Json(1.5), false},
      {"last_used_unix_ms huge", "last_used_unix_ms", prof::Json(1e18),
       false},
  };
  for (const auto& c : cases) {
    prof::Json doc = valid;
    if (c.whole_file) {
      doc.set(c.field, c.value);
    } else {
      prof::Json entry = doc.at("entries").at(std::size_t{0});
      entry.set(c.field, c.value);
      prof::Json entries = prof::Json::array();
      entries.push_back(std::move(entry));
      doc.set("entries", std::move(entries));
    }
    write_text(f.path, doc.dump(2));
    adapt::PlanStore store(f.path, "dev-a", "model-a");
    adapt::PlanStoreStats stats;
    ASSERT_NO_THROW(stats = store.load()) << c.name;
    EXPECT_EQ(stats.loaded, 0u) << c.name;
    EXPECT_GT(stats.skipped_schema + stats.skipped_malformed, 0u) << c.name;
    EXPECT_EQ(store.size(), 0u) << c.name;
  }
}

TEST(PlanStoreFuzz, UnknownFormatNameIsCountedSkipAndStaysFlushable) {
  // A store entry whose plan names a format this build does not know (a
  // newer writer, or plain corruption) is a per-entry counted skip — the
  // same contract as an unknown kernel or backend name.
  ScopedFile f("fuzz_store_badformat.tmp.json");
  write_valid_store(f.path, 314);
  prof::Json doc = prof::Json::parse(read_text(f.path));
  prof::Json entry = doc.at("entries").at(std::size_t{0});
  prof::Json plan = entry.at("plan");
  prof::Json bins = prof::Json::array();
  bool first = true;
  for (const prof::Json& b : plan.at("bins").items()) {
    prof::Json copy = b;
    if (first) {
      copy.set("format", prof::Json("zebra-major"));
      first = false;
    }
    bins.push_back(std::move(copy));
  }
  plan.set("bins", std::move(bins));
  entry.set("plan", std::move(plan));
  prof::Json entries = prof::Json::array();
  entries.push_back(std::move(entry));
  doc.set("entries", std::move(entries));
  write_text(f.path, doc.dump(2));

  adapt::PlanStore store(f.path, "dev-a", "model-a");
  adapt::PlanStoreStats stats;
  ASSERT_NO_THROW(stats = store.load());
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped_malformed, 1u);
  EXPECT_EQ(store.size(), 0u);
  ASSERT_NO_THROW(store.flush());
}

TEST(PlanStoreFuzz, V2SchemaWithoutFormatsLoadsAsCsr) {
  // Pre-format artifacts (schema 2, bins with no format key) must keep
  // loading: the schema gate accepts the supported range and every bin
  // defaults to the CSR physical layout.
  ScopedFile f("fuzz_store_v2.tmp.json");
  const auto key = write_valid_store(f.path, 456).first;
  prof::Json doc = prof::Json::parse(read_text(f.path));
  doc.set("schema", prof::Json(2));
  prof::Json entry = doc.at("entries").at(std::size_t{0});
  prof::Json plan = entry.at("plan");
  prof::Json bins = prof::Json::array();
  for (const prof::Json& b : plan.at("bins").items()) {
    prof::Json v2bin = prof::Json::object();
    v2bin.set("bin", b.at("bin"));
    v2bin.set("kernel", b.at("kernel"));
    bins.push_back(std::move(v2bin));
  }
  plan.set("bins", std::move(bins));
  entry.set("plan", std::move(plan));
  prof::Json entries = prof::Json::array();
  entries.push_back(std::move(entry));
  doc.set("entries", std::move(entries));
  write_text(f.path, doc.dump(2));

  adapt::PlanStore store(f.path, "dev-a", "model-a");
  const auto stats = store.load();
  EXPECT_EQ(stats.loaded, 1u);
  const auto got = store.lookup(key);
  ASSERT_TRUE(got.has_value());
  for (const auto& bp : got->plan.bin_kernels)
    EXPECT_EQ(bp.format, fmt::FormatKind::Csr);
}

TEST(PlanStoreFuzz, ForeignEntriesSurviveLoadFlushOfDamagedSiblings) {
  // One good foreign entry + one malformed own entry: the malformed one is
  // skipped, the foreign one must still round-trip through flush().
  ScopedFile f("fuzz_store_foreign.tmp.json");
  write_valid_store(f.path, 77);
  prof::Json doc = prof::Json::parse(read_text(f.path));
  prof::Json foreign = doc.at("entries").at(std::size_t{0});
  foreign.set("device", prof::Json("dev-other"));
  prof::Json broken = doc.at("entries").at(std::size_t{0});
  broken.set("plan", prof::Json("oops"));
  prof::Json entries = prof::Json::array();
  entries.push_back(std::move(foreign));
  entries.push_back(std::move(broken));
  doc.set("entries", std::move(entries));
  write_text(f.path, doc.dump(2));

  adapt::PlanStore store(f.path, "dev-a", "model-a");
  const auto stats = store.load();
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.skipped_device, 1u);
  EXPECT_EQ(stats.skipped_malformed, 1u);
  store.flush();

  adapt::PlanStore other(f.path, "dev-other", "model-a");
  const auto ostats = other.load();
  EXPECT_EQ(ostats.loaded, 1u);
}

// ---- Matrix Market size lines ----------------------------------------------

/// A Matrix Market file is untrusted input too: its size line must not
/// wrap into negative index_t dimensions or drive an allocation sized by
/// a count the file never backs with entries.
TEST(MatrixMarketFuzz, HostileSizeLinesThrowTypedErrors) {
  const auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_matrix_market<double>(ss);
  };
  const std::string banner = "%%MatrixMarket matrix coordinate real general\n";
  // Rows one past index_t: used to wrap to a negative dimension.
  EXPECT_THROW(parse(banner + "2147483648 2 1\n1 1 1.0\n"),
               MatrixMarketError);
  EXPECT_THROW(parse(banner + "2 2147483648 1\n1 1 1.0\n"),
               MatrixMarketError);
  // A 3-line file claiming 10^15 entries: used to reserve ~16 PB up front.
  EXPECT_THROW(parse(banner + "4 4 1000000000000000\n1 1 1.0\n"),
               MatrixMarketError);
  // Symmetric expansion doubles the count past offset_t.
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 9223372036854775807\n1 1 1.0\n"),
      MatrixMarketError);
  // The largest representable dimensions still parse.
  const auto edge = parse(banner + "2147483647 2147483647 1\n5 7 2.5\n");
  EXPECT_EQ(edge.rows(), 2147483647);
  EXPECT_EQ(edge.nnz(), 1u);
}

/// Random size lines drawn from the index/offset boundaries: a parse
/// either succeeds within bounds or throws MatrixMarketError — never
/// another exception, a wrapped dimension, or an unbounded allocation.
TEST(MatrixMarketFuzz, RandomBoundarySizeLinesParseOrThrowTyped) {
  const std::uint64_t base = base_seed();
  const long long edges[] = {0,          1,           2,
                             2147483647, 2147483648,  4294967296,
                             1LL << 40,  1000000000000000LL,
                             4611686018427387904LL, 9223372036854775807LL};
  const char* kinds[] = {"real general", "pattern general", "real symmetric",
                         "integer skew-symmetric"};
  util::Xoshiro256 rng(base ^ 0x3A7EULL);
  for (int i = 0; i < 200; ++i) {
    const long long rows = edges[rng.bounded(std::size(edges))];
    const long long cols = edges[rng.bounded(std::size(edges))];
    const long long entries = edges[rng.bounded(std::size(edges))];
    const std::string kind = kinds[rng.bounded(std::size(kinds))];
    std::string text = "%%MatrixMarket matrix coordinate " + kind + "\n" +
                       std::to_string(rows) + " " + std::to_string(cols) +
                       " " + std::to_string(entries) + "\n";
    const auto lines = rng.bounded(3);
    for (std::uint64_t k = 0; k < lines; ++k)
      text += kind.rfind("pattern", 0) == 0 ? "1 1\n" : "1 1 1\n";
    const std::string where = "size line " + std::to_string(rows) + " " +
                              std::to_string(cols) + " " +
                              std::to_string(entries) + " (" + kind + ")" +
                              seed_note(base, static_cast<std::uint64_t>(i));
    try {
      std::stringstream ss(text);
      const auto coo = read_matrix_market<float>(ss);
      EXPECT_LE(rows, 2147483647) << where;
      EXPECT_LE(cols, 2147483647) << where;
      EXPECT_EQ(coo.rows(), rows) << where;
      EXPECT_LE(static_cast<long long>(coo.nnz()), entries * 2) << where;
    } catch (const MatrixMarketError&) {
      // The typed refusal.
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": untyped " << e.what();
    }
  }
}

}  // namespace
