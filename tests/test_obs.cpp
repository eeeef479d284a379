// spmv::obs: streaming-sink segment round trips, crash-safe rotation
// bounds, injected-drop accounting (paused flusher), a failed rotation's
// or full disk's lost records counted as dropped, concurrent producers
// (the tsan target), trace-observer attach, and the end-to-end acceptance
// path: every non-empty latency bucket's exemplar trace id resolves to a
// span in the rotated segment files.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autospmv.hpp"

using namespace spmv;

namespace {

/// A fresh per-test segment directory under gtest's temp root, removed on
/// destruction so reruns never see a predecessor's segments.
class ObsDir {
 public:
  explicit ObsDir(const std::string& name)
      : path_(::testing::TempDir() + "/autospmv_obs_" + name) {
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

/// Every JSONL record in `files`, parsed.
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

obs::Record make_span(const char* name, std::uint64_t trace_id,
                      std::uint64_t ts_ns = 0) {
  obs::Record r;
  r.kind = obs::Record::Kind::Span;
  r.name = name;
  r.category = "test";
  r.trace_id = trace_id;
  r.ts_ns = ts_ns;
  r.dur_ns = 100;
  return r;
}

}  // namespace

TEST(ObsSink, SegmentRoundTripPreservesSpanAndStatFields) {
  ObsDir dir("roundtrip");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  obs::StreamingSink sink(sopts);

  obs::Record span = make_span("kernel-run", 42, 1000);
  span.tid = 3;
  span.arg_keys[0] = "rows";
  span.arg_vals[0] = 128;
  EXPECT_TRUE(sink.push(span));
  EXPECT_TRUE(sink.push_stat("serve.batch_width", 4.5));
  sink.close();

  const auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.flushed, 2u);
  EXPECT_GT(stats.bytes_written, 0u);
  // close() rotated the active segment: nothing is left in-progress.
  EXPECT_FALSE(std::filesystem::exists(sink.active_path()));

  const auto records = read_records(sink.segment_files());
  ASSERT_EQ(records.size(), 2u);
  const auto& s = records[0];
  EXPECT_EQ(s.at("type").as_string(), "span");
  EXPECT_EQ(s.at("name").as_string(), "kernel-run");
  EXPECT_EQ(s.at("cat").as_string(), "test");
  EXPECT_EQ(s.at("trace_id").as_uint(), 42u);
  EXPECT_EQ(s.at("tid").as_uint(), 3u);
  EXPECT_EQ(s.at("ts_ns").as_uint(), 1000u);
  EXPECT_EQ(s.at("dur_ns").as_uint(), 100u);
  EXPECT_EQ(s.at("attrs").at("rows").as_int(), 128);
  const auto& st = records[1];
  EXPECT_EQ(st.at("type").as_string(), "stat");
  EXPECT_EQ(st.at("name").as_string(), "serve.batch_width");
  EXPECT_DOUBLE_EQ(st.at("value").as_number(), 4.5);
}

TEST(ObsSink, RotationBoundsDiskAndNamesSegmentsCrashSafely) {
  ObsDir dir("rotate");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.segment_max_bytes = 512;  // rotate every handful of records
  sopts.max_segments = 3;
  obs::StreamingSink sink(sopts);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(sink.push(make_span("fill", static_cast<std::uint64_t>(i))));
    if (i % 25 == 0) sink.flush_now();
  }
  sink.close();

  const auto stats = sink.stats();
  EXPECT_EQ(stats.flushed, 200u);
  EXPECT_GT(stats.rotations, 3u);  // rotated well past the retention cap

  // Retention: only the newest max_segments survive, all fully renamed
  // (no .part suffix — a crashed process leaves at most one .part file).
  const auto files = sink.segment_files();
  ASSERT_LE(files.size(), sopts.max_segments);
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) {
    const auto name = std::filesystem::path(f).filename().string();
    EXPECT_EQ(name.rfind("segment-", 0), 0u) << name;
    EXPECT_EQ(name.size(), std::string("segment-000000.jsonl").size());
    EXPECT_EQ(name.substr(name.size() - 6), ".jsonl");
    EXPECT_TRUE(std::filesystem::exists(f));
  }
  // Segments are oldest-first and the retained tail is the newest records.
  const auto records = read_records(files);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().at("trace_id").as_uint(), 199u);
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(records[i - 1].at("trace_id").as_uint(),
              records[i].at("trace_id").as_uint());
  // Nothing else leaked into the directory.
  std::size_t on_disk = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path()))
    on_disk += e.is_regular_file() ? 1 : 0;
  EXPECT_EQ(on_disk, files.size());
}

TEST(ObsSink, PausedFlusherDropsExactlyTheOverflowAndStaysBounded) {
  ObsDir dir("drops");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.ring_capacity = 64;
  sopts.start_paused = true;  // the deliberately-slow-flusher regime
  obs::StreamingSink sink(sopts);

  constexpr std::uint64_t kOverflow = 37;
  const std::uint64_t total = 64 + kOverflow;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < total; ++i)
    accepted += sink.push(make_span("burst", i)) ? 1 : 0;

  // The ring is the memory bound: exactly capacity records were accepted,
  // the overflow was dropped and counted — never queued, never blocking.
  EXPECT_EQ(accepted, 64u);
  auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, 64u);
  EXPECT_EQ(stats.dropped, kOverflow);
  EXPECT_EQ(stats.flushed, 0u);

  sink.resume();
  sink.close();
  stats = sink.stats();
  EXPECT_EQ(stats.flushed, 64u);
  // The survivors are the first `capacity` pushes (drop-newest ring).
  const auto records = read_records(sink.segment_files());
  ASSERT_EQ(records.size(), 64u);
  std::set<std::uint64_t> ids;
  for (const auto& r : records) ids.insert(r.at("trace_id").as_uint());
  EXPECT_EQ(ids.size(), 64u);
  EXPECT_EQ(*ids.rbegin(), 63u);
}

TEST(ObsSink, PushAfterCloseIsCountedAsDropped) {
  ObsDir dir("closed");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  obs::StreamingSink sink(sopts);
  sink.close();
  EXPECT_FALSE(sink.push(make_span("late", 1)));
  EXPECT_FALSE(sink.push_stat("late.stat", 1.0));
  const auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, 0u);
  EXPECT_EQ(stats.dropped, 2u);
  sink.close();  // idempotent
}

TEST(ObsSink, FailedRotationCountsTheLostSegmentAsDropped) {
  // A non-empty directory squatting on the first segment name makes that
  // rename fail (EISDIR). The records of the segment it was meant to hold
  // are lost, and the counters must say so: every accepted record is
  // either in a segment file on disk or counted as dropped.
  ObsDir dir("rotate_fail");
  std::filesystem::create_directories(dir.path() +
                                      "/segment-000001.jsonl/occupied");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.segment_max_bytes = 512;  // rotate every handful of records
  sopts.max_segments = 1000;      // retention must not delete anything
  sopts.start_paused = true;      // flush_now() drives every write
  obs::StreamingSink sink(sopts);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sink.push(make_span("fill", static_cast<std::uint64_t>(i))));
    if (i % 10 == 9) sink.flush_now();
  }
  sink.close();

  const auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, 100u);
  EXPECT_GE(stats.rotations, 2u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.pushed, stats.flushed + stats.dropped);

  std::uint64_t lines = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path())) {
    if (e.is_regular_file())
      lines += read_records({e.path().string()}).size();
  }
  EXPECT_EQ(lines, stats.flushed);
  EXPECT_FALSE(std::filesystem::exists(sink.active_path()));
}

TEST(ObsSink, FullDiskCountsTheLostSegmentAsDropped) {
  // The active segment is a symlink to /dev/full: every flush fails with
  // ENOSPC. The sink must discard that segment (the link goes with it),
  // count its records as dropped, and carry on in a fresh file.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ObsDir dir("enospc");
  std::filesystem::create_directories(dir.path());
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.start_paused = true;
  obs::StreamingSink sink(sopts);
  std::filesystem::create_symlink("/dev/full", sink.active_path());

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(sink.push(make_span("lost", static_cast<std::uint64_t>(i))));
  sink.flush_now();
  EXPECT_EQ(sink.stats().dropped, 5u);
  EXPECT_EQ(sink.stats().flushed, 0u);
  EXPECT_FALSE(std::filesystem::is_symlink(sink.active_path()));

  for (int i = 5; i < 8; ++i)
    ASSERT_TRUE(sink.push(make_span("kept", static_cast<std::uint64_t>(i))));
  sink.close();
  const auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, 8u);
  EXPECT_EQ(stats.flushed, 3u);
  EXPECT_EQ(stats.dropped, 5u);
  const auto records = read_records(sink.segment_files());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().at("trace_id").as_uint(), 5u);
}

TEST(ObsSink, ConcurrentProducersLoseNothingTheRingAccepted) {
  ObsDir dir("mpsc");
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.ring_capacity = 256;  // small enough that producers can outrun it
  sopts.flush_interval_ms = 1;
  obs::StreamingSink sink(sopts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id =
            static_cast<std::uint64_t>(t) * kPerThread + i + 1;
        if (sink.push(make_span("mpsc", id)))
          accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  sink.close();

  const auto stats = sink.stats();
  EXPECT_EQ(stats.pushed, accepted.load());
  EXPECT_EQ(stats.pushed + stats.dropped,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Every accepted record reached disk exactly once, uncorrupted.
  EXPECT_EQ(stats.flushed, stats.pushed);
  const auto records = read_records(sink.segment_files());
  ASSERT_EQ(records.size(), stats.flushed);
  std::set<std::uint64_t> ids;
  for (const auto& r : records) {
    EXPECT_EQ(r.at("name").as_string(), "mpsc");
    EXPECT_TRUE(ids.insert(r.at("trace_id").as_uint()).second)
        << "duplicate record " << r.at("trace_id").as_uint();
  }
}

TEST(ObsSink, AttachStreamsCompletedTraceSpans) {
  ObsDir dir("attach");
  trace::stop();
  trace::start();
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  obs::StreamingSink sink(sopts);
  sink.attach();

  const std::uint64_t rid = trace::next_request_id();
  {
    trace::ScopedRequestId scope(rid);
    trace::TraceSpan span("streamed", "test");
    span.arg("rows", 7);
  }
  trace::emit_instant("not-a-span", "test");  // observer streams 'X' only
  trace::stop();
  sink.detach();
  sink.close();
  trace::clear();

  const auto records = read_records(sink.segment_files());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("type").as_string(), "span");
  EXPECT_EQ(records[0].at("name").as_string(), "streamed");
  EXPECT_EQ(records[0].at("trace_id").as_uint(), rid);
  EXPECT_EQ(records[0].at("attrs").at("rows").as_int(), 7);
}

// The ISSUE acceptance path: serve real traffic with tracing and the sink
// attached, then resolve every non-empty request-latency bucket's exemplar
// trace id to a span in the rotated segment files.
TEST(ObsSink, ServeExemplarsResolveToSpansInSegmentFiles) {
  ObsDir dir("serve");
  trace::stop();
  trace::start();
  obs::SinkOptions sopts;
  sopts.directory = dir.path();
  sopts.ring_capacity = 1 << 15;  // roomy: this test wants zero drops
  obs::StreamingSink sink(sopts);
  sink.attach();

  prof::RunProfile profile;
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(2000, 2000, 2.0, 80, /*seed=*/21));
  core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  opts.profile = &profile;
  opts.obs_sink = &sink;
  {
    serve::SpmvService<float> service(pred, opts);
    std::vector<float> x(static_cast<std::size_t>(a->cols()), 1.0f);
    std::vector<std::future<std::vector<float>>> futs;
    for (int i = 0; i < 24; ++i) futs.push_back(service.submit(a, x));
    for (auto& f : futs) (void)f.get();
    service.shutdown();
  }
  trace::stop();
  sink.detach();
  sink.close();
  trace::clear();

  ASSERT_EQ(profile.serve.requests, 24u);
  ASSERT_EQ(profile.serve.request_latency.count(), 24u);
  EXPECT_EQ(sink.stats().dropped, 0u);

  // Collect every span trace id that reached disk.
  std::set<std::uint64_t> on_disk;
  for (const auto& r : read_records(sink.segment_files())) {
    if (r.at("type").as_string() == "span")
      on_disk.insert(r.at("trace_id").as_uint());
  }
  ASSERT_FALSE(on_disk.empty());

  // Every non-empty latency bucket carries a traced exemplar, and each
  // exemplar's trace id resolves to a streamed span.
  const auto& hist = profile.serve.request_latency;
  int non_empty = 0;
  for (int i = 0; i < prof::LatencyHistogram::kBuckets; ++i) {
    if (hist.buckets()[static_cast<std::size_t>(i)] == 0) continue;
    non_empty += 1;
    const auto& ex = hist.exemplar(i);
    ASSERT_TRUE(ex.valid()) << "bucket " << i << " lost its exemplar";
    EXPECT_NE(ex.trace_id, 0u);
    EXPECT_EQ(on_disk.count(ex.trace_id), 1u)
        << "exemplar trace id " << ex.trace_id
        << " has no span in the segment files";
    EXPECT_GT(ex.value_s, 0.0);
    EXPECT_EQ(ex.fingerprint, serve::fingerprint_of(*a).row_hash);
  }
  ASSERT_GT(non_empty, 0);

  // The exemplars survive the JSON artifact and the Prometheus exposition.
  const auto restored =
      prof::RunProfile::from_json(prof::Json::parse(profile.to_json_text()));
  for (int i = 0; i < prof::LatencyHistogram::kBuckets; ++i) {
    if (hist.buckets()[static_cast<std::size_t>(i)] == 0) continue;
    EXPECT_EQ(restored.serve.request_latency.exemplar(i).trace_id,
              hist.exemplar(i).trace_id);
  }
  const auto text = prof::prometheus_text(profile);
  EXPECT_NE(text.find("# {trace_id=\""), std::string::npos);

  // The worker-side stat deltas flowed through the sink too.
  bool saw_stat = false;
  for (const auto& r : read_records(sink.segment_files())) {
    if (r.at("type").as_string() == "stat" &&
        r.at("name").as_string() == "serve.batch_exec_s")
      saw_stat = true;
  }
  EXPECT_TRUE(saw_stat);
}
