// spmv::trace: span recording, request-id propagation, ring-buffer
// overflow accounting, Chrome trace-event export, concurrent recording
// (the tsan target), and end-to-end request correlation through the
// serving layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "autospmv.hpp"

using namespace spmv;

namespace {

/// Every test owns the global trace state: start fresh, stop on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { trace::stop(); }
  void TearDown() override {
    trace::stop();
    trace::clear();
  }
};

/// Events recorded since the last start(), by name.
std::vector<trace::TraceEvent> events_named(const trace::Snapshot& snap,
                                            const std::string& name) {
  std::vector<trace::TraceEvent> out;
  for (const auto& ev : snap.events) {
    if (ev.name != nullptr && name == ev.name) out.push_back(ev);
  }
  return out;
}

}  // namespace

TEST_F(TraceTest, DisabledRecordsNothingAndSkipsWork) {
  trace::start();
  trace::stop();
  EXPECT_FALSE(trace::enabled());
  {
    trace::TraceSpan span("noop", "test");
    span.arg("k", 1);
  }
  trace::emit_instant("noop", "test");
  trace::emit_async_begin("noop", "test", 7);
  const auto snap = trace::snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TraceTest, SpanRecordsNameCategoryDurationAndArgs) {
  trace::start();
  {
    trace::TraceSpan span("work", "test");
    span.arg("rows", 42);
    span.arg("unit", 100);
    span.arg("ignored", 3);  // only two slots
  }
  trace::stop();
  const auto snap = trace::snapshot();
  const auto spans = events_named(snap, "work");
  ASSERT_EQ(spans.size(), 1u);
  const auto& ev = spans[0];
  EXPECT_STREQ(ev.category, "test");
  EXPECT_EQ(ev.phase, 'X');
  EXPECT_GT(ev.tid, 0u);
  EXPECT_STREQ(ev.arg_keys[0], "rows");
  EXPECT_EQ(ev.arg_vals[0], 42);
  EXPECT_STREQ(ev.arg_keys[1], "unit");
  EXPECT_EQ(ev.arg_vals[1], 100);
  EXPECT_EQ(ev.id, 0u);  // no request in scope
}

TEST_F(TraceTest, StartResetsClockAndPreviousEvents) {
  trace::start();
  trace::emit_instant("old", "test");
  trace::start();  // discard and re-arm
  trace::emit_instant("new", "test");
  trace::stop();
  const auto snap = trace::snapshot();
  EXPECT_TRUE(events_named(snap, "old").empty());
  EXPECT_EQ(events_named(snap, "new").size(), 1u);
}

TEST_F(TraceTest, ScopedRequestIdNestsAndRestores) {
  EXPECT_EQ(trace::current_request_id(), 0u);
  const std::uint64_t a = trace::next_request_id();
  const std::uint64_t b = trace::next_request_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  {
    trace::ScopedRequestId outer(a);
    EXPECT_EQ(trace::current_request_id(), a);
    {
      trace::ScopedRequestId inner(b);
      EXPECT_EQ(trace::current_request_id(), b);
    }
    EXPECT_EQ(trace::current_request_id(), a);
  }
  EXPECT_EQ(trace::current_request_id(), 0u);

  // Spans stamp the id in scope at construction.
  trace::start();
  {
    trace::ScopedRequestId rid(a);
    trace::TraceSpan span("tagged", "test");
  }
  trace::stop();
  const auto spans = events_named(trace::snapshot(), "tagged");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, a);
}

TEST_F(TraceTest, RingOverflowKeepsNewestAndCountsDropped) {
  trace::start(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    trace::TraceSpan span("overflow", "test");
    span.arg("i", i);
  }
  trace::stop();
  const auto snap = trace::snapshot();
  ASSERT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, 12u);
  // The survivors are the newest 8, still in emit order.
  for (std::size_t i = 0; i < snap.events.size(); ++i)
    EXPECT_EQ(snap.events[i].arg_vals[0],
              static_cast<std::int64_t>(12 + i));
}

TEST_F(TraceTest, SnapshotAttributesDropsToTheThreadThatWrapped) {
  trace::start(/*per_thread_capacity=*/8);
  std::thread wrapper([] {
    for (int i = 0; i < 20; ++i) {
      trace::TraceSpan span("wrapping", "test");
      span.arg("i", i);
    }
  });
  std::thread quiet([] { trace::TraceSpan span("quiet", "test"); });
  wrapper.join();
  quiet.join();
  trace::stop();

  const auto snap = trace::snapshot();
  EXPECT_EQ(snap.dropped, 12u);
  // Only the thread that wrapped appears, carrying the whole loss — the
  // quiet thread's ring never overflowed.
  ASSERT_EQ(snap.dropped_by_thread.size(), 1u);
  EXPECT_EQ(snap.dropped_by_thread[0].dropped, 12u);
  const auto wrapped = events_named(snap, "wrapping");
  ASSERT_FALSE(wrapped.empty());
  EXPECT_EQ(snap.dropped_by_thread[0].tid, wrapped[0].tid);
  const auto quiet_spans = events_named(snap, "quiet");
  ASSERT_EQ(quiet_spans.size(), 1u);
  EXPECT_NE(quiet_spans[0].tid, snap.dropped_by_thread[0].tid);
}

TEST_F(TraceTest, ChromeJsonParsesAndPairsAsyncEvents) {
  trace::start();
  const std::uint64_t rid = trace::next_request_id();
  trace::emit_async_begin("request", "serve", rid);
  {
    trace::ScopedRequestId scope(rid);
    trace::TraceSpan span("execute", "serve");
    span.arg("width", 4);
  }
  trace::emit_async_end("request", "serve", rid);
  trace::stop();

  const auto doc = prof::Json::parse(trace::chrome_trace_json());
  const auto& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 3u);

  const prof::Json* begin = nullptr;
  const prof::Json* end = nullptr;
  const prof::Json* span = nullptr;
  for (const auto& ev : events.items()) {
    const auto& ph = ev.at("ph").as_string();
    if (ph == "b") begin = &ev;
    if (ph == "e") end = &ev;
    if (ph == "X") span = &ev;
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  ASSERT_NE(span, nullptr);
  // Chrome matches async pairs by (category, id).
  EXPECT_EQ(begin->at("cat").as_string(), end->at("cat").as_string());
  EXPECT_EQ(begin->at("id").as_string(), end->at("id").as_string());
  EXPECT_EQ(begin->at("id").as_string(), std::to_string(rid));
  // Timestamps are microseconds, ordered begin <= span <= end.
  EXPECT_LE(begin->at("ts").as_number(), span->at("ts").as_number());
  EXPECT_LE(span->at("ts").as_number() + span->at("dur").as_number(),
            end->at("ts").as_number() + 1e-3);
  // The span carries its request id and argument.
  EXPECT_EQ(span->at("args").at("request_id").as_uint(), rid);
  EXPECT_EQ(span->at("args").at("width").as_int(), 4);
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_uint(), 0u);
}

TEST_F(TraceTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  trace::start(/*per_thread_capacity=*/kSpansPerThread);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::ScopedRequestId rid(static_cast<std::uint64_t>(t) + 1000);
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace::TraceSpan span("concurrent", "test");
        span.arg("i", i);
      }
    });
  }
  // Snapshot while recording is in flight (the tsan-interesting part).
  (void)trace::snapshot();
  for (auto& t : threads) t.join();
  trace::stop();

  const auto snap = trace::snapshot();
  const auto spans = events_named(snap, "concurrent");
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(snap.dropped, 0u);
  // Each recording thread kept its own id on every span.
  std::set<std::uint64_t> ids;
  for (const auto& ev : spans) ids.insert(ev.id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, ServiceRequestsCorrelateAcrossThreads) {
  trace::start();
  const auto a = std::make_shared<const CsrMatrix<float>>(
      gen::power_law<float>(3000, 3000, 2.0, 100, /*seed=*/13));
  core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.workers = 2;
  opts.max_batch = 4;
  serve::SpmvService<float> service(pred, opts);

  constexpr int kRequests = 8;
  std::vector<float> x(static_cast<std::size_t>(a->cols()), 1.0f);
  std::vector<std::future<std::vector<float>>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) futs.push_back(service.submit(a, x));
  for (auto& f : futs) (void)f.get();
  service.shutdown();
  trace::stop();

  const auto snap = trace::snapshot();
  const auto begins = events_named(snap, "request");
  // Every request opened and closed its async lifetime exactly once.
  std::set<std::uint64_t> begin_ids;
  std::set<std::uint64_t> end_ids;
  std::uint64_t a_begin_tid = 0;
  for (const auto& ev : begins) {
    if (ev.phase == 'b') {
      EXPECT_TRUE(begin_ids.insert(ev.id).second);
      a_begin_tid = ev.tid;
    }
    if (ev.phase == 'e') {
      EXPECT_TRUE(end_ids.insert(ev.id).second);
    }
  }
  EXPECT_EQ(begin_ids.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(begin_ids, end_ids);

  // Worker-side spans carry the submitting request's id — the trace is
  // correlated across threads even though execution happened elsewhere.
  const auto execs = events_named(snap, "execute-batch");
  ASSERT_FALSE(execs.empty());
  for (const auto& ev : execs) {
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_EQ(begin_ids.count(ev.id), 1u)
        << "execute-batch span with unknown request id " << ev.id;
    EXPECT_NE(ev.tid, a_begin_tid)
        << "execution unexpectedly ran on the submitting thread";
  }
  // Plan-cache lookups were traced too (one per claimed batch).
  EXPECT_FALSE(events_named(snap, "plan-cache-get").empty());
}

TEST_F(TraceTest, TunerPlanningStagesAreTraced) {
  const auto a = gen::banded<float>(2000, 7, 0.9, /*seed=*/5);
  core::HeuristicPredictor pred;
  trace::start();
  const auto spmv = core::Tuner(a).predictor(pred).build();
  std::vector<float> x(static_cast<std::size_t>(a.cols()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(a.rows()));
  spmv.run(x, std::span<float>(y));
  trace::stop();

  const auto snap = trace::snapshot();
  EXPECT_FALSE(events_named(snap, "plan-features").empty());
  EXPECT_FALSE(events_named(snap, "plan-binning").empty());
  // The run dispatched at least one per-bin kernel span.
  bool saw_kernel = false;
  for (const auto& ev : snap.events) {
    if (ev.category != nullptr &&
        std::string(ev.category) == "kernel") {
      saw_kernel = true;
      EXPECT_EQ(ev.phase, 'X');
      EXPECT_GT(ev.arg_vals[0], 0);  // virtual_rows
    }
  }
  EXPECT_TRUE(saw_kernel);
}

TEST_F(TraceTest, SampleRequestHonorsOneInN) {
  // Off: one relaxed load, always false.
  EXPECT_FALSE(trace::sample_request());

  trace::TraceConfig cfg;
  cfg.sample_every_n = 4;
  trace::start(cfg);
  int sampled = 0;
  for (int i = 0; i < 40; ++i)
    if (trace::sample_request()) sampled += 1;
  trace::stop();
  EXPECT_EQ(sampled, 10);  // exactly 1-in-4, starting with the first

  // Default config samples everything.
  trace::start();
  EXPECT_TRUE(trace::sample_request());
  EXPECT_TRUE(trace::sample_request());
  trace::stop();
}

TEST_F(TraceTest, ServiceRequestSamplingTracesOneInN) {
  core::HeuristicPredictor pred;
  serve::ServiceOptions opts;
  opts.workers = 1;
  auto a = std::make_shared<const CsrMatrix<float>>(
      gen::diagonal<float>(300));
  serve::SpmvService<float> service(pred, opts);

  trace::TraceConfig cfg;
  cfg.sample_every_n = 5;
  trace::start(cfg);
  for (int i = 0; i < 10; ++i)
    (void)service.run(a, std::vector<float>(300, 1.0f));
  trace::stop();

  // Sequential submits: exactly 1-in-5 request lifetimes were recorded
  // (sampled-out requests allocate no id and emit no request events).
  const auto snap = trace::snapshot();
  std::set<std::uint64_t> begun;
  for (const auto& ev : events_named(snap, "request")) {
    if (ev.phase == 'b') begun.insert(ev.id);
  }
  EXPECT_EQ(begun.size(), 2u);
}
