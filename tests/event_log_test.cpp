// Request-lifecycle tracing suite: EventLog bounded-buffer semantics and
// JSONL export, RequestTracer deterministic sampling + sim-time latency
// histograms, and an end-to-end traced policy simulation under an active
// fault plan whose event stream must satisfy the lifecycle invariants
// (every arrival delivers, every fetch attempt resolves, histograms mirror
// the log).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/policy_sim.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace mobi::obs {
namespace {

// ---------------------------------------------------------------------------
// EventLog.

TEST(EventLog, RecordsUntilCapacityThenDrops) {
  EventLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(log.record({sim::Tick(i), EventKind::kArrival, 0,
                            std::uint32_t(i), 7, 0.0}));
  }
  EXPECT_FALSE(log.record({3, EventKind::kArrival, 0, 3, 7, 0.0}));
  EXPECT_FALSE(log.record({4, EventKind::kDelivery, 0, 4, 7, 0.0}));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.count(EventKind::kArrival), 3u);
  EXPECT_EQ(log.count(EventKind::kDelivery), 0u);

  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.capacity(), 3u);  // capacity survives clear
  EXPECT_TRUE(log.record({0, EventKind::kCacheHit, 0, 0, 0, 0.5}));
}

TEST(EventLog, RejectsZeroCapacity) {
  EXPECT_THROW(EventLog(0), std::invalid_argument);
}

TEST(EventLog, JsonlHeaderAndCompactEventLines) {
  EventLog log(2);
  // client present, attempt and value elided (both zero).
  log.record({5, EventKind::kArrival, 0, 12, 3, 0.0});
  // client elided (kNoClient), attempt and value present.
  log.record({6, EventKind::kRetryAttempt, 2, 12, RequestEvent::kNoClient,
              4.0});
  log.record({7, EventKind::kDelivery, 0, 12, 3, 1.0});  // dropped

  const std::string expected =
      "{\"schema\":\"mobicache.trace.v1\",\"events\":2,\"dropped\":1}\n"
      "{\"t\":5,\"ev\":\"arrival\",\"obj\":12,\"client\":3}\n"
      "{\"t\":6,\"ev\":\"retry_attempt\",\"obj\":12,\"k\":2,\"v\":4}\n";
  EXPECT_EQ(log.to_jsonl(), expected);
}

// Every field at its widest and every value branch of the number
// formatter: integral, shortest round-trip, exponent, and the non-finite
// values JSON has no literal for.
TEST(EventLog, JsonlLinePinsExtremeFields) {
  constexpr sim::Tick kMin = std::numeric_limits<sim::Tick>::min();
  constexpr sim::Tick kMax = std::numeric_limits<sim::Tick>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<RequestEvent, std::string>> cases = {
      {{kMin, EventKind::kDownlinkDelivered, 0xffffffffu, 0xffffffffu,
        0xfffffffeu, -2.2250738585072014e-308},
       "{\"t\":-9223372036854775808,\"ev\":\"downlink_delivered\","
       "\"obj\":4294967295,\"client\":4294967294,\"k\":4294967295,"
       "\"v\":-2.2250738585072014e-308}\n"},
      {{kMax, EventKind::kArrival, 0, 0, RequestEvent::kNoClient, 1.0 / 3},
       "{\"t\":9223372036854775807,\"ev\":\"arrival\",\"obj\":0,"
       "\"v\":0.3333333333333333}\n"},
      {{0, EventKind::kFetchDone, 1, 7, RequestEvent::kNoClient, 1e15},
       "{\"t\":0,\"ev\":\"fetch_done\",\"obj\":7,\"k\":1,\"v\":1e+15}\n"},
      {{-1, EventKind::kCacheHit, 0, 3, 0, 123.0},
       "{\"t\":-1,\"ev\":\"cache_hit\",\"obj\":3,\"client\":0,\"v\":123}\n"},
      {{2, EventKind::kNetBatch, 4, 0, RequestEvent::kNoClient, nan},
       "{\"t\":2,\"ev\":\"net_batch\",\"obj\":0,\"k\":4,\"v\":null}\n"},
      {{3, EventKind::kDownlinkDrop, 0, 0, RequestEvent::kNoClient, -inf},
       "{\"t\":3,\"ev\":\"downlink_drop\",\"obj\":0,\"v\":null}\n"},
  };
  for (const auto& [event, expected] : cases) {
    std::string line;
    append_event_jsonl(line, event);
    EXPECT_EQ(line, expected);
    EXPECT_LE(line.size(), kMaxEventJsonl);
  }
  // The first line is the longest possible: the bound is exact.
  EXPECT_EQ(cases.front().second.size(), kMaxEventJsonl);
}

TEST(EventLog, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kArrival), "arrival");
  EXPECT_STREQ(event_kind_name(EventKind::kCacheHit), "cache_hit");
  EXPECT_STREQ(event_kind_name(EventKind::kDegradedServe), "degraded_serve");
  EXPECT_STREQ(event_kind_name(EventKind::kFetchSelected), "fetch_selected");
  EXPECT_STREQ(event_kind_name(EventKind::kRetryDrop), "retry_drop");
  EXPECT_STREQ(event_kind_name(EventKind::kDownlinkDelivered),
               "downlink_delivered");
  EXPECT_STREQ(event_kind_name(EventKind::kNetBatch), "net_batch");
}

// ---------------------------------------------------------------------------
// JsonlTraceSink: streamed JSONL must carry the same body bytes as the
// buffered to_jsonl() export, dual-write must leave the in-memory log's
// accounting untouched, and the footer must reconcile the counters.

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(JsonlTraceSink, StreamedBodyMatchesBufferedJsonl) {
  const std::string path = temp_path("streamed_vs_buffered.jsonl");

  // Two identically-seeded traced runs under live faults: one plain,
  // one streaming through an inline-flush sink with a tiny buffer (so
  // several flush boundaries land mid-run).
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 5;
  config.measure_ticks = 20;
  config.server_count = 2;
  config.fetch_retry_limit = 2;
  config.faults.fetch_failure_rate = 0.25;

  RequestTracer plain;
  exp::run_policy_sim(config, {.tracer = &plain});

  RequestTracer streamed;
  {
    JsonlTraceSink sink(path, {/*buffer_events=*/64,
                               /*background_flush=*/false});
    streamed.log().set_sink(&sink);
    exp::run_policy_sim(config, {.tracer = &streamed});
    streamed.log().set_sink(nullptr);
    sink.close();
    EXPECT_TRUE(sink.ok());
    // Everything streamed reached the file before close returned.
    EXPECT_GT(sink.streamed_events(), 0u);
    EXPECT_EQ(sink.flushed_events(), sink.streamed_events());
    EXPECT_EQ(sink.flush_blocks(), 0u);  // inline mode never stalls
  }

  // Dual-write is pure observation: the in-memory log (and thus the
  // buffered export) is bit-identical with or without the sink.
  EXPECT_EQ(streamed.log().to_jsonl(), plain.log().to_jsonl());

  // File framing: streamed header, buffered body bytes, footer.
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.front(),
            "{\"schema\":\"mobicache.trace.v1\",\"streamed\":true}");
  EXPECT_EQ(lines.back().rfind("{\"streamed_end\":true,\"events\":", 0), 0u);

  std::istringstream buffered(plain.log().to_jsonl());
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(buffered, line)) expected.push_back(line);
  ASSERT_GE(expected.size(), 1u);
  // to_jsonl holds only the capacity-bounded buffer; the stream holds
  // every event. The retained prefix must match byte for byte.
  ASSERT_LE(expected.size() - 1, lines.size() - 2);
  for (std::size_t i = 1; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "body line " << i;
  }
  std::remove(path.c_str());
}

TEST(JsonlTraceSink, SinkSeesEventsTheBufferDrops) {
  const std::string path = temp_path("sink_sees_drops.jsonl");
  EventLog log(2);
  {
    JsonlTraceSink sink(path, {16, false});
    log.set_sink(&sink);
    EXPECT_EQ(log.sink(), &sink);
    for (std::uint32_t i = 0; i < 5; ++i) {
      log.record({sim::Tick(i), EventKind::kArrival, 0, i, 7, 0.0});
    }
    log.set_sink(nullptr);
    sink.close();
    // The bounded buffer kept 2 and dropped 3 — but the stream saw all 5
    // (drop accounting is a property of the in-memory buffer alone).
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.dropped(), 3u);
    EXPECT_EQ(sink.streamed_events(), 5u);
    EXPECT_EQ(sink.flushed_events(), 5u);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 7u);  // header + 5 events + footer
  EXPECT_EQ(lines[1], "{\"t\":0,\"ev\":\"arrival\",\"obj\":0,\"client\":7}");
  EXPECT_EQ(lines[5], "{\"t\":4,\"ev\":\"arrival\",\"obj\":4,\"client\":7}");
  EXPECT_EQ(lines[6],
            "{\"streamed_end\":true,\"events\":5,\"flushes\":1,"
            "\"flush_blocks\":0}");
  std::remove(path.c_str());
}

TEST(JsonlTraceSink, BackgroundFlushWritesTheSameBodyBytes) {
  const std::string inline_path = temp_path("sink_inline.jsonl");
  const std::string background_path = temp_path("sink_background.jsonl");
  const auto feed = [](EventSink& sink) {
    for (std::uint32_t i = 0; i < 1000; ++i) {
      sink.write({sim::Tick(i), EventKind(i % 13), i % 3, i, i % 11,
                  double(i % 5)});
    }
  };
  {
    JsonlTraceSink inline_sink(inline_path, {32, false});
    JsonlTraceSink background_sink(background_path, {32, true});
    feed(inline_sink);
    feed(background_sink);
    inline_sink.close();
    background_sink.close();
    EXPECT_EQ(inline_sink.streamed_events(), 1000u);
    EXPECT_EQ(background_sink.streamed_events(), 1000u);
    // close() drains everything in both modes.
    EXPECT_EQ(inline_sink.flushed_events(), 1000u);
    EXPECT_EQ(background_sink.flushed_events(), 1000u);
  }
  const std::vector<std::string> a = read_lines(inline_path);
  const std::vector<std::string> b = read_lines(background_path);
  ASSERT_EQ(a.size(), 1002u);
  ASSERT_EQ(b.size(), 1002u);
  // Body bytes are identical; only the footer's flush accounting may
  // differ between modes (flush_blocks is backpressure timing).
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "line " << i;
  }
  std::remove(inline_path.c_str());
  std::remove(background_path.c_str());
}

// A half whose lines overflow the sink's fixed byte buffer is written out
// in several pieces; the file must still hold every line, in order.
TEST(JsonlTraceSink, HalfLongerThanTheByteBufferKeepsEveryLine) {
  const std::string path = temp_path("sink_long_half.jsonl");
  std::vector<RequestEvent> events;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    events.push_back({sim::Tick(1) << 40 | i, EventKind::kDownlinkDelivered,
                      0xf0000000u | i, 0xf0000000u + i, 0xe0000000u | i,
                      double(i) / 3.0 - 1e6});
  }
  std::string body;
  for (const RequestEvent& event : events) append_event_jsonl(body, event);
  ASSERT_GT(body.size() / 3000 * 2048, std::size_t(1) << 17);  // > 2 buffers
  {
    JsonlTraceSink sink(path, {2048, /*background_flush=*/false});
    for (const RequestEvent& event : events) sink.write(event);
    sink.close();
    EXPECT_TRUE(sink.ok());
    EXPECT_EQ(sink.flushes(), 2u);
    EXPECT_EQ(sink.flushed_events(), 3000u);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string header =
      "{\"schema\":\"mobicache.trace.v1\",\"streamed\":true}\n";
  ASSERT_GE(file.size(), header.size() + body.size());
  EXPECT_EQ(file.substr(0, header.size()), header);
  EXPECT_TRUE(file.compare(header.size(), body.size(), body) == 0);
  EXPECT_EQ(file.substr(header.size() + body.size()),
            "{\"streamed_end\":true,\"events\":3000,\"flushes\":2,"
            "\"flush_blocks\":0}\n");
  std::remove(path.c_str());
}

TEST(JsonlTraceSink, WriteAfterCloseIsACountedNoop) {
  const std::string path = temp_path("sink_closed.jsonl");
  JsonlTraceSink sink(path, {8, false});
  sink.write({1, EventKind::kArrival, 0, 2, 3, 0.0});
  sink.close();
  sink.close();  // idempotent
  sink.write({2, EventKind::kArrival, 0, 2, 3, 0.0});
  EXPECT_EQ(sink.streamed_events(), 2u);  // counted...
  EXPECT_EQ(sink.flushed_events(), 1u);   // ...but not emitted
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);  // header + 1 event + footer
  EXPECT_EQ(lines[2].rfind("{\"streamed_end\":true,\"events\":1,", 0), 0u);
  std::remove(path.c_str());
}

// /dev/full accepts fwrite into the stdio buffer and fails at flush: a
// short trace must still report the failure, and a long one must not
// count events that never reached the device as flushed.
TEST(JsonlTraceSink, WriteFailuresAreVisible) {
  // A 4096-event half outgrows the sink's byte buffer, so its flushes
  // write out several pieces before the fflush.
  for (const std::size_t half : {std::size_t(64), std::size_t(4096)}) {
    for (const std::uint32_t events : {10u, 100000u}) {
      SCOPED_TRACE(std::to_string(half) + "-event halves, " +
                   std::to_string(events) + " events");
      JsonlTraceSink sink("/dev/full", {half, /*background_flush=*/false});
      for (std::uint32_t i = 0; i < events; ++i) {
        sink.write({sim::Tick(i), EventKind::kArrival, i % 7, i, 3, 0.0});
      }
      sink.close();
      EXPECT_FALSE(sink.ok());
      EXPECT_EQ(sink.streamed_events(), events);
      EXPECT_EQ(sink.flushed_events(), 0u);
    }
  }
}

TEST(JsonlTraceSink, RejectsZeroBufferAndUnopenablePath) {
  EXPECT_THROW(JsonlTraceSink("x.jsonl", {0, false}), std::invalid_argument);
  EXPECT_THROW(JsonlTraceSink("/nonexistent-dir-zz/x.jsonl"),
               std::runtime_error);
}

TEST(ExportTraceMetrics, MirrorsTracerAndSinkCounters) {
  const std::string path = temp_path("export_metrics.jsonl");
  RequestTracer::Config config;
  config.sample_every = 2;
  config.event_capacity = 4;
  RequestTracer tracer(config);
  JsonlTraceSink sink(path, {16, false});
  tracer.log().set_sink(&sink);
  tracer.begin_tick(0);
  for (std::uint32_t i = 0; i < 10; ++i) tracer.on_arrival(i, 0);
  tracer.log().set_sink(nullptr);
  sink.close();

  MetricsRegistry registry;
  // Export while the sink is detached: the sink counters read zero...
  export_trace_metrics(registry, tracer);
  EXPECT_EQ(registry.find_counter("trace.events")->value(), 4u);
  EXPECT_EQ(registry.find_counter("trace.dropped")->value(), 1u);
  EXPECT_EQ(registry.find_counter("trace.arrivals")->value(), 10u);
  EXPECT_EQ(registry.find_counter("trace.streamed_events")->value(), 0u);
  EXPECT_EQ(registry.find_counter("trace.flushed_events")->value(), 0u);
  EXPECT_EQ(registry.find_counter("trace.flush_blocks")->value(), 0u);

  // ...and with it attached they mirror the sink (custom prefix too).
  tracer.log().set_sink(&sink);
  MetricsRegistry attached;
  export_trace_metrics(attached, tracer, "t2");
  EXPECT_EQ(attached.find_counter("t2.events")->value(), 4u);
  EXPECT_EQ(attached.find_counter("t2.streamed_events")->value(), 5u);
  EXPECT_EQ(attached.find_counter("t2.flushed_events")->value(), 5u);
  EXPECT_EQ(attached.find_counter("t2.flush_blocks")->value(), 0u);
  tracer.log().set_sink(nullptr);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RequestTracer.

TEST(RequestTracer, SamplingIsACounterNotARandomDraw) {
  for (const std::size_t every : {std::size_t(1), std::size_t(3),
                                  std::size_t(16)}) {
    SCOPED_TRACE("sample_every " + std::to_string(every));
    RequestTracer a(RequestTracer::Config{every, 2048});
    RequestTracer b(RequestTracer::Config{every, 2048});
    std::uint64_t kept = 0;
    for (std::uint32_t i = 0; i < 1000; ++i) {
      // Arrivals 0, N, 2N, ... are kept; the decision depends only on the
      // arrival ordinal, so two tracers fed the same stream agree exactly.
      const bool expected = i % every == 0;
      ASSERT_EQ(a.on_arrival(i, 0), expected) << "arrival " << i;
      ASSERT_EQ(b.on_arrival(i, 0), expected) << "arrival " << i;
      kept += expected;
    }
    EXPECT_EQ(a.arrivals(), 1000u);
    EXPECT_EQ(a.sampled_arrivals(), kept);
    EXPECT_EQ(a.log().count(EventKind::kArrival), kept);
    EXPECT_EQ(b.log().count(EventKind::kArrival), kept);
  }
}

TEST(RequestTracer, RejectsZeroSampleEvery) {
  RequestTracer::Config config;
  config.sample_every = 0;
  EXPECT_THROW(RequestTracer{config}, std::invalid_argument);
}

TEST(RequestTracer, EventsInheritTheStampedTick) {
  RequestTracer tracer;
  tracer.begin_tick(42);
  tracer.on_fetch_selected(9);
  tracer.begin_tick(43);
  tracer.on_fetch_done(9, 1);
  ASSERT_EQ(tracer.log().size(), 2u);
  EXPECT_EQ(tracer.log().events()[0].tick, 42);
  EXPECT_EQ(tracer.log().events()[1].tick, 43);
}

TEST(RequestTracer, HistogramsMirrorTheLifecycleCallbacks) {
  RequestTracer tracer;
  MetricsRegistry registry;
  tracer.register_histograms(&registry);

  tracer.on_fetch_done(3, 5);
  tracer.on_retry_attempt(3, 1, 2);
  // Every delivery observes its queue wait; only a sampled request's
  // delivery is recorded, carrying that request's object and client.
  tracer.on_downlink_delivered(/*sampled=*/false, 3, 1, 4);
  tracer.on_downlink_delivered(/*sampled=*/true, 3, 0, 2);
  const bool sampled = tracer.on_arrival(3, 0);
  // Gap = max(0, target - recency); observed for every serve.
  tracer.on_serve(sampled, 3, 0, true, false, 0.6, 0.9, 0.66);
  tracer.on_serve(false, 3, 1, true, false, 0.95, 0.9, 1.0);  // met: gap 0

  EXPECT_EQ(registry.find_histogram("lat.ticks_to_serve")->total(), 1u);
  EXPECT_DOUBLE_EQ(registry.find_histogram("lat.ticks_to_serve")->sum(), 5.0);
  EXPECT_EQ(registry.find_histogram("lat.retry_delay")->total(), 1u);
  EXPECT_EQ(registry.find_histogram("lat.queue_wait")->total(), 2u);
  EXPECT_DOUBLE_EQ(registry.find_histogram("lat.queue_wait")->sum(), 6.0);
  ASSERT_EQ(tracer.log().count(EventKind::kDownlinkDelivered), 1u);
  const RequestEvent& delivered = tracer.log().events()[2];
  EXPECT_EQ(delivered.kind, EventKind::kDownlinkDelivered);
  EXPECT_EQ(delivered.object, 3u);
  EXPECT_EQ(delivered.client, 0u);
  EXPECT_EQ(delivered.value, 2.0);
  const FixedHistogram& gap =
      *registry.find_histogram("lat.served_recency_gap");
  EXPECT_EQ(gap.total(), 2u);  // unsampled serves still observe the gap
  EXPECT_NEAR(gap.sum(), 0.3, 1e-12);

  // Detaching stops observation but events keep flowing to the log.
  tracer.register_histograms(nullptr);
  tracer.on_fetch_done(4, 7);
  EXPECT_EQ(registry.find_histogram("lat.ticks_to_serve")->total(), 1u);
  EXPECT_EQ(tracer.log().count(EventKind::kFetchDone), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced policy simulation under an active fault plan must
// produce a self-consistent event stream.

TEST(RequestTracer, TracedPolicySimLifecycleInvariants) {
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 5;
  config.measure_ticks = 20;
  config.budget = 10;
  config.update_period = 3;
  config.server_count = 2;
  config.fetch_retry_limit = 2;
  config.faults.fetch_failure_rate = 0.3;
  config.faults.downlink_drop_rate = 0.1;

  MetricsRegistry registry;
  SeriesRecorder recorder(registry);
  RequestTracer tracer;  // sample every arrival, ample capacity
  tracer.register_histograms(&registry);
  const exp::PolicySimResult result =
      exp::run_policy_sim(config, {.recorder = &recorder, .tracer = &tracer});

  const EventLog& log = tracer.log();
  ASSERT_EQ(log.dropped(), 0u) << "grow event_capacity for this workload";

  // Every request arrived and was delivered; the serve outcome is
  // exactly one of hit/miss.
  const std::uint64_t arrivals = log.count(EventKind::kArrival);
  EXPECT_EQ(arrivals, tracer.arrivals());
  EXPECT_EQ(arrivals, registry.find_counter("bs.requests")->value());
  EXPECT_EQ(log.count(EventKind::kDelivery), arrivals);
  EXPECT_EQ(log.count(EventKind::kCacheHit) + log.count(EventKind::kCacheMiss),
            arrivals);

  // Every fetch attempt (fresh selection or retry) resolved as exactly
  // one of done/failed, and drops only happen to failed attempts.
  const std::uint64_t attempts = log.count(EventKind::kFetchSelected) +
                                 log.count(EventKind::kRetryAttempt);
  EXPECT_EQ(attempts,
            log.count(EventKind::kFetchDone) +
                log.count(EventKind::kFetchFailed));
  EXPECT_GT(log.count(EventKind::kFetchFailed), 0u);  // plan is active
  EXPECT_GT(log.count(EventKind::kRetryAttempt), 0u);
  EXPECT_LE(log.count(EventKind::kRetryDrop),
            log.count(EventKind::kFetchFailed));
  EXPECT_GT(result.failed_fetches, 0u);

  // The histograms saw exactly the events the log recorded.
  EXPECT_EQ(registry.find_histogram("lat.ticks_to_serve")->total(),
            log.count(EventKind::kFetchDone));
  EXPECT_EQ(registry.find_histogram("lat.retry_delay")->total(),
            log.count(EventKind::kRetryAttempt));
  EXPECT_EQ(registry.find_histogram("lat.queue_wait")->total(),
            log.count(EventKind::kDownlinkDelivered));
  // The recency gap is observed for *every* serve, sampled or not.
  EXPECT_EQ(registry.find_histogram("lat.served_recency_gap")->total(),
            tracer.arrivals());

  // Retry resolutions land at a positive ticks-to-serve, so the
  // ticks_to_serve histogram carries real latency mass under faults.
  EXPECT_GT(registry.find_histogram("lat.ticks_to_serve")->sum(), 0.0);

  // The JSONL export frames the same stream.
  std::istringstream lines(log.to_jsonl());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "{\"schema\":\"mobicache.trace.v1\",\"events\":" +
                        std::to_string(log.size()) + ",\"dropped\":0}");
}

TEST(RequestTracer, SampledTraceKeepsEveryNthArrivalOfTheSameRun) {
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 5;
  config.measure_ticks = 10;
  config.budget = 10;
  config.faults.downlink_drop_rate = 0.2;

  RequestTracer::Config trace;
  trace.sample_every = 4;
  RequestTracer sampled(trace);
  RequestTracer full;
  exp::run_policy_sim(config, {.tracer = &sampled});
  exp::run_policy_sim(config, {.tracer = &full});

  EXPECT_EQ(sampled.arrivals(), full.arrivals());
  EXPECT_EQ(sampled.sampled_arrivals(), (full.arrivals() + 3) / 4);
  // Sampling thins request-scoped events only; object-scoped fetch
  // events are always recorded and must be identical streams.
  EXPECT_EQ(sampled.log().count(EventKind::kFetchSelected),
            full.log().count(EventKind::kFetchSelected));
  EXPECT_EQ(sampled.log().count(EventKind::kFetchDone),
            full.log().count(EventKind::kFetchDone));
  // A downlink delivery belongs to the request that queued the chunk, so
  // deliveries thin out with the sample: never more than the sampled
  // hits that queued them, and about a quarter of the full run's.
  const std::uint64_t full_delivered =
      full.log().count(EventKind::kDownlinkDelivered);
  const std::uint64_t sampled_delivered =
      sampled.log().count(EventKind::kDownlinkDelivered);
  EXPECT_GT(sampled_delivered, 0u);
  EXPECT_LE(sampled_delivered, sampled.log().count(EventKind::kCacheHit));
  EXPECT_LT(sampled_delivered * 2, full_delivered);
  EXPECT_GT(sampled_delivered * 8, full_delivered);
  // Failures are not sampled away: every downlink drop is recorded.
  EXPECT_GT(full.log().count(EventKind::kDownlinkDrop), 0u);
  EXPECT_EQ(sampled.log().count(EventKind::kDownlinkDrop),
            full.log().count(EventKind::kDownlinkDrop));
}

}  // namespace
}  // namespace mobi::obs
