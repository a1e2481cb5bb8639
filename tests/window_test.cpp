// WindowAggregator suite: tumbling frame geometry (including the partial
// final window) and the export header, per-window histogram deltas,
// counter-reset semantics of re-begin(), ring overflow accounting, and —
// the scale-out contract — sharded multi-cell windowed aggregation
// producing bit-identical frames for pool sizes 1/2/8.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/multi_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/window.hpp"
#include "util/thread_pool.hpp"

namespace mobi::obs {
namespace {

WindowAggregator::Config tumbling(sim::Tick window,
                                  std::size_t capacity = 256) {
  WindowAggregator::Config config;
  config.window_ticks = window;
  config.frame_capacity = capacity;
  return config;
}

TEST(WindowAggregator, TumblingFramesWithPartialFinalWindow) {
  MetricsRegistry registry;
  Counter& requests = registry.register_counter("req");
  Gauge& level = registry.register_gauge("level");

  WindowAggregator agg(registry, tumbling(5));
  agg.begin();
  for (int t = 0; t < 12; ++t) {
    requests.add(3);
    level.set(0.5 * double(t));
    agg.on_tick(sim::Tick(t));
  }
  agg.finish();

  // 12 ticks at W=5: two full windows plus a 2-tick partial.
  ASSERT_EQ(agg.frames(), 3u);
  EXPECT_EQ(agg.windows_closed(), 3u);
  EXPECT_EQ(agg.dropped_frames(), 0u);

  const WindowAggregator::FrameView f0 = agg.frame(0);
  EXPECT_EQ(f0.index, 0u);
  EXPECT_EQ(f0.start_tick, 0);
  EXPECT_EQ(f0.end_tick, 4);
  EXPECT_EQ(f0.ticks, 5);
  EXPECT_FALSE(f0.partial);

  const WindowAggregator::FrameView f2 = agg.frame(2);
  EXPECT_EQ(f2.index, 2u);
  EXPECT_EQ(f2.start_tick, 10);
  EXPECT_EQ(f2.end_tick, 11);
  EXPECT_EQ(f2.ticks, 2);
  EXPECT_TRUE(f2.partial);

  // Builtin columns mirror the frame metadata; counter deltas divide by
  // the ticks actually covered, so the partial window's rate is exact.
  EXPECT_EQ(agg.value(2, "window.start_tick"), 10.0);
  EXPECT_EQ(agg.value(2, "window.end_tick"), 11.0);
  EXPECT_EQ(agg.value(2, "window.ticks"), 2.0);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(agg.value(f, "req.rate"), 3.0);
  }
  // Gauge columns are last-value-at-close.
  EXPECT_EQ(agg.value(0, "level.last"), 0.5 * 4.0);
  EXPECT_EQ(agg.value(2, "level.last"), 0.5 * 11.0);

  // The export header keeps the mobicache.windows.v1 geometry fields;
  // windows tumble, so stride_ticks always equals window_ticks.
  const std::string header =
      "{\"schema\":\"mobicache.windows.v1\",\"window_ticks\":5,"
      "\"stride_ticks\":5,\"windows_closed\":3,\"dropped_frames\":0,"
      "\"windows\":[0,1,2]";
  EXPECT_EQ(agg.to_json().substr(0, header.size()), header);
}

TEST(WindowAggregator, HistogramColumnsUseWindowDeltasOnly) {
  MetricsRegistry registry;
  FixedHistogram& wait = registry.register_histogram("wait", 0.0, 10.0, 10);

  WindowAggregator agg(registry, tumbling(2));
  agg.begin();
  wait.observe(2.5);
  agg.on_tick(0);
  wait.observe(7.5);
  agg.on_tick(1);  // closes window 0 with {2.5, 7.5}
  wait.observe(1.5);
  agg.on_tick(2);
  agg.on_tick(3);  // closes window 1 with {1.5} only

  ASSERT_EQ(agg.frames(), 2u);
  EXPECT_EQ(agg.value(0, "wait.count"), 2.0);
  EXPECT_EQ(agg.value(0, "wait.mean"), (2.5 + 7.5) / 2.0);
  EXPECT_EQ(agg.value(1, "wait.count"), 1.0);
  EXPECT_EQ(agg.value(1, "wait.mean"), 1.5);
  // Rank percentile with linear interpolation inside the landing
  // bucket: a lone sample in bucket 1 reports lo + width * (1 + q).
  EXPECT_DOUBLE_EQ(agg.value(1, "wait.p50"), 1.5);
  EXPECT_DOUBLE_EQ(agg.value(1, "wait.p99"), 1.99);
  // Window 1 must not see window 0's samples (cumulative counts reset);
  // with window 0's {2.5, 7.5} included the p99 would sit near 10.
  EXPECT_LT(agg.value(1, "wait.p99"), 2.0);
}

TEST(WindowAggregator, ReBeginRestartsFromFreshBaselines) {
  MetricsRegistry registry;
  Counter& requests = registry.register_counter("req");

  WindowAggregator agg(registry, tumbling(2));
  agg.begin();
  requests.add(100);
  agg.on_tick(0);
  agg.on_tick(1);
  EXPECT_EQ(agg.value(0, "req.rate"), 50.0);

  // The counter-reset story: begin() again snapshots new baselines, so
  // the accumulated 100 never bleeds into the restarted aggregation and
  // deltas never go negative.
  agg.begin();
  EXPECT_EQ(agg.frames(), 0u);
  requests.add(4);
  agg.on_tick(0);
  agg.on_tick(1);
  ASSERT_EQ(agg.frames(), 1u);
  EXPECT_EQ(agg.value(0, "req.rate"), 2.0);
}

TEST(WindowAggregator, RingOverflowDropsOldestFrames) {
  MetricsRegistry registry;
  registry.register_counter("req");

  WindowAggregator agg(registry, tumbling(1, /*capacity=*/2));
  agg.begin();
  for (int t = 0; t < 5; ++t) agg.on_tick(sim::Tick(t));

  EXPECT_EQ(agg.windows_closed(), 5u);
  EXPECT_EQ(agg.dropped_frames(), 3u);
  ASSERT_EQ(agg.frames(), 2u);
  // The newest frames are retained; frame(0) is the oldest survivor.
  EXPECT_EQ(agg.frame(0).index, 3u);
  EXPECT_EQ(agg.frame(1).index, 4u);
}

TEST(WindowAggregator, LifecycleGuardsAndColumnLookup) {
  MetricsRegistry registry;
  registry.register_counter("c");
  WindowAggregator agg(registry, tumbling(2));
  EXPECT_THROW(agg.on_tick(0), std::logic_error);  // before begin()

  agg.begin();
  EXPECT_EQ(agg.column_index("c.rate"), 3u);  // after the 3 builtins
  EXPECT_EQ(agg.column_index("no.such.column"), WindowAggregator::npos);
  EXPECT_THROW(agg.value(0, "c.rate"), std::out_of_range);  // no frames yet

  agg.on_tick(0);
  agg.finish();
  EXPECT_THROW(agg.on_tick(1), std::logic_error);  // after finish()
  agg.begin();                                     // re-arms
  agg.on_tick(0);
  agg.on_tick(1);
  EXPECT_EQ(agg.frames(), 1u);
}

class CountingListener final : public WindowAggregator::Listener {
 public:
  void on_window(const WindowAggregator& agg, std::size_t frame) override {
    indices.push_back(agg.frame(frame).index);
  }
  std::vector<std::uint64_t> indices;
};

TEST(WindowAggregator, ListenerFiresOncePerClosedFrame) {
  MetricsRegistry registry;
  registry.register_counter("c");
  CountingListener listener;
  WindowAggregator agg(registry, tumbling(2));
  agg.set_listener(&listener);
  agg.begin();
  for (int t = 0; t < 5; ++t) agg.on_tick(sim::Tick(t));
  agg.finish();  // closes the 1-tick partial as frame 2
  EXPECT_EQ(listener.indices, (std::vector<std::uint64_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Sharded multi-cell windowed aggregation: pool-size independence.

exp::MultiCellConfig sharded_config() {
  exp::MultiCellConfig config;
  config.cell_count = 6;
  config.cell.object_count = 30;
  config.cell.client_count = 8;
  config.cell.ticks = 40;
  config.cell.base_budget = 20;
  config.trace_sample_every = 4;  // exercise the merged mc.lat.* columns
  config.seed = 7;
  return config;
}

std::string windowed_multi_cell_json(util::ThreadPool* pool) {
  MetricsRegistry registry;
  SeriesRecorder recorder(registry);
  WindowAggregator windows(registry, tumbling(10));
  exp::MultiCellObservers observers;
  observers.recorder = &recorder;
  observers.windows = &windows;
  exp::run_multi_cell(sharded_config(), pool, observers);
  return windows.to_json();
}

TEST(WindowAggregator, ShardedMergeBitIdenticalAcrossPoolSizes) {
  const std::string serial = windowed_multi_cell_json(nullptr);
  EXPECT_NE(serial.find("\"mc.requests.rate\""), std::string::npos);
  EXPECT_NE(serial.find("\"mc.lat.ticks_to_serve.p99\""), std::string::npos);
  for (const std::size_t threads : {std::size_t(1), std::size_t(2),
                                    std::size_t(8)}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(windowed_multi_cell_json(&pool), serial)
        << "pool size " << threads;
  }
}

TEST(WindowAggregator, MultiCellWindowsRequireRecorder) {
  MetricsRegistry registry;
  WindowAggregator windows(registry, tumbling(10));
  exp::MultiCellObservers observers;
  observers.windows = &windows;  // no recorder
  EXPECT_THROW(exp::run_multi_cell(sharded_config(), nullptr, observers),
               std::invalid_argument);
}

}  // namespace
}  // namespace mobi::obs
