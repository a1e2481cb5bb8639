#include "exp/fig3.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace mobi::exp {
namespace {

Fig3Config small_config(sim::Tick update_period) {
  Fig3Config config;
  config.object_count = 100;
  config.requests_per_tick = 40;
  config.warmup_ticks = 20;
  config.measure_ticks = 40;
  config.update_period = update_period;
  config.budgets = {1, 5, 10, 20, 40};
  config.seed = 11;
  return config;
}

TEST(Fig3, OnDemandBeatsAsyncAtEveryBudget) {
  for (sim::Tick period : {1, 10}) {
    const auto result = run_fig3(small_config(period));
    for (const auto& point : result.points) {
      EXPECT_GE(point.on_demand_recency, point.async_recency)
          << "period " << period << " budget " << point.budget;
    }
  }
}

TEST(Fig3, OnDemandRecencyGrowsWithBudget) {
  const auto result = run_fig3(small_config(10));
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GE(result.points[i].on_demand_recency,
              result.points[i - 1].on_demand_recency - 0.02);
  }
}

TEST(Fig3, OnDemandApproachesOneAtFullBudget) {
  // Budget = requests/tick means every requested object can be fetched.
  const auto result = run_fig3(small_config(10));
  EXPECT_GT(result.points.back().on_demand_recency, 0.95);
}

TEST(Fig3, HighUpdateFrequencyHurtsAsyncMore) {
  const auto low = run_fig3(small_config(10));
  const auto high = run_fig3(small_config(1));
  // Compare the mid-budget gap between strategies.
  const auto& low_mid = low.points[2];
  const auto& high_mid = high.points[2];
  const double low_gap = low_mid.on_demand_recency - low_mid.async_recency;
  const double high_gap = high_mid.on_demand_recency - high_mid.async_recency;
  EXPECT_GT(high_gap, low_gap);
}

TEST(Fig3, HigherUpdateFrequencyLowersRecency) {
  const auto low = run_fig3(small_config(10));
  const auto high = run_fig3(small_config(1));
  for (std::size_t i = 0; i < low.points.size(); ++i) {
    EXPECT_GE(low.points[i].async_recency, high.points[i].async_recency);
    EXPECT_GE(low.points[i].on_demand_recency,
              high.points[i].on_demand_recency - 0.02);
  }
}

TEST(Fig3, DeterministicUnderSeed) {
  const auto config = small_config(10);
  EXPECT_DOUBLE_EQ(run_fig3_once(config, 10, true),
                   run_fig3_once(config, 10, true));
}

TEST(Fig3, ParallelSweepMatchesSerial) {
  auto config = small_config(10);
  config.budgets = {1, 10, 40};
  const auto serial = run_fig3(config);
  util::ThreadPool pool(3);
  const auto parallel = run_fig3(config, &pool);
  ASSERT_EQ(parallel.points.size(), serial.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.points[i].on_demand_recency,
                     serial.points[i].on_demand_recency);
    EXPECT_DOUBLE_EQ(parallel.points[i].async_recency,
                     serial.points[i].async_recency);
  }
}

// A negative measure window would report recency 0 for every budget, so
// both entry points reject a negative tick count up front.
TEST(Fig3, RejectsNegativeTickCounts) {
  auto warmup = small_config(10);
  warmup.warmup_ticks = -1;
  auto measure = small_config(10);
  measure.measure_ticks = -60;
  for (const Fig3Config& config : {warmup, measure}) {
    EXPECT_THROW(run_fig3(config), std::invalid_argument);
    EXPECT_THROW(run_fig3_once(config, 5, true), std::invalid_argument);
  }
}

TEST(Fig3, RecencyValuesAreValid) {
  const auto result = run_fig3(small_config(1));
  for (const auto& point : result.points) {
    EXPECT_GE(point.on_demand_recency, 0.0);
    EXPECT_LE(point.on_demand_recency, 1.0);
    EXPECT_GE(point.async_recency, 0.0);
    EXPECT_LE(point.async_recency, 1.0);
  }
}

}  // namespace
}  // namespace mobi::exp
