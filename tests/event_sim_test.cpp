#include "exp/event_sim.hpp"

#include <gtest/gtest.h>

namespace mobi::exp {
namespace {

EventSimConfig small_config() {
  EventSimConfig config;
  config.object_count = 60;
  config.request_rate = 30.0;
  config.update_rate = 0.1;
  config.horizon = 80.0;
  config.warmup = 15.0;
  config.budget_per_batch = 25;
  config.seed = 13;
  return config;
}

TEST(EventSim, Validation) {
  auto config = small_config();
  config.request_rate = 0.0;
  EXPECT_THROW(run_event_sim(config), std::invalid_argument);
  config = small_config();
  config.update_rate = -0.5;
  EXPECT_THROW(run_event_sim(config), std::invalid_argument);
  config = small_config();
  config.batching_window = 0.0;
  EXPECT_THROW(run_event_sim(config), std::invalid_argument);
  config = small_config();
  config.warmup = config.horizon;
  EXPECT_THROW(run_event_sim(config), std::invalid_argument);
}

TEST(EventSim, PoissonArrivalsMatchRate) {
  auto config = small_config();
  const auto result = run_event_sim(config);
  // Measured window is horizon - warmup = 65 time units at rate 30.
  const double expected = config.request_rate * (config.horizon - config.warmup);
  EXPECT_NEAR(double(result.requests), expected, 0.2 * expected);
}

TEST(EventSim, UpdateProcessFires) {
  auto config = small_config();
  const auto result = run_event_sim(config);
  // 60 objects * rate 0.1 * 80 time units ~ 480 updates.
  EXPECT_NEAR(double(result.updates), 480.0, 150.0);
  config.update_rate = 0.0;
  EXPECT_EQ(run_event_sim(config).updates, 0u);
}

TEST(EventSim, DelayBoundedByWindow) {
  auto config = small_config();
  config.batching_window = 2.0;
  const auto result = run_event_sim(config);
  EXPECT_GT(result.mean_service_delay, 0.0);
  EXPECT_LE(result.max_service_delay, 2.0 + 1e-9);
  // Mean delay of uniform arrivals within a window ~ half the window.
  EXPECT_NEAR(result.mean_service_delay, 1.0, 0.3);
}

TEST(EventSim, ShorterWindowMeansLessDelay) {
  auto config = small_config();
  config.batching_window = 0.5;
  const auto fast = run_event_sim(config);
  config.batching_window = 4.0;
  const auto slow = run_event_sim(config);
  EXPECT_LT(fast.mean_service_delay, slow.mean_service_delay);
}

TEST(EventSim, NoUpdatesMeansPerfectScoreEventually) {
  auto config = small_config();
  config.update_rate = 0.0;
  config.budget_per_batch = 1000;  // can always fetch everything
  const auto result = run_event_sim(config);
  EXPECT_GT(result.average_score, 0.99);
}

TEST(EventSim, KnapsackBeatsCacheOnly) {
  auto config = small_config();
  config.policy = "on-demand-knapsack";
  const auto knapsack = run_event_sim(config);
  config.policy = "cache-only";
  const auto cache_only = run_event_sim(config);
  EXPECT_GT(knapsack.average_score, cache_only.average_score);
  EXPECT_EQ(cache_only.units_downloaded, 0);
}

TEST(EventSim, DeterministicUnderSeed) {
  const auto a = run_event_sim(small_config());
  const auto b = run_event_sim(small_config());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.average_score, b.average_score);
  EXPECT_EQ(a.units_downloaded, b.units_downloaded);
}

TEST(EventSim, BatchCountMatchesHorizon) {
  auto config = small_config();
  config.batching_window = 1.0;
  const auto result = run_event_sim(config);
  // schedule_every from t = window to horizon inclusive.
  EXPECT_NEAR(double(result.batches), config.horizon, 2.0);
}

}  // namespace
}  // namespace mobi::exp
