#include "exp/policy_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace mobi::exp {
namespace {

PolicySimConfig small_config() {
  PolicySimConfig config;
  config.object_count = 60;
  config.requests_per_tick = 30;
  config.warmup_ticks = 10;
  config.measure_ticks = 60;
  config.update_period = 4;
  config.budget = 40;
  config.seed = 3;
  return config;
}

TEST(PolicySim, RunsAndReportsSaneMetrics) {
  const auto result = run_policy_sim(small_config());
  EXPECT_EQ(result.requests, 30u * 60u);
  EXPECT_GT(result.average_score, 0.0);
  EXPECT_LE(result.average_score, 1.0);
  EXPECT_GE(result.average_recency, 0.0);
  EXPECT_LE(result.average_recency, 1.0);
  EXPECT_GT(result.units_downloaded, 0);
  EXPECT_GE(result.downlink_utilization, 0.0);
  EXPECT_LE(result.downlink_utilization, 1.0);
}

TEST(PolicySim, KnapsackBeatsCacheOnly) {
  auto config = small_config();
  config.policy = "on-demand-knapsack";
  const auto knapsack = run_policy_sim(config);
  config.policy = "cache-only";
  const auto cache_only = run_policy_sim(config);
  EXPECT_GT(knapsack.average_score, cache_only.average_score);
  EXPECT_EQ(cache_only.units_downloaded, 0);
}

TEST(PolicySim, KnapsackBeatsAsyncRoundRobinAtSameBudget) {
  auto config = small_config();
  config.policy = "on-demand-knapsack";
  const auto knapsack = run_policy_sim(config);
  config.policy = "async-round-robin";
  const auto async = run_policy_sim(config);
  EXPECT_GT(knapsack.average_score, async.average_score);
}

TEST(PolicySim, GreedySolverCloseToExact) {
  auto config = small_config();
  config.policy = "on-demand-knapsack";
  const auto exact = run_policy_sim(config);
  config.policy = "on-demand-knapsack-greedy";
  const auto greedy = run_policy_sim(config);
  EXPECT_NEAR(greedy.average_score, exact.average_score, 0.05);
}

TEST(PolicySim, BudgetCapsPerTickDownloads) {
  auto config = small_config();
  config.budget = 10;
  const auto result = run_policy_sim(config);
  EXPECT_LE(result.units_downloaded,
            object::Units(config.measure_ticks) * 10);
}

TEST(PolicySim, LargerBudgetNeverHurtsScore) {
  auto config = small_config();
  config.budget = 10;
  const auto small_budget = run_policy_sim(config);
  config.budget = 200;
  const auto large_budget = run_policy_sim(config);
  EXPECT_GE(large_budget.average_score, small_budget.average_score - 1e-9);
}

TEST(PolicySim, DeterministicUnderSeed) {
  const auto a = run_policy_sim(small_config());
  const auto b = run_policy_sim(small_config());
  EXPECT_DOUBLE_EQ(a.average_score, b.average_score);
  EXPECT_EQ(a.units_downloaded, b.units_downloaded);
}

TEST(PolicySim, StepScorerIsHarsherThanReciprocal) {
  auto config = small_config();
  config.scorer = "reciprocal";
  const auto reciprocal = run_policy_sim(config);
  config.scorer = "step";
  const auto step = run_policy_sim(config);
  EXPECT_LE(step.average_score, reciprocal.average_score);
}

TEST(PolicySim, StaggeredUpdatesSupported) {
  auto config = small_config();
  config.staggered_updates = true;
  const auto result = run_policy_sim(config);
  EXPECT_GT(result.average_score, 0.0);
}

TEST(PolicySim, UnknownPolicyOrScorerThrows) {
  auto config = small_config();
  config.policy = "bogus";
  EXPECT_THROW(run_policy_sim(config), std::invalid_argument);
  config = small_config();
  config.scorer = "bogus";
  EXPECT_THROW(run_policy_sim(config), std::invalid_argument);
}

// An empty catalog is rejected before the downlink sizing divides by the
// catalog size, with a message that names the field.
TEST(PolicySim, RejectsEmptyCatalog) {
  auto config = small_config();
  config.object_count = 0;
  try {
    run_policy_sim(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("object_count"), std::string::npos)
        << e.what();
  }
}

// A negative tick count is rejected before any work: a negative measure
// window would report no requests at all, and a negative warm-up would
// quietly measure fewer ticks than asked for.
TEST(PolicySim, RejectsNegativeTickCounts) {
  auto warmup = small_config();
  warmup.warmup_ticks = -3;
  EXPECT_THROW(run_policy_sim(warmup), std::invalid_argument);
  auto measure = small_config();
  measure.measure_ticks = -2;
  EXPECT_THROW(run_policy_sim(measure), std::invalid_argument);
}

TEST(PolicySim, FairnessMetricsAreCoherent) {
  const auto result = run_policy_sim(small_config());
  EXPECT_GT(result.jain_fairness, 0.0);
  EXPECT_LE(result.jain_fairness, 1.0 + 1e-12);
  EXPECT_GE(result.score_p10, result.min_score);
  EXPECT_LE(result.score_p10, 1.0);
  EXPECT_GE(result.min_score, 0.0);
  // The minimum never exceeds the mean.
  EXPECT_LE(result.min_score, result.average_score + 1e-12);
}

TEST(PolicySim, KnapsackIsFairerThanAsync) {
  auto config = small_config();
  config.policy = "on-demand-knapsack";
  const auto knapsack = run_policy_sim(config);
  config.policy = "async-round-robin";
  const auto async = run_policy_sim(config);
  EXPECT_GE(knapsack.jain_fairness, async.jain_fairness);
  EXPECT_GE(knapsack.score_p10, async.score_p10);
}

TEST(PolicySim, FasterUpdatesLowerRecency) {
  auto config = small_config();
  config.update_period = 8;
  const auto slow = run_policy_sim(config);
  config.update_period = 1;
  const auto fast = run_policy_sim(config);
  EXPECT_GT(slow.average_recency, fast.average_recency);
}

}  // namespace
}  // namespace mobi::exp
