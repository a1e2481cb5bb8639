#include "coop/cooperative.hpp"

#include <gtest/gtest.h>

namespace mobi::coop {
namespace {

CoopConfig small_config() {
  CoopConfig config;
  config.cell_count = 3;
  config.object_count = 80;
  config.requests_per_tick_per_cell = 25;
  config.warmup_ticks = 15;
  config.measure_ticks = 80;
  config.budget_per_cell = 30;
  config.seed = 21;
  return config;
}

TEST(Cooperative, Validation) {
  auto config = small_config();
  config.cell_count = 0;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  config = small_config();
  config.neighbor_recency_threshold = 0.0;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  config.neighbor_recency_threshold = 1.5;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  // Negative tick counts are rejected: run as given, they would measure
  // nothing and report a perfect average score.
  config = small_config();
  config.warmup_ticks = 5;
  config.measure_ticks = -2;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  EXPECT_THROW(CoopCluster cluster(config), std::invalid_argument);
  EXPECT_THROW(detail::run_cooperative_reference(config, nullptr),
               std::invalid_argument);
  config = small_config();
  config.warmup_ticks = -1;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  EXPECT_THROW(CoopCluster cluster(config), std::invalid_argument);
  EXPECT_THROW(detail::run_cooperative_reference(config, nullptr),
               std::invalid_argument);
  // Zero ticks is a valid, empty run.
  config.warmup_ticks = 0;
  config.measure_ticks = 0;
  EXPECT_EQ(run_cooperative(config).requests, 0u);
}

TEST(Cooperative, ModeNames) {
  EXPECT_STREQ(fetch_mode_name(FetchMode::kOriginOnly), "origin-only");
  EXPECT_STREQ(fetch_mode_name(FetchMode::kNeighborFirst), "neighbor-first");
}

TEST(Cooperative, OriginOnlyNeverUsesNeighbors) {
  auto config = small_config();
  config.mode = FetchMode::kOriginOnly;
  const auto result = run_cooperative(config);
  EXPECT_EQ(result.neighbor_fetches, 0u);
  EXPECT_EQ(result.neighbor_units, 0);
  EXPECT_GT(result.origin_fetches, 0u);
}

TEST(Cooperative, NeighborFirstOffloadsOrigin) {
  auto config = small_config();
  config.mode = FetchMode::kOriginOnly;
  const auto origin_only = run_cooperative(config);
  config.mode = FetchMode::kNeighborFirst;
  const auto cooperative = run_cooperative(config);
  // Overlapping interests: many planned downloads resolve at neighbors.
  EXPECT_GT(cooperative.neighbor_fetches, 0u);
  EXPECT_LT(cooperative.origin_units, origin_only.origin_units);
}

TEST(Cooperative, NeighborCopiesCostSomeRecency) {
  auto config = small_config();
  config.mode = FetchMode::kOriginOnly;
  config.neighbor_recency_threshold = 0.3;
  const auto origin_only = run_cooperative(config);
  config.mode = FetchMode::kNeighborFirst;
  const auto cooperative = run_cooperative(config);
  // Accepting neighbor copies can only lower (or match) average recency.
  EXPECT_LE(cooperative.average_recency(), origin_only.average_recency() + 1e-9);
}

TEST(Cooperative, StricterThresholdUsesFewerNeighbors) {
  auto config = small_config();
  config.mode = FetchMode::kNeighborFirst;
  config.neighbor_recency_threshold = 0.3;
  const auto lax = run_cooperative(config);
  config.neighbor_recency_threshold = 0.99;
  const auto strict = run_cooperative(config);
  EXPECT_LE(strict.neighbor_fraction(), lax.neighbor_fraction());
}

TEST(Cooperative, SingleCellHasNoNeighbors) {
  auto config = small_config();
  config.cell_count = 1;
  config.mode = FetchMode::kNeighborFirst;
  const auto result = run_cooperative(config);
  EXPECT_EQ(result.neighbor_fetches, 0u);
}

TEST(Cooperative, DistinctInterestsReduceOverlap) {
  auto config = small_config();
  config.mode = FetchMode::kNeighborFirst;
  config.distinct_interests = false;
  const auto shared = run_cooperative(config);
  config.distinct_interests = true;
  const auto disjoint = run_cooperative(config);
  EXPECT_LT(disjoint.neighbor_fraction(), shared.neighbor_fraction() + 1e-9);
}

TEST(Cooperative, DeterministicUnderSeed) {
  const auto a = run_cooperative(small_config());
  const auto b = run_cooperative(small_config());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.score_sum, b.score_sum);
  EXPECT_EQ(a.origin_units, b.origin_units);
  EXPECT_EQ(a.neighbor_units, b.neighbor_units);
}

TEST(Cooperative, ScoresStayInRange) {
  const auto result = run_cooperative(small_config());
  EXPECT_GT(result.average_score(), 0.0);
  EXPECT_LE(result.average_score(), 1.0);
  EXPECT_GE(result.average_recency(), 0.0);
  EXPECT_LE(result.average_recency(), 1.0);
}

}  // namespace
}  // namespace mobi::coop
