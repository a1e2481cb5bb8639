#include "coop/cooperative.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "obs/profiler.hpp"
#include "workload/updates.hpp"

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
  config = small_config();
  config.warmup_ticks = -1;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
  EXPECT_THROW(CoopCluster cluster(config), std::invalid_argument);
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

TEST(Cooperative, NeighborInstallsAreStrictlyFresherThanTheCopyTheyReplace) {
  // Coherence off, a cell still resolves each planned download with the
  // station's rule: a neighbor copy only when it beats the cell's own
  // copy, else the origin. So every refresh a tick makes leaves the entry
  // strictly fresher than that tick's updates left it. The decays are
  // predicted from a second update process with the same schedule.
  for (const double threshold : {0.3, 0.5, 0.99}) {
    SCOPED_TRACE("threshold " + std::to_string(threshold));
    auto config = small_config();
    config.mode = FetchMode::kNeighborFirst;
    config.policy = "on-demand-knapsack";
    config.neighbor_recency_threshold = threshold;
    CoopCluster cluster(config);
    const auto updates = workload::make_periodic_staggered(
        config.object_count, config.update_period);
    const std::size_t cells = cluster.cell_count();
    const std::size_t objects = config.object_count;
    std::vector<double> after_updates(cells * objects);
    std::vector<std::uint32_t> refreshes_before(cells * objects);
    std::size_t refreshes = 0;
    std::size_t not_fresher = 0;
    const sim::Tick total = config.warmup_ticks + config.measure_ticks;
    for (sim::Tick t = 0; t < total; ++t) {
      for (std::size_t c = 0; c < cells; ++c) {
        const cache::Cache& cache = cluster.cell_cache(c);
        for (object::ObjectId id = 0; id < objects; ++id) {
          const bool cached = cache.contains(id);
          after_updates[c * objects + id] = cache.recency_or_zero(id);
          refreshes_before[c * objects + id] =
              cached ? cache.entry(id).refreshes : 0;
        }
      }
      updates->for_each_updated(t, [&](object::ObjectId id) {
        for (std::size_t c = 0; c < cells; ++c) {
          const cache::Cache& cache = cluster.cell_cache(c);
          if (!cache.contains(id)) continue;
          double& x = after_updates[c * objects + id];
          x = cache.decay_model().decayed(x);
        }
      });
      cluster.tick();
      for (std::size_t c = 0; c < cells; ++c) {
        const cache::Cache& cache = cluster.cell_cache(c);
        for (object::ObjectId id = 0; id < objects; ++id) {
          const std::size_t slot = c * objects + id;
          if (!cache.contains(id) ||
              cache.entry(id).refreshes == refreshes_before[slot]) {
            continue;
          }
          ++refreshes;
          if (!(cache.recency_or_zero(id) > after_updates[slot])) {
            ++not_fresher;
          }
        }
      }
    }
    EXPECT_GT(refreshes, 0u);
    EXPECT_EQ(not_fresher, 0u) << "of " << refreshes << " refreshes";
    // No directory, so no protocol traffic or discounted peer accounting.
    const CoopResult& r = cluster.result();
    EXPECT_GT(r.neighbor_fetches, 0u);
    EXPECT_EQ(r.peer_hits + r.invalidations + r.propagations +
                  r.lease_expiries,
              0u);
    EXPECT_EQ(r.peer_fetch_units + r.coherence_units, 0);
  }
}

TEST(Cooperative, StationPhasesNestUnderCoopCells) {
  // The cluster hands its profiler to every cell's station, so the
  // station's spans open inside `coop.cells`, once per cell per tick.
  const auto config = small_config();
  CoopCluster cluster(config);
  obs::PhaseProfiler profiler;
  cluster.set_profiler(&profiler);
  const std::uint64_t ticks = 12;
  for (std::uint64_t t = 0; t < ticks; ++t) cluster.tick();
  EXPECT_EQ(profiler.calls(profiler.phase("coop.cells")), ticks);
  for (const char* name : {"bs.select", "bs.serve"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(profiler.calls(profiler.phase(name)),
              cluster.cell_count() * ticks);
  }
  std::istringstream lines(profiler.flamegraph_collapsed());
  std::size_t station_paths = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("bs.") == std::string::npos) continue;
    ++station_paths;
    EXPECT_EQ(line.rfind("coop.cells;bs.", 0), 0u) << line;
  }
  EXPECT_GE(station_paths, 2u);
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
