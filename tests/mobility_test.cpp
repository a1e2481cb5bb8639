// -L mobility suite: trajectories, handoff migration, and the
// prediction-weighted knapsack.
//
//  * model unit locks: trace schedules (including several hops in one
//    tick), waypoint kinematics, dwell/residency bounds;
//  * invariant fuzz over {random-waypoint, trace-driven} x policies x
//    seeds: client conservation every tick, rosters in lockstep with the
//    model, every crossing migrated exactly once;
//  * determinism: a mobility-on run is bit-identical (results, final
//    residency, registry JSON) for serial and pools of 1/2/8;
//  * differential: mobility off registers no mc.mobility.* metrics and
//    rides the unchanged sharded path (golden_run_test pins its bytes);
//  * the MobiCacher claim: under heavy churn the prediction-weighted
//    knapsack beats its residence-blind twin on recency per unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/mobility_fleet.hpp"
#include "exp/multi_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/mobility.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mobi {
namespace {

exp::MultiCellConfig mobile_config(std::uint64_t seed) {
  exp::MultiCellConfig config;
  config.cell_count = 6;
  config.cell.object_count = 30;
  config.cell.client_count = 5;
  config.cell.ticks = 40;
  config.cell.base_budget = 20;
  config.seed = seed;
  config.mobility.mode = sim::MobilityMode::kRandomWaypoint;
  config.mobility.speed_lo = 0.2;
  config.mobility.speed_hi = 0.6;
  config.mobility.pause_lo = 0;
  config.mobility.pause_hi = 2;
  return config;
}

// Pseudo-random trace schedule, generated test-side (the model itself
// draws nothing in trace mode).
sim::MobilityConfig trace_mobility(std::uint64_t seed, std::size_t cells,
                                   std::size_t clients, sim::Tick ticks) {
  sim::MobilityConfig mobility;
  mobility.mode = sim::MobilityMode::kTraceDriven;
  util::SplitMix64 stream(seed * 977 + 13);
  mobility.trace.reserve(40);
  for (std::size_t h = 0; h < 40; ++h) {
    sim::TraceHop hop;
    hop.tick = sim::Tick(stream.next() % std::uint64_t(ticks));
    hop.client = std::uint32_t(stream.next() % std::uint64_t(clients));
    hop.cell = std::uint32_t(stream.next() % std::uint64_t(cells));
    mobility.trace.push_back(hop);
  }
  return mobility;
}

void expect_identical(const client::CellResult& a,
                      const client::CellResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served_locally, b.served_locally);
  EXPECT_EQ(a.served_by_base, b.served_by_base);
  EXPECT_EQ(a.score_sum, b.score_sum);
  EXPECT_EQ(a.base_downloaded, b.base_downloaded);
  EXPECT_EQ(a.sleeper_drops, b.sleeper_drops);
  EXPECT_EQ(a.disconnect_ticks, b.disconnect_ticks);
  EXPECT_EQ(a.failed_fetches, b.failed_fetches);
  EXPECT_EQ(a.degraded_serves, b.degraded_serves);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.downlink_dropped, b.downlink_dropped);
}

TEST(MobilityModel, TraceDrivenFollowsScheduleIncludingMultiHopTicks) {
  sim::MobilityConfig config;
  config.mode = sim::MobilityMode::kTraceDriven;
  // Client 0 hops through two cells at tick 3 — both crossings must be
  // reported, in schedule order, so downstream roster moves stay valid.
  config.trace = {{3, 0, 1}, {3, 0, 2}, {5, 0, 0}, {4, 1, 2}, {6, 1, 1}};
  const std::vector<std::uint32_t> home = {0, 1};
  sim::MobilityModel model(config, 3, home);
  std::vector<sim::Crossing> out;
  std::vector<sim::Crossing> all;
  for (sim::Tick t = 0; t < 8; ++t) {
    model.step(t, out);
    for (const sim::Crossing& crossing : out) all.push_back(crossing);
    std::vector<std::size_t> residents;
    model.count_residents(residents);
    std::size_t total = 0;
    for (std::size_t count : residents) total += count;
    EXPECT_EQ(total, home.size()) << "tick " << t;
  }
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].client, 0u);
  EXPECT_EQ(all[0].from, 0u);
  EXPECT_EQ(all[0].to, 1u);
  EXPECT_EQ(all[1].client, 0u);
  EXPECT_EQ(all[1].from, 1u);
  EXPECT_EQ(all[1].to, 2u);
  EXPECT_EQ(all[2].client, 1u);
  EXPECT_EQ(all[2].from, 1u);
  EXPECT_EQ(all[2].to, 2u);
  EXPECT_EQ(all[3].client, 0u);
  EXPECT_EQ(all[3].from, 2u);
  EXPECT_EQ(all[3].to, 0u);
  EXPECT_EQ(all[4].client, 1u);
  EXPECT_EQ(all[4].from, 2u);
  EXPECT_EQ(all[4].to, 1u);
  EXPECT_EQ(model.cell_of(0), 0u);
  EXPECT_EQ(model.cell_of(1), 1u);
}

// advance() over any partition of the clients into ranges, advanced in
// any order, then publish(), is step(): the ranges' crossings
// concatenated in range order are step()'s, and every client ends in the
// same state. Until publish(), every read still sees the last published
// tick. Both modes: seeded random waypoint, and the multi-hop schedule
// above.
TEST(MobilityModel, SplitStepMatchesSerialStep) {
  struct Case {
    const char* name;
    sim::MobilityConfig config;
    std::size_t cells;
    std::vector<std::uint32_t> home;
    sim::Tick ticks;
  };
  sim::MobilityConfig waypoint;
  waypoint.mode = sim::MobilityMode::kRandomWaypoint;
  waypoint.speed_lo = 0.2;
  waypoint.speed_hi = 0.6;
  waypoint.pause_lo = 0;
  waypoint.pause_hi = 2;
  waypoint.seed = 29;
  std::vector<std::uint32_t> spread(6 * 30);
  for (std::size_t i = 0; i < spread.size(); ++i) {
    spread[i] = std::uint32_t(i % 6);
  }
  sim::MobilityConfig multi_hop;
  multi_hop.mode = sim::MobilityMode::kTraceDriven;
  multi_hop.trace = {{3, 0, 1}, {3, 0, 2}, {5, 0, 0}, {4, 1, 2}, {6, 1, 1}};
  const Case cases[] = {{"waypoint", waypoint, 6, spread, 200},
                        {"multi-hop trace", multi_hop, 3, {0, 1}, 8}};

  for (const Case& c : cases) {
    const std::size_t n = c.home.size();
    for (const std::size_t blocks : {std::size_t(1), std::size_t(2),
                                     std::size_t(3), std::size_t(7), n}) {
      SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(blocks) +
                   " blocks");
      sim::MobilityModel serial(c.config, c.cells, c.home);
      sim::MobilityModel split(c.config, c.cells, c.home);
      std::vector<sim::Crossing> expected;
      std::vector<std::vector<sim::Crossing>> out(blocks);
      std::vector<std::uint32_t> cell_before(n);
      std::vector<double> dwell_before(n);
      std::size_t crossings = 0;
      for (sim::Tick t = 0; t < c.ticks; ++t) {
        serial.step(t, expected);
        const sim::Tick now_before = split.now();
        for (std::uint32_t i = 0; i < n; ++i) {
          cell_before[i] = split.cell_of(i);
          dwell_before[i] = split.estimated_dwell(i);
        }
        for (std::size_t b = blocks; b-- > 0;) {
          split.advance(t, n * b / blocks, n * (b + 1) / blocks, out[b]);
        }
        ASSERT_EQ(split.now(), now_before) << "tick " << t;
        for (std::uint32_t i = 0; i < n; ++i) {
          ASSERT_EQ(split.cell_of(i), cell_before[i]) << "tick " << t;
          ASSERT_EQ(split.estimated_dwell(i), dwell_before[i]) << "tick " << t;
        }
        split.publish(t);
        ASSERT_EQ(split.now(), t);

        std::vector<sim::Crossing> got;
        for (const auto& block : out) {
          got.insert(got.end(), block.begin(), block.end());
        }
        ASSERT_EQ(got.size(), expected.size()) << "tick " << t;
        for (std::size_t k = 0; k < got.size(); ++k) {
          ASSERT_EQ(got[k].client, expected[k].client) << "tick " << t;
          ASSERT_EQ(got[k].from, expected[k].from) << "tick " << t;
          ASSERT_EQ(got[k].to, expected[k].to) << "tick " << t;
        }
        crossings += got.size();
        for (std::uint32_t i = 0; i < n; ++i) {
          ASSERT_EQ(split.cell_of(i), serial.cell_of(i)) << "tick " << t;
          ASSERT_EQ(split.estimated_dwell(i), serial.estimated_dwell(i))
              << "tick " << t;
        }
      }
      EXPECT_GT(crossings, 0u);
    }
  }
  sim::MobilityModel model(multi_hop, 3, {0, 1});
  std::vector<sim::Crossing> out;
  EXPECT_THROW(model.advance(0, 1, 3, out), std::out_of_range);
  EXPECT_THROW(model.advance(0, 2, 1, out), std::out_of_range);
}

TEST(MobilityModel, TraceDwellReadsTheScheduleExactly) {
  sim::MobilityConfig config;
  config.mode = sim::MobilityMode::kTraceDriven;
  config.trace = {{7, 0, 1}, {9, 0, 1}};  // second hop is a same-cell no-op
  sim::MobilityModel model(config, 2, {0});
  std::vector<sim::Crossing> out;
  model.step(0, out);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(model.estimated_dwell(0), 7.0);
  EXPECT_EQ(model.residency_probability(0, 14), 0.5);
  EXPECT_EQ(model.residency_probability(0, 7), 1.0);
  sim::ResidencyPredictor predictor(model, 14);
  EXPECT_EQ(predictor.probability(0), 0.5);
}

TEST(MobilityModel, ResidencyProbabilityStaysInUnitInterval) {
  exp::MultiCellConfig config = mobile_config(11);
  exp::MobilityFleet fleet(config);
  while (!fleet.done()) {
    fleet.step();
    for (std::uint32_t c = 0; c < std::uint32_t(fleet.client_count()); ++c) {
      const double dwell = fleet.model().estimated_dwell(c);
      EXPECT_GE(dwell, 0.0);
      const double p = fleet.model().residency_probability(c, 8);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

// The tentpole invariants, fuzzed over both modes, both knapsack-family
// policies, 30+ seeds and serial or pooled steps: no client is ever lost
// or duplicated, cell rosters track the model exactly (so no request is
// ever served by a non-resident cell — requests only come from rosters),
// and every boundary crossing becomes exactly one migration.
TEST(MobilityFleet, InvariantFuzzAcrossModesPoliciesAndSeeds) {
  const char* policies[] = {"on-demand-knapsack", "on-demand-lowest-recency"};
  util::ThreadPool two(2);
  std::size_t combos = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (const bool trace : {false, true}) {
      for (util::ThreadPool* pool :
           {static_cast<util::ThreadPool*>(nullptr), &two}) {
        exp::MultiCellConfig config = mobile_config(seed);
        config.cell.base_policy = policies[seed % 2];
        if (trace) {
          config.mobility = trace_mobility(
              seed, config.cell_count,
              config.cell_count * config.cell.client_count, config.cell.ticks);
        }
        SCOPED_TRACE(std::string(trace ? "trace" : "waypoint") + " seed " +
                     std::to_string(seed) + " policy " +
                     config.cell.base_policy +
                     (pool ? " pool of 2" : " serial"));
        exp::MobilityFleet fleet(config);
        const std::size_t total = fleet.client_count();
        std::vector<std::size_t> residents;
        while (!fleet.done()) {
          fleet.step(pool);
          // Conservation: the model's census sums to the population.
          fleet.model().count_residents(residents);
          std::size_t census = 0;
          for (std::size_t count : residents) census += count;
          ASSERT_EQ(census, total);
          // Rosters in lockstep with the model, sorted, disjoint.
          std::size_t rostered = 0;
          for (std::size_t cell = 0; cell < fleet.cell_count(); ++cell) {
            const auto& roster = fleet.roster(cell);
            ASSERT_TRUE(std::is_sorted(roster.begin(), roster.end()));
            ASSERT_EQ(roster.size(), residents[cell]);
            rostered += roster.size();
            for (const std::uint32_t id : roster) {
              ASSERT_EQ(fleet.cell_of_client(id), std::uint32_t(cell));
            }
          }
          ASSERT_EQ(rostered, total);
          // Every crossing migrated exactly once.
          ASSERT_EQ(fleet.stats().migrations, fleet.stats().crossings);
        }
        ++combos;
      }
    }
  }
  EXPECT_GE(combos, 30u);
}

TEST(MobilityFleet, MobilityOnBitIdenticalAcrossPoolSizes) {
  exp::MultiCellConfig config = mobile_config(7);
  config.cell.server_count = 2;
  config.cell.faults.fetch_failure_rate = 0.1;
  config.keep_series = true;

  obs::MetricsRegistry serial_registry;
  obs::SeriesRecorder serial_recorder(serial_registry);
  const exp::MultiCellResult serial =
      exp::run_multi_cell(config, nullptr, {.recorder = &serial_recorder});
  const std::string serial_export = serial_registry.to_json();
  EXPECT_GT(serial.mobility.crossings, 0u);
  ASSERT_NE(serial_registry.find_counter("mc.mobility.crossings"), nullptr);
  EXPECT_EQ(serial_registry.find_counter("mc.mobility.crossings")->value(),
            serial.mobility.crossings);
  EXPECT_EQ(serial_registry.find_counter("mc.mobility.migrations")->value(),
            serial.mobility.migrations);

  for (std::size_t pool_size : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    util::ThreadPool pool(pool_size);
    obs::MetricsRegistry registry;
    obs::SeriesRecorder recorder(registry);
    const exp::MultiCellResult pooled =
        exp::run_multi_cell(config, &pool, {.recorder = &recorder});
    ASSERT_EQ(pooled.per_cell.size(), serial.per_cell.size());
    for (std::size_t i = 0; i < serial.per_cell.size(); ++i) {
      expect_identical(serial.per_cell[i], pooled.per_cell[i]);
      ASSERT_EQ(pooled.cell_series[i].size(), serial.cell_series[i].size());
      for (std::size_t t = 0; t < serial.cell_series[i].size(); ++t) {
        expect_identical(serial.cell_series[i][t], pooled.cell_series[i][t]);
      }
    }
    expect_identical(serial.aggregate, pooled.aggregate);
    EXPECT_EQ(pooled.mobility.crossings, serial.mobility.crossings);
    EXPECT_EQ(pooled.mobility.migrations, serial.mobility.migrations);
    EXPECT_EQ(pooled.mobility.migrated_units, serial.mobility.migrated_units);
    EXPECT_EQ(pooled.client_cells, serial.client_cells);
    EXPECT_EQ(registry.to_json(), serial_export);
  }
}

// The mobility-off differential lock: the default config must ride the
// unchanged sharded path — no mc.mobility.* metrics, no residency map,
// no extra RNG draws (golden_run_test pins the registry bytes against
// the pre-mobility baseline; here we pin the structural half).
// One client hops A -> B -> C within one tick while the cells around it
// tick on a pool: the barrier queues both moves for the engines, which
// apply them on their own threads. The client must end in C alone, with
// one handoff window opened (the second begin_handoff of the tick finds
// the window open and does not count again), both moves migrated, and
// every cell where the serial run has it.
TEST(MobilityFleet, MultiHopTickMatchesSerialOnPools) {
  exp::MultiCellConfig config = mobile_config(9);
  config.cell_count = 3;
  config.cell.client_count = 2;  // client 0 starts in cell 0
  config.cell.ticks = 8;
  config.mobility = sim::MobilityConfig{};
  config.mobility.mode = sim::MobilityMode::kTraceDriven;
  config.mobility.handoff_ticks = 2;
  constexpr sim::Tick kHop = 4;
  config.mobility.trace = {{kHop, 0, 1}, {kHop, 0, 2}};

  const auto run = [&](util::ThreadPool* pool) {
    exp::MobilityFleet fleet(config);
    while (fleet.now() < kHop) fleet.step(pool);
    EXPECT_FALSE(fleet.mobile_client(0).in_handoff());
    const std::uint64_t handoffs = fleet.mobile_client(0).handoff_count();
    fleet.step(pool);
    EXPECT_EQ(fleet.mobile_client(0).handoff_count(), handoffs + 1);
    EXPECT_EQ(fleet.stats().migrations, 2u);
    EXPECT_EQ(fleet.cell_of_client(0), 2u);
    for (std::size_t cell = 0; cell < fleet.cell_count(); ++cell) {
      const auto& roster = fleet.roster(cell);
      EXPECT_EQ(std::count(roster.begin(), roster.end(), 0u),
                cell == 2 ? 1 : 0)
          << "cell " << cell;
    }
    std::vector<client::CellResult> after_hop;
    for (std::size_t cell = 0; cell < fleet.cell_count(); ++cell) {
      after_hop.push_back(fleet.cell_result(cell));
    }
    while (!fleet.done()) fleet.step(pool);
    std::vector<client::CellResult> at_end;
    for (std::size_t cell = 0; cell < fleet.cell_count(); ++cell) {
      at_end.push_back(fleet.cell_result(cell));
    }
    return std::make_pair(after_hop, at_end);
  };

  const auto serial = run(nullptr);
  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    util::ThreadPool pool(pool_size);
    const auto pooled = run(&pool);
    for (std::size_t cell = 0; cell < config.cell_count; ++cell) {
      expect_identical(serial.first[cell], pooled.first[cell]);
      expect_identical(serial.second[cell], pooled.second[cell]);
    }
  }
}

TEST(MobilityFleet, MobilityOffRegistersNothingExtra) {
  exp::MultiCellConfig config = mobile_config(7);
  config.mobility = sim::MobilityConfig{};  // mode = kOff
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const exp::MultiCellResult result =
      exp::run_multi_cell(config, nullptr, {.recorder = &recorder});
  EXPECT_EQ(registry.find_counter("mc.mobility.crossings"), nullptr);
  EXPECT_EQ(registry.find_counter("mc.mobility.migrations"), nullptr);
  EXPECT_EQ(registry.find_counter("mc.mobility.migrated_units"), nullptr);
  EXPECT_EQ(result.mobility.crossings, 0u);
  EXPECT_TRUE(result.client_cells.empty());
  EXPECT_NE(registry.find_counter("mc.requests"), nullptr);
}

TEST(MobilityFleet, HandoffAccountingMatchesCrossings) {
  exp::MultiCellConfig config = mobile_config(21);
  config.mobility.handoff_ticks = 2;
  const exp::MultiCellResult result = exp::run_multi_cell(config);
  EXPECT_GT(result.mobility.crossings, 0u);
  // Every crossing migrates exactly one record.
  EXPECT_EQ(result.mobility.migrations, result.mobility.crossings);
  // Each migration opens a handoff window unless the client is already
  // mid-handoff (multi-hop ticks, overlapping windows), so the clients'
  // own handoff counters are bounded by the crossings and nonzero.
  EXPECT_GT(result.aggregate.handoffs, 0u);
  EXPECT_LE(result.aggregate.handoffs, result.mobility.crossings);
  ASSERT_EQ(result.client_cells.size(),
            config.cell_count * config.cell.client_count);
  for (const std::uint32_t cell : result.client_cells) {
    EXPECT_LT(cell, config.cell_count);
  }
}

// Throws rather than silently ignoring mobility on an unsupported
// topology.
TEST(MobilityFleet, RejectsCoopTopologyAndOffConfigs) {
  exp::MultiCellConfig config = mobile_config(3);
  config.topology = exp::CellTopology::kCoopClusters;
  EXPECT_THROW(exp::run_multi_cell(config), std::invalid_argument);
  exp::MultiCellConfig off = mobile_config(3);
  off.mobility = sim::MobilityConfig{};
  EXPECT_THROW(exp::MobilityFleet fleet(off), std::invalid_argument);
}

TEST(MobilityFleet, RejectsNonPositiveReportPeriod) {
  for (const sim::Tick period : {sim::Tick(0), sim::Tick(-5)}) {
    exp::MultiCellConfig config = mobile_config(3);
    config.cell.report_period = period;
    EXPECT_THROW(exp::run_multi_cell(config), std::invalid_argument);
  }
}

// The MobiCacher acceptance: with heavy churn (every client in motion,
// no pauses), scaling knapsack benefit by predicted residency must beat
// the residence-blind twin on served recency per downloaded unit — the
// predictive station stops spending downlink on clients that will have
// left before the copy pays off.
TEST(MobilityFleet, PredictiveBeatsResidenceBlindTwinUnderChurn) {
  exp::MultiCellConfig config = mobile_config(5);
  config.cell_count = 9;
  config.cell.client_count = 8;
  config.cell.ticks = 200;
  config.cell.base_budget = 12;  // scarce budget: triage matters
  // High dwell variance — paused clients stay, fast movers leave — and a
  // handoff window spanning a report period, so every migrant sleeps
  // through a report and the sleeper rule drops its cache: downloads
  // invested in departing clients are genuinely wasted.
  config.mobility.speed_lo = 0.1;
  config.mobility.speed_hi = 0.6;
  config.mobility.pause_lo = 0;
  config.mobility.pause_hi = 4;
  config.mobility.handoff_ticks = config.cell.report_period + 1;
  config.mobility_horizon = 10;

  config.mobility_predictive = true;
  const exp::MultiCellResult predictive = exp::run_multi_cell(config);
  config.mobility_predictive = false;
  const exp::MultiCellResult blind = exp::run_multi_cell(config);

  // Same trajectories either way: the probe only reads the model.
  EXPECT_EQ(predictive.mobility.crossings, blind.mobility.crossings);
  // >= 20% of the population crosses per report window on average.
  const double windows =
      double(config.cell.ticks) / double(config.cell.report_period);
  const double population = double(config.cell_count) *
                            double(config.cell.client_count);
  EXPECT_GE(double(predictive.mobility.crossings) / windows,
            0.2 * population);

  const auto recency_per_unit = [](const exp::MultiCellResult& result) {
    return result.aggregate.score_sum /
           double(std::max<object::Units>(1,
                                          result.aggregate.base_downloaded));
  };
  EXPECT_GT(recency_per_unit(predictive), recency_per_unit(blind));
}

}  // namespace
}  // namespace mobi
