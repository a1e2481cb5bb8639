// Determinism suite for the sharded multi-cell driver: a fixed-seed run
// must produce bit-identical per-cell results and per-tick series for
// 1, 2 and 8 pool threads, and match a no-pool serial run — scheduling
// must never leak into simulation output. Also pins the shard-seed
// stream's position-addressability and the recorder aggregation contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/multi_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mobi {
namespace {

exp::MultiCellConfig small_config() {
  exp::MultiCellConfig config;
  config.cell_count = 6;
  config.cell.object_count = 30;
  config.cell.client_count = 8;
  config.cell.ticks = 40;
  config.cell.base_budget = 20;
  config.seed = 7;
  return config;
}

// EXPECT_EQ on doubles is deliberate: the contract is bit-identical.
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
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_successes, b.retry_successes);
  EXPECT_EQ(a.degraded_serves, b.degraded_serves);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.downlink_dropped, b.downlink_dropped);
}

void expect_identical(const coop::CoopResult& a, const coop::CoopResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.score_sum, b.score_sum);
  EXPECT_EQ(a.recency_sum, b.recency_sum);
  EXPECT_EQ(a.origin_units, b.origin_units);
  EXPECT_EQ(a.neighbor_units, b.neighbor_units);
  EXPECT_EQ(a.origin_fetches, b.origin_fetches);
  EXPECT_EQ(a.neighbor_fetches, b.neighbor_fetches);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.lease_expiries, b.lease_expiries);
  EXPECT_EQ(a.peer_hits, b.peer_hits);
  EXPECT_EQ(a.peer_fetch_units, b.peer_fetch_units);
  EXPECT_EQ(a.coherence_units, b.coherence_units);
}

TEST(MultiCell, ShardSeedIsPositionAddressableSplitMixStream) {
  const std::uint64_t master = 42;
  util::SplitMix64 stream(master);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = exp::shard_seed(master, i);
    // The jump formula must agree with walking the stream output by
    // output — that equivalence is what makes shards relocatable.
    EXPECT_EQ(seed, stream.next()) << "index " << i;
    seen.insert(seed);
  }
  EXPECT_EQ(seen.size(), 64u) << "shard seeds must be distinct";
  EXPECT_NE(exp::shard_seed(1, 0), exp::shard_seed(2, 0));
}

TEST(MultiCell, PoolRunsBitIdenticalToSerialForAllPoolSizes) {
  exp::MultiCellConfig config = small_config();
  config.keep_series = true;
  const exp::MultiCellResult serial = exp::run_multi_cell(config);
  ASSERT_EQ(serial.per_cell.size(), config.cell_count);
  ASSERT_EQ(serial.cell_series.size(), config.cell_count);

  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const exp::MultiCellResult parallel =
        exp::run_multi_cell(config, &pool);
    ASSERT_EQ(parallel.per_cell.size(), serial.per_cell.size());
    for (std::size_t i = 0; i < serial.per_cell.size(); ++i) {
      expect_identical(serial.per_cell[i], parallel.per_cell[i]);
      ASSERT_EQ(parallel.cell_series[i].size(), serial.cell_series[i].size());
      for (std::size_t t = 0; t < serial.cell_series[i].size(); ++t) {
        expect_identical(serial.cell_series[i][t],
                         parallel.cell_series[i][t]);
      }
    }
    expect_identical(serial.aggregate, parallel.aggregate);
  }
}

TEST(MultiCell, SeriesAreCumulativeAndEndAtTheCellResult) {
  exp::MultiCellConfig config = small_config();
  config.keep_series = true;
  const exp::MultiCellResult result = exp::run_multi_cell(config);
  for (std::size_t i = 0; i < result.per_cell.size(); ++i) {
    const auto& series = result.cell_series[i];
    ASSERT_EQ(series.size(), std::size_t(config.cell.ticks));
    expect_identical(series.back(), result.per_cell[i]);
    for (std::size_t t = 1; t < series.size(); ++t) {
      EXPECT_GE(series[t].requests, series[t - 1].requests);
      EXPECT_GE(series[t].base_downloaded, series[t - 1].base_downloaded);
    }
  }
}

TEST(MultiCell, RecorderAggregatesShardSumsAndPerturbsNothing) {
  exp::MultiCellConfig config = small_config();
  config.keep_series = true;
  const exp::MultiCellResult bare = exp::run_multi_cell(config);

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  util::ThreadPool pool(2);
  const exp::MultiCellResult observed =
      exp::run_multi_cell(config, &pool, {.recorder = &recorder});
  expect_identical(bare.aggregate, observed.aggregate);

  ASSERT_EQ(recorder.samples(), std::size_t(config.cell.ticks));
  const auto& requests = recorder.series("mc.requests");
  const auto& units = recorder.series("mc.units_downloaded");
  for (std::size_t t = 0; t < recorder.samples(); ++t) {
    std::size_t want_requests = 0;
    object::Units want_units = 0;
    for (const auto& series : bare.cell_series) {
      want_requests += series[t].requests;
      want_units += series[t].base_downloaded;
    }
    EXPECT_EQ(requests[t], double(want_requests)) << "tick " << t;
    EXPECT_EQ(units[t], double(want_units)) << "tick " << t;
  }
  EXPECT_EQ(requests.back(), double(bare.aggregate.requests));
  EXPECT_EQ(registry.find_gauge("mc.cells")->value(),
            double(config.cell_count));
  EXPECT_EQ(registry.find_gauge("mc.average_score")->value(),
            bare.aggregate.average_score());
  EXPECT_EQ(registry.find_counter("mc.local_hits")->value(),
            bare.aggregate.served_locally);
}

TEST(MultiCell, CoopClustersBitIdenticalAcrossPoolSizes) {
  exp::MultiCellConfig config;
  config.topology = exp::CellTopology::kCoopClusters;
  config.cell_count = 5;
  config.cells_per_cluster = 2;  // shards of 2, 2, 1 cells
  config.cluster.object_count = 30;
  config.cluster.requests_per_tick_per_cell = 10;
  config.cluster.warmup_ticks = 5;
  config.cluster.measure_ticks = 25;
  config.seed = 11;
  config.keep_series = true;

  const exp::MultiCellResult serial = exp::run_multi_cell(config);
  ASSERT_EQ(serial.shards, 3u);
  ASSERT_EQ(serial.cells, 5u);
  ASSERT_EQ(serial.per_cluster.size(), 3u);
  ASSERT_EQ(serial.cluster_series.front().size(),
            std::size_t(config.cluster.warmup_ticks +
                        config.cluster.measure_ticks));
  EXPECT_GT(serial.total_requests, 0u);

  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const exp::MultiCellResult parallel =
        exp::run_multi_cell(config, &pool);
    for (std::size_t i = 0; i < serial.per_cluster.size(); ++i) {
      expect_identical(serial.per_cluster[i], parallel.per_cluster[i]);
    }
    expect_identical(serial.coop_aggregate, parallel.coop_aggregate);
  }
}

TEST(MultiCell, CoherentCoopClustersBitIdenticalAcrossPoolSizes) {
  for (const coop::ConsistencyMode mode :
       {coop::ConsistencyMode::kInvalidate, coop::ConsistencyMode::kPropagate,
        coop::ConsistencyMode::kLease}) {
    SCOPED_TRACE(coop::consistency_mode_name(mode));
    exp::MultiCellConfig config;
    config.topology = exp::CellTopology::kCoopClusters;
    config.cell_count = 5;
    config.cells_per_cluster = 2;
    config.cluster.object_count = 30;
    config.cluster.requests_per_tick_per_cell = 10;
    config.cluster.update_period = 3;
    config.cluster.warmup_ticks = 5;
    config.cluster.measure_ticks = 25;
    config.cluster.coherence.enabled = true;
    config.cluster.coherence.mode = mode;
    config.cluster.coherence.lease_ticks = 4;
    config.seed = 11;

    const exp::MultiCellResult serial = exp::run_multi_cell(config);
    // The protocol must actually be exercised, not vacuously identical.
    const auto traffic = serial.coop_aggregate.invalidations +
                         serial.coop_aggregate.propagations +
                         serial.coop_aggregate.lease_expiries;
    EXPECT_GT(traffic, 0u);

    for (std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      util::ThreadPool pool(threads);
      const exp::MultiCellResult parallel = exp::run_multi_cell(config, &pool);
      ASSERT_EQ(parallel.per_cluster.size(), serial.per_cluster.size());
      for (std::size_t i = 0; i < serial.per_cluster.size(); ++i) {
        expect_identical(serial.per_cluster[i], parallel.per_cluster[i]);
      }
      expect_identical(serial.coop_aggregate, parallel.coop_aggregate);
    }
  }
}

TEST(MultiCell, RejectsDegenerateConfigs) {
  exp::MultiCellConfig config = small_config();
  config.cell_count = 0;
  EXPECT_THROW(exp::run_multi_cell(config), std::invalid_argument);

  exp::MultiCellConfig coop = small_config();
  coop.topology = exp::CellTopology::kCoopClusters;
  coop.cells_per_cluster = 0;
  EXPECT_THROW(exp::run_multi_cell(coop), std::invalid_argument);

  // A per-cell client override must cover every cell exactly.
  exp::MultiCellConfig skew = small_config();
  skew.cell_client_counts = {4, 4};  // 2 != cell_count (6)
  EXPECT_THROW(exp::run_multi_cell(skew), std::invalid_argument);
  EXPECT_THROW(exp::shard_cost_estimates(skew), std::invalid_argument);
}

// Tracing and per-cell client counts only exist for sharded cells; a coop
// cluster run must refuse them rather than silently drop them.
TEST(MultiCell, RejectsShardedOnlyOptionsOnCoopClusters) {
  exp::MultiCellConfig coop = small_config();
  coop.topology = exp::CellTopology::kCoopClusters;
  coop.cluster.warmup_ticks = 1;
  coop.cluster.measure_ticks = 2;
  EXPECT_NO_THROW(exp::run_multi_cell(coop));

  exp::MultiCellConfig traced = coop;
  traced.trace_sample_every = 1;
  EXPECT_THROW(exp::run_multi_cell(traced), std::invalid_argument);

  exp::MultiCellConfig streamed = coop;
  streamed.trace_jsonl_dir = ".";
  EXPECT_THROW(exp::run_multi_cell(streamed), std::invalid_argument);

  exp::MultiCellConfig skewed = coop;
  skewed.cell_client_counts.assign(coop.cell_count, 4);
  EXPECT_THROW(exp::run_multi_cell(skewed), std::invalid_argument);
}

// A negative tick count must be refused before any work, naming the
// field, on every sharded route: a bare run (which used to return an
// empty result), a recorded run and a mobility run (both used to die in
// vector::reserve with std::length_error). Zero ticks is an empty run.
TEST(MultiCell, RejectsNegativeTickCount) {
  exp::MultiCellConfig bare = small_config();
  bare.cell.ticks = -5;
  exp::MultiCellConfig mobile = bare;
  mobile.mobility.mode = sim::MobilityMode::kRandomWaypoint;
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const auto rejection = [](const exp::MultiCellConfig& config,
                            const exp::MultiCellObservers& observers) {
    std::string message;
    try {
      exp::run_multi_cell(config, nullptr, observers);
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    return message;
  };
  for (const std::string& message :
       {rejection(bare, {}), rejection(bare, {.recorder = &recorder}),
        rejection(mobile, {})}) {
    EXPECT_NE(message.find("cell.ticks"), std::string::npos)
        << "expected an invalid_argument naming cell.ticks, got '" << message
        << "'";
  }
  // Coop clusters run warmup + measure ticks; a negative count of either
  // is rejected, since run as given it would measure nothing and report a
  // perfect coop_aggregate score.
  exp::MultiCellConfig coop = small_config();
  coop.topology = exp::CellTopology::kCoopClusters;
  coop.cluster.measure_ticks = -5;
  exp::MultiCellConfig coop_warmup = small_config();
  coop_warmup.topology = exp::CellTopology::kCoopClusters;
  coop_warmup.cluster.warmup_ticks = -1;
  for (const std::string& message :
       {rejection(coop, {}), rejection(coop, {.recorder = &recorder}),
        rejection(coop_warmup, {})}) {
    EXPECT_NE(message.find("cluster.measure_ticks"), std::string::npos)
        << "expected an invalid_argument naming the cluster tick counts, "
           "got '"
        << message << "'";
  }
  EXPECT_EQ(registry.find_counter("mc.requests"), nullptr);

  bare.cell.ticks = 0;
  mobile.cell.ticks = 0;
  EXPECT_EQ(exp::run_multi_cell(bare).total_requests, 0u);
  const exp::MultiCellResult recorded =
      exp::run_multi_cell(bare, nullptr, {.recorder = &recorder});
  EXPECT_EQ(recorded.total_requests, 0u);
  EXPECT_EQ(exp::run_multi_cell(mobile).total_requests, 0u);
}

TEST(MultiCell, ShardCostEstimatesFollowClientsTimesTicks) {
  exp::MultiCellConfig config = small_config();  // 6 cells, 8 clients, 40 ticks
  const auto uniform = exp::shard_cost_estimates(config);
  ASSERT_EQ(uniform.size(), 6u);
  for (const auto cost : uniform) EXPECT_EQ(cost, 8u * 40u);

  config.cell_client_counts = {20, 10, 5, 2, 1, 1};
  const auto skewed = exp::shard_cost_estimates(config);
  ASSERT_EQ(skewed.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(skewed[i], config.cell_client_counts[i] * 40u);
  }

  exp::MultiCellConfig coop = small_config();
  coop.topology = exp::CellTopology::kCoopClusters;
  coop.cells_per_cluster = 3;
  const auto clusters = exp::shard_cost_estimates(coop);
  ASSERT_EQ(clusters.size(), 2u);  // 6 cells / 3 per cluster
  EXPECT_EQ(clusters[0], clusters[1]);
  EXPECT_GT(clusters[0], 0u);
}

// The per-cell client override changes the simulation (more clients =
// more requests) but not the determinism contract: skewed fleets are
// bit-identical across schedules and pool sizes (pinned in
// determinism_test); here we pin that the override actually takes
// effect and scales per-cell load.
TEST(MultiCell, CellClientCountsOverrideScalesPerCellLoad) {
  exp::MultiCellConfig config = small_config();
  config.cell_client_counts = {32, 8, 8, 8, 8, 1};
  const exp::MultiCellResult result = exp::run_multi_cell(config);
  ASSERT_EQ(result.per_cell.size(), 6u);
  // Requests scale with the client count: the 32-client cell sees ~4x
  // the traffic of an 8-client cell, the 1-client cell ~1/8th.
  EXPECT_GT(result.per_cell[0].requests, 2 * result.per_cell[1].requests);
  EXPECT_LT(result.per_cell[5].requests, result.per_cell[1].requests / 2);

  // Uniform override == no override, bit for bit.
  exp::MultiCellConfig uniform = small_config();
  uniform.cell_client_counts.assign(6, uniform.cell.client_count);
  const exp::MultiCellResult overridden = exp::run_multi_cell(uniform);
  const exp::MultiCellResult plain = exp::run_multi_cell(small_config());
  expect_identical(overridden.aggregate, plain.aggregate);
}

TEST(MultiCell, ScheduleNames) {
  EXPECT_STREQ(exp::shard_schedule_name(exp::ShardSchedule::kStaticBlocked),
               "static-blocked");
  EXPECT_STREQ(exp::shard_schedule_name(exp::ShardSchedule::kQueue), "queue");
  EXPECT_STREQ(exp::shard_schedule_name(exp::ShardSchedule::kLptSteal),
               "lpt-steal");
}

TEST(MultiCell, TopologyNames) {
  EXPECT_STREQ(exp::cell_topology_name(exp::CellTopology::kSharded),
               "sharded");
  EXPECT_STREQ(exp::cell_topology_name(exp::CellTopology::kCoopClusters),
               "coop-clusters");
}

// One shard's trace file points at /dev/full: the run must fail loudly,
// naming that file, rather than report a trace that never reached disk.
TEST(MultiCell, ShardTraceWriteFailureThrowsNamingTheFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mobi_trace_full_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / "trace_cell0.jsonl");
  exp::MultiCellConfig config = small_config();
  config.trace_sample_every = 2;
  config.trace_jsonl_dir = dir.string();
  std::string message;
  try {
    exp::run_multi_cell(config);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  fs::remove_all(dir);
  EXPECT_NE(message.find("trace_cell0.jsonl"), std::string::npos)
      << "expected a runtime_error naming the shard's trace, got '"
      << message << "'";
}

}  // namespace
}  // namespace mobi
