// Determinism suite: (a) parallel replication is bit-identical to serial
// replication regardless of pool size, and (b) attaching the observability
// layer (registry + recorder + phase profiler) never perturbs simulation
// results. These tests pin the "observation is read-only" contract.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/base_station.hpp"
#include "exp/fig2.hpp"
#include "exp/fig3.hpp"
#include "exp/multi_cell.hpp"
#include "exp/policy_sim.hpp"
#include "exp/replicate.hpp"
#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "util/thread_pool.hpp"

namespace mobi {
namespace {

exp::PolicySimConfig small_sim_config() {
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 5;
  config.measure_ticks = 20;
  config.budget = 10;
  config.update_period = 3;
  return config;
}

// EXPECT_EQ on doubles is deliberate throughout: the contract is
// bit-identical, not approximately equal.
void expect_identical(const exp::PolicySimResult& a,
                      const exp::PolicySimResult& b) {
  EXPECT_EQ(a.average_score, b.average_score);
  EXPECT_EQ(a.average_recency, b.average_recency);
  EXPECT_EQ(a.units_downloaded, b.units_downloaded);
  EXPECT_EQ(a.objects_downloaded, b.objects_downloaded);
  EXPECT_EQ(a.downlink_utilization, b.downlink_utilization);
  EXPECT_EQ(a.mean_fetch_latency, b.mean_fetch_latency);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.score_p10, b.score_p10);
  EXPECT_EQ(a.min_score, b.min_score);
}

void expect_identical(const exp::Replication& a, const exp::Replication& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.ci95_halfwidth, b.ci95_halfwidth);
}

TEST(Determinism, ParallelReplicateMatchesSerialForAllPoolSizes) {
  const auto metric = [](std::uint64_t seed) {
    exp::PolicySimConfig config = small_sim_config();
    config.seed = seed;
    return exp::run_policy_sim(config).average_score;
  };
  const auto seeds = exp::seed_ladder(1000, 6);
  const exp::Replication serial = exp::replicate(metric, seeds);
  EXPECT_EQ(serial.runs, 6u);

  for (std::size_t pool_size : {1u, 2u, 8u}) {
    util::ThreadPool pool(pool_size);
    expect_identical(serial, exp::replicate(metric, seeds, &pool));
  }
}

TEST(Determinism, InstrumentedPolicySimBitIdenticalToPlain) {
  const exp::PolicySimConfig config = small_sim_config();
  const exp::PolicySimResult plain = exp::run_policy_sim(config);

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const exp::PolicySimResult instrumented =
      exp::run_policy_sim(config, {.recorder = &recorder});

  expect_identical(plain, instrumented);
  // And the recorder really observed the run: one sample per tick
  // (warmup + measure), with the request counter matching the totals it
  // watched (warmup requests included, so >= the measured count).
  EXPECT_EQ(recorder.samples(),
            std::size_t(config.warmup_ticks + config.measure_ticks));
  const auto& requests = recorder.series("bs.requests");
  EXPECT_GE(requests.back(), double(plain.requests));
  EXPECT_GT(registry.find_counter("bs.fetches")->value(), 0u);
}

TEST(Determinism, InstrumentedFig2AndFig3BitIdenticalToPlain) {
  exp::Fig2Config fig2;
  fig2.object_count = 60;
  fig2.warmup_ticks = 10;
  fig2.measure_ticks = 40;
  const object::Units plain2 = exp::run_fig2_once(fig2, exp::AccessPattern::kZipf, 30);
  obs::MetricsRegistry registry2;
  obs::SeriesRecorder recorder2(registry2);
  EXPECT_EQ(plain2,
            exp::run_fig2_once(fig2, exp::AccessPattern::kZipf, 30, &recorder2));
  EXPECT_EQ(recorder2.samples(),
            std::size_t(fig2.warmup_ticks + fig2.measure_ticks));

  exp::Fig3Config fig3;
  fig3.object_count = 50;
  fig3.requests_per_tick = 25;
  fig3.warmup_ticks = 10;
  fig3.measure_ticks = 20;
  const double plain3 = exp::run_fig3_once(fig3, 5, true);
  obs::MetricsRegistry registry3;
  obs::SeriesRecorder recorder3(registry3);
  EXPECT_EQ(plain3, exp::run_fig3_once(fig3, 5, true, &recorder3));
  EXPECT_GT(recorder3.samples(), 0u);
}

// Drives two identically-configured BaseStations through the same request
// stream — one bare, one with registry + recorder + phase profiler attached —
// and requires every TickResult field to match exactly. Each station has
// its own injector from one fetch-failure plan, so the fault stream's RNG
// consumption is covered too.
TEST(Determinism, InstrumentedBaseStationBitIdenticalToBare) {
  const std::vector<object::Units> sizes(16, 2);
  core::BaseStationConfig config;
  config.download_budget = 6;
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.3;

  object::Catalog catalog_a(sizes), catalog_b(sizes);
  server::ServerPool servers_a(catalog_a, 1), servers_b(catalog_b, 1);
  core::BaseStation bare(catalog_a, servers_a, cache::make_harmonic_decay(),
                         std::make_unique<core::ReciprocalScorer>(),
                         core::make_policy("on-demand-knapsack"), config);
  core::BaseStation instrumented(
      catalog_b, servers_b, cache::make_harmonic_decay(),
      std::make_unique<core::ReciprocalScorer>(),
      core::make_policy("on-demand-knapsack"), config);
  net::FaultInjector faults_a(plan), faults_b(plan);
  bare.set_fault_injector(&faults_a);
  instrumented.set_fault_injector(&faults_b);

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  obs::PhaseProfiler profiler;
  instrumented.set_metrics(&registry);
  servers_b.set_metrics(&registry);
  instrumented.set_profiler(&profiler);

  std::mt19937 rng(0xC0FFEE);
  std::size_t expected_requests = 0;
  for (sim::Tick t = 0; t < 40; ++t) {
    if (t % 4 == 3) {
      const object::ObjectId updated = rng() % sizes.size();
      bare.on_server_update(updated, t);
      instrumented.on_server_update(updated, t);
    }
    workload::RequestBatch batch;
    const std::size_t count = 1 + rng() % 8;
    for (std::size_t i = 0; i < count; ++i) {
      batch.push_back({object::ObjectId(rng() % sizes.size()), 0.8,
                       workload::ClientId(i)});
    }
    expected_requests += count;

    const core::TickResult a = bare.process_batch(batch, t);
    const core::TickResult b = instrumented.process_batch(batch, t);
    recorder.sample(t);

    EXPECT_EQ(a.requests, b.requests) << "tick " << t;
    EXPECT_EQ(a.objects_downloaded, b.objects_downloaded) << "tick " << t;
    EXPECT_EQ(a.units_downloaded, b.units_downloaded) << "tick " << t;
    EXPECT_EQ(a.score_sum, b.score_sum) << "tick " << t;
    EXPECT_EQ(a.recency_sum, b.recency_sum) << "tick " << t;
    EXPECT_EQ(a.fetch_latency, b.fetch_latency) << "tick " << t;
    EXPECT_EQ(a.failed_fetches, b.failed_fetches) << "tick " << t;
    EXPECT_EQ(a.degraded_serves, b.degraded_serves) << "tick " << t;
    EXPECT_EQ(a.downlink_delivered, b.downlink_delivered) << "tick " << t;
  }
  EXPECT_GT(instrumented.totals().failed_fetches, 0u);

  // The observer agrees with the ground truth the station itself reports.
  EXPECT_EQ(instrumented.totals().requests, expected_requests);
  EXPECT_EQ(registry.find_counter("bs.requests")->value(), expected_requests);
  EXPECT_EQ(registry.find_counter("bs.fetches")->value(),
            instrumented.totals().objects_downloaded);
  EXPECT_EQ(registry.find_counter("bs.units_downloaded")->value(),
            std::uint64_t(instrumented.totals().units_downloaded));
  const std::uint64_t hits = registry.find_counter("bs.hits")->value();
  const std::uint64_t misses = registry.find_counter("bs.misses")->value();
  EXPECT_EQ(hits + misses, expected_requests);
  EXPECT_EQ(registry.find_counter("bs.stale_serves")->value() +
                registry.find_counter("bs.fresh_serves")->value(),
            hits);
  EXPECT_EQ(recorder.samples(), 40u);
  // The profiler timed all three per-tick phases.
  EXPECT_EQ(profiler.calls(profiler.phase("bs.select")), 40u);
  EXPECT_EQ(profiler.calls(profiler.phase("bs.serve")), 40u);
  EXPECT_GT(profiler.calls(profiler.phase("bs.fetch")), 0u);
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
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_successes, b.retry_successes);
  EXPECT_EQ(a.degraded_serves, b.degraded_serves);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.downlink_dropped, b.downlink_dropped);
}

// Request-lifecycle tracing is pure observation: attaching a tracer (and
// its latency histograms) to a faulted, retrying run must not move a
// single bit of the simulation — and the sampling knob is a counter, not
// an RNG draw, so thinning the trace cannot either.
TEST(Determinism, TracedPolicySimBitIdenticalToUntraced) {
  exp::PolicySimConfig config = small_sim_config();
  config.server_count = 2;
  config.fetch_retry_limit = 2;
  config.faults.fetch_failure_rate = 0.25;
  config.faults.downlink_drop_rate = 0.1;
  config.faults.server_outage_rate = 0.05;
  config.faults.server_outage_ticks = 3;

  const exp::PolicySimResult plain = exp::run_policy_sim(config);

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  obs::RequestTracer tracer;
  tracer.register_histograms(&registry);
  const exp::PolicySimResult traced =
      exp::run_policy_sim(config, {.recorder = &recorder, .tracer = &tracer});

  expect_identical(plain, traced);
  EXPECT_EQ(plain.failed_fetches, traced.failed_fetches);
  EXPECT_EQ(plain.retries, traced.retries);
  EXPECT_EQ(plain.retry_successes, traced.retry_successes);
  EXPECT_EQ(plain.degraded_serves, traced.degraded_serves);
  EXPECT_EQ(plain.downlink_dropped, traced.downlink_dropped);
  // The trace really observed the faulted run.
  EXPECT_GT(tracer.log().count(obs::EventKind::kFetchFailed), 0u);
  EXPECT_GT(registry.find_histogram("lat.served_recency_gap")->total(), 0u);

  // 1-in-4 sampling thins the log, not the simulation.
  obs::RequestTracer::Config thinned;
  thinned.sample_every = 4;
  obs::RequestTracer sampled(thinned);
  expect_identical(plain, exp::run_policy_sim(config, {.tracer = &sampled}));
  EXPECT_LT(sampled.log().size(), tracer.log().size());
}

// Per-shard tracers merge into mc.lat.* / mc.trace.* after the join, in
// shard order — so the merged registry (and every shard's event log) is
// bit-identical whatever the pool size, and identical to the serial run.
TEST(Determinism, TracedMultiCellBitIdenticalAcrossPoolSizes) {
  exp::MultiCellConfig config;
  config.cell_count = 5;
  config.cell.object_count = 40;
  config.cell.client_count = 10;
  config.cell.ticks = 40;
  config.cell.server_count = 2;
  config.cell.fetch_retry_limit = 2;
  config.cell.faults.fetch_failure_rate = 0.2;
  config.cell.faults.downlink_drop_rate = 0.1;
  config.trace_sample_every = 2;
  config.keep_trace = true;

  obs::MetricsRegistry serial_registry;
  obs::SeriesRecorder serial_recorder(serial_registry);
  const exp::MultiCellResult serial =
      exp::run_multi_cell(config, nullptr, {.recorder = &serial_recorder});
  const std::string serial_export = serial_registry.to_json();
  ASSERT_EQ(serial.shard_traces.size(), config.cell_count);
  EXPECT_GT(serial_registry.find_counter("mc.trace.events")->value(), 0u);
  EXPECT_GT(serial_registry.find_histogram("mc.lat.ticks_to_serve")->total(),
            0u);

  for (std::size_t pool_size : {1u, 2u, 8u}) {
    util::ThreadPool pool(pool_size);
    obs::MetricsRegistry registry;
    obs::SeriesRecorder recorder(registry);
    const exp::MultiCellResult pooled =
        exp::run_multi_cell(config, &pool, {.recorder = &recorder});
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    expect_identical(serial.aggregate, pooled.aggregate);
    for (std::size_t i = 0; i < config.cell_count; ++i) {
      expect_identical(serial.per_cell[i], pooled.per_cell[i]);
      // Shard event logs match event by event.
      ASSERT_EQ(pooled.shard_traces[i].size(), serial.shard_traces[i].size());
      EXPECT_EQ(pooled.shard_traces[i].to_jsonl(),
                serial.shard_traces[i].to_jsonl());
    }
    // The merged registry export (mc.* series, mc.lat.* histograms,
    // mc.trace.* counters) is byte-identical.
    EXPECT_EQ(registry.to_json(), serial_export);
  }

  // And tracing itself never perturbs the cells: the untraced run's
  // aggregate matches bit for bit.
  exp::MultiCellConfig untraced = config;
  untraced.trace_sample_every = 0;
  untraced.keep_trace = false;
  const exp::MultiCellResult bare = exp::run_multi_cell(untraced);
  expect_identical(serial.aggregate, bare.aggregate);
  EXPECT_TRUE(bare.shard_traces.empty());
}

// Shard scheduling must never leak into simulation output: with a
// Zipf-like skewed fleet (cell_client_counts) and an active fault plan,
// every ShardSchedule — static blocks, the legacy grain-1 queue, and
// LPT packing with work stealing — must produce the same bits as the
// serial run at every pool size, down to the merged registry export and
// every shard's event log. Stealing reorders *execution*, not results.
TEST(Determinism, SkewScheduledMultiCellBitIdenticalAcrossPoolSizes) {
  exp::MultiCellConfig config;
  config.cell_count = 7;
  config.cell.object_count = 40;
  config.cell.client_count = 8;
  config.cell.ticks = 30;
  config.cell.server_count = 2;
  config.cell.fetch_retry_limit = 2;
  config.cell.faults.fetch_failure_rate = 0.2;
  config.cell.faults.downlink_drop_rate = 0.1;
  config.cell.faults.server_outage_rate = 0.05;
  config.cell.faults.server_outage_ticks = 3;
  // Heavily skewed fleet: one giant cell, a heavy head, a thin tail —
  // the shape that makes scheduling decisions diverge across pools.
  config.cell_client_counts = {40, 16, 8, 4, 2, 1, 1};
  config.trace_sample_every = 2;
  config.keep_trace = true;

  // Cost estimates follow the skew (clients x ticks), so the planner has
  // real imbalance to react to.
  const auto costs = exp::shard_cost_estimates(config);
  ASSERT_EQ(costs.size(), config.cell_count);
  EXPECT_EQ(costs[0], 40u * 30u);
  EXPECT_GT(costs[0], 10 * costs[6]);

  obs::MetricsRegistry serial_registry;
  obs::SeriesRecorder serial_recorder(serial_registry);
  const exp::MultiCellResult serial =
      exp::run_multi_cell(config, nullptr, {.recorder = &serial_recorder});
  const std::string serial_export = serial_registry.to_json();
  EXPECT_GT(serial.aggregate.failed_fetches, 0u)
      << "fault plan must be active, not vacuously identical";

  for (const exp::ShardSchedule schedule :
       {exp::ShardSchedule::kStaticBlocked, exp::ShardSchedule::kQueue,
        exp::ShardSchedule::kLptSteal}) {
    SCOPED_TRACE(exp::shard_schedule_name(schedule));
    config.schedule = schedule;
    for (std::size_t pool_size : {1u, 2u, 8u}) {
      SCOPED_TRACE("pool size " + std::to_string(pool_size));
      util::ThreadPool pool(pool_size);
      obs::MetricsRegistry registry;
      obs::SeriesRecorder recorder(registry);
      const exp::MultiCellResult pooled =
          exp::run_multi_cell(config, &pool, {.recorder = &recorder});
      expect_identical(serial.aggregate, pooled.aggregate);
      for (std::size_t i = 0; i < config.cell_count; ++i) {
        expect_identical(serial.per_cell[i], pooled.per_cell[i]);
        EXPECT_EQ(pooled.shard_traces[i].to_jsonl(),
                  serial.shard_traces[i].to_jsonl());
      }
      EXPECT_EQ(registry.to_json(), serial_export);
      EXPECT_EQ(pooled.schedule_stats.workers, pool_size);
      if (schedule != exp::ShardSchedule::kQueue) {
        EXPECT_GT(pooled.schedule_stats.planned_makespan, 0u);
      }
    }
  }
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

// Coherence-enabled coop clusters: the directory protocol (sharer sets,
// invalidations / propagations / lease sweeps, discounted peer fetches)
// lives entirely inside one lock-step shard, so pooled runs — including
// the merged mc.coop.coherence.* registry export — must stay bit-identical
// to serial for every pool size and every consistency mode.
TEST(Determinism, CoherentCoopMultiCellBitIdenticalAcrossPoolSizes) {
  for (const coop::ConsistencyMode mode :
       {coop::ConsistencyMode::kInvalidate, coop::ConsistencyMode::kPropagate,
        coop::ConsistencyMode::kLease}) {
    SCOPED_TRACE(coop::consistency_mode_name(mode));
    exp::MultiCellConfig config;
    config.topology = exp::CellTopology::kCoopClusters;
    config.cell_count = 6;
    config.cells_per_cluster = 3;
    config.cluster.object_count = 32;
    config.cluster.requests_per_tick_per_cell = 10;
    config.cluster.update_period = 3;
    config.cluster.warmup_ticks = 5;
    config.cluster.measure_ticks = 25;
    config.cluster.budget_per_cell = 15;
    config.cluster.coherence.enabled = true;
    config.cluster.coherence.mode = mode;
    config.cluster.coherence.lease_ticks = 4;
    config.seed = 19;

    obs::MetricsRegistry serial_registry;
    obs::SeriesRecorder serial_recorder(serial_registry);
    const exp::MultiCellResult serial =
        exp::run_multi_cell(config, nullptr, {.recorder = &serial_recorder});
    const std::string serial_export = serial_registry.to_json();
    EXPECT_GT(serial.coop_aggregate.peer_hits +
                  serial.coop_aggregate.invalidations +
                  serial.coop_aggregate.propagations +
                  serial.coop_aggregate.lease_expiries,
              0u)
        << "protocol must be exercised, not vacuously identical";

    for (std::size_t pool_size : {1u, 2u, 8u}) {
      SCOPED_TRACE("pool size " + std::to_string(pool_size));
      util::ThreadPool pool(pool_size);
      obs::MetricsRegistry registry;
      obs::SeriesRecorder recorder(registry);
      const exp::MultiCellResult pooled =
          exp::run_multi_cell(config, &pool, {.recorder = &recorder});
      ASSERT_EQ(pooled.per_cluster.size(), serial.per_cluster.size());
      for (std::size_t i = 0; i < serial.per_cluster.size(); ++i) {
        expect_identical(serial.per_cluster[i], pooled.per_cluster[i]);
      }
      expect_identical(serial.coop_aggregate, pooled.coop_aggregate);
      // Merged mc.coop.* export — coherence counters included — is
      // byte-identical.
      EXPECT_EQ(registry.to_json(), serial_export);
    }
  }
}

}  // namespace
}  // namespace mobi
