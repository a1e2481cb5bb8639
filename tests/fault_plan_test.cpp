// Chaos-layer determinism suite (ctest label: chaos).
//
// Pins the FaultPlan/FaultInjector contracts the resilience layer stands
// on: same seed => identical event stream; per-category streams are
// independent (toggling one class never shifts another); zero-rate draws
// consume no randomness, so an attached-but-idle injector is bit-identical
// to no injector at all; nonzero plans stay seed-deterministic through
// the sharded multi-cell driver for any thread-pool size; and the fault
// sweep degrades gracefully (no stalls) up to a 30% headline fault rate.
#include <gtest/gtest.h>

#include <vector>

#include "client/cell.hpp"
#include "core/base_station.hpp"
#include "exp/fault_sweep.hpp"
#include "exp/multi_cell.hpp"
#include "net/fault_injector.hpp"
#include "object/builders.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"
#include "util/thread_pool.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace mobi {
namespace {

TEST(FaultPlan, EmptyDetectsAllZeroRates) {
  sim::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.seed = 123;  // seed/durations/factors alone keep a plan empty
  plan.server_outage_ticks = 99;
  EXPECT_TRUE(plan.empty());
  plan.downlink_drop_rate = 0.01;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ValidateRejectsOutOfRangeParameters) {
  const auto reject = [](auto&& mutate) {
    sim::FaultPlan plan;
    mutate(plan);
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    EXPECT_THROW(net::FaultInjector{plan}, std::invalid_argument);
  };
  reject([](sim::FaultPlan& p) { p.fetch_failure_rate = 1.5; });
  reject([](sim::FaultPlan& p) { p.fetch_slowdown_rate = -0.1; });
  reject([](sim::FaultPlan& p) { p.downlink_drop_rate = 2.0; });
  reject([](sim::FaultPlan& p) { p.server_outage_rate = -1.0; });
  reject([](sim::FaultPlan& p) { p.handoff_rate = 1.0001; });
  reject([](sim::FaultPlan& p) { p.fetch_slowdown_factor = 0.5; });
  reject([](sim::FaultPlan& p) {
    p.server_outage_rate = 0.1;
    p.server_outage_ticks = 0;
  });
  reject([](sim::FaultPlan& p) {
    p.handoff_rate = 0.1;
    p.handoff_ticks = 0;
  });
}

TEST(FaultInjector, SameSeedReplaysIdenticalEventStream) {
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.3;
  plan.fetch_slowdown_rate = 0.2;
  plan.downlink_drop_rate = 0.25;
  plan.server_outage_rate = 0.15;
  plan.handoff_rate = 0.1;
  plan.seed = 2026;
  net::FaultInjector a(plan, 3);
  net::FaultInjector b(plan, 3);
  for (sim::Tick t = 0; t < 200; ++t) {
    a.begin_tick(t);
    b.begin_tick(t);
    ASSERT_EQ(a.draw_fetch_failure(), b.draw_fetch_failure()) << t;
    ASSERT_EQ(a.draw_fetch_slowdown(), b.draw_fetch_slowdown()) << t;
    ASSERT_EQ(a.draw_downlink_drop(), b.draw_downlink_drop()) << t;
    ASSERT_EQ(a.draw_handoff(), b.draw_handoff()) << t;
    for (std::size_t s = 0; s < 3; ++s) {
      ASSERT_EQ(a.server_down(s), b.server_down(s)) << t << "/" << s;
    }
  }
  EXPECT_EQ(a.counters().fetch_failures, b.counters().fetch_failures);
  EXPECT_EQ(a.counters().server_outages, b.counters().server_outages);
  EXPECT_GT(a.counters().fetch_failures, 0u);
  EXPECT_GT(a.counters().downlink_drops, 0u);
}

TEST(FaultInjector, CategoriesDrawFromIndependentStreams) {
  // Enabling (and heavily exercising) the downlink category must not
  // shift the fetch-failure schedule by a single draw.
  sim::FaultPlan fetch_only;
  fetch_only.fetch_failure_rate = 0.4;
  fetch_only.seed = 99;
  sim::FaultPlan both = fetch_only;
  both.downlink_drop_rate = 0.6;
  net::FaultInjector a(fetch_only);
  net::FaultInjector b(both);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.draw_fetch_failure(), b.draw_fetch_failure()) << i;
    b.draw_downlink_drop();  // interleaved; must not perturb the above
  }
}

TEST(FaultInjector, ZeroRateDrawsConsumeNoRandomness) {
  // On an idle category every draw is "no fault" AND leaves the stream
  // untouched — the contract that makes an idle injector bit-identical
  // to no injector.
  sim::FaultPlan plan;
  plan.downlink_drop_rate = 0.5;
  plan.seed = 7;
  net::FaultInjector undisturbed(plan);
  net::FaultInjector interleaved(plan, 4);
  for (int i = 0; i < 300; ++i) {
    interleaved.begin_tick(sim::Tick(i));  // outage rate 0: no draws
    ASSERT_FALSE(interleaved.draw_fetch_failure());
    ASSERT_EQ(interleaved.draw_fetch_slowdown(), 1.0);
    ASSERT_FALSE(interleaved.draw_handoff());
    ASSERT_EQ(undisturbed.draw_downlink_drop(),
              interleaved.draw_downlink_drop())
        << i;
    ASSERT_FALSE(interleaved.server_down(0));
  }
  EXPECT_EQ(interleaved.counters().fetch_failures, 0u);
  EXPECT_EQ(interleaved.counters().server_outages, 0u);
}

TEST(FaultInjector, BeginTickIsIdempotentWithinATick) {
  sim::FaultPlan plan;
  plan.server_outage_rate = 1.0;
  plan.server_outage_ticks = 1;
  net::FaultInjector injector(plan, 5);
  injector.begin_tick(0);
  injector.begin_tick(0);  // the cell driver and the station both call
  EXPECT_EQ(injector.counters().server_outages, 5u);
  for (std::size_t s = 0; s < 5; ++s) EXPECT_TRUE(injector.server_down(s));
  injector.begin_tick(2);  // windows of length 1 expired, all reopen
  EXPECT_EQ(injector.counters().server_outages, 10u);
}

TEST(FaultInjector, OutageWindowsSpanTheConfiguredTicks) {
  sim::FaultPlan plan;
  plan.server_outage_rate = 1.0;
  plan.server_outage_ticks = 3;
  net::FaultInjector injector(plan, 1);
  injector.begin_tick(0);
  EXPECT_EQ(injector.counters().server_outages, 1u);
  EXPECT_TRUE(injector.server_down(0));
  injector.begin_tick(1);
  injector.begin_tick(2);
  // Window [0, 3) still open: no reopen draw, still down.
  EXPECT_EQ(injector.counters().server_outages, 1u);
  EXPECT_TRUE(injector.server_down(0));
  injector.begin_tick(3);  // expired; rate 1.0 reopens immediately
  EXPECT_EQ(injector.counters().server_outages, 2u);
}

// ---------------------------------------------------------------------
// Differential lock: an attached-but-idle injector must be observably
// absent from a full BaseStation run, bit for bit.

TEST(FaultInjector, IdleInjectorIsBitIdenticalToNoInjector) {
  util::Rng rng(11);
  const auto catalog = object::make_random_catalog(40, 1, 6, rng);
  core::BaseStationConfig config;
  config.download_budget = 25;
  config.downlink_capacity = 30;
  const auto make_station = [&](server::ServerPool& servers) {
    return core::BaseStation(catalog, servers, cache::make_harmonic_decay(),
                             std::make_unique<core::ReciprocalScorer>(),
                             core::make_policy("on-demand-knapsack"), config);
  };
  server::ServerPool servers_a(catalog, 2);
  server::ServerPool servers_b(catalog, 2);
  auto plain = make_station(servers_a);
  auto wired = make_station(servers_b);
  net::FaultInjector idle(sim::FaultPlan{}, servers_b.server_count());
  ASSERT_TRUE(idle.idle());
  wired.set_fault_injector(&idle);
  servers_b.set_fault_injector(&idle);

  workload::RequestGenerator generator(workload::make_zipf_access(40, 1.0),
                                       workload::UniformTarget{0.4, 1.0}, 20,
                                       rng.split());
  auto updates = workload::make_periodic_staggered(40, 3);
  for (sim::Tick t = 0; t < 50; ++t) {
    plain.apply_updates(*updates, t);
    wired.apply_updates(*updates, t);
    const auto batch = generator.next_batch();
    const auto ra = plain.process_batch(batch, t);
    const auto rb = wired.process_batch(batch, t);
    ASSERT_EQ(ra.objects_downloaded, rb.objects_downloaded) << t;
    ASSERT_EQ(ra.units_downloaded, rb.units_downloaded) << t;
    ASSERT_EQ(ra.failed_fetches, rb.failed_fetches) << t;
    ASSERT_EQ(ra.score_sum, rb.score_sum) << t;  // bit-identical doubles
    ASSERT_EQ(ra.recency_sum, rb.recency_sum) << t;
    ASSERT_EQ(ra.fetch_latency, rb.fetch_latency) << t;
    ASSERT_EQ(ra.downlink_delivered, rb.downlink_delivered) << t;
    ASSERT_EQ(rb.retries, 0u);
    ASSERT_EQ(rb.degraded_serves, 0u);
  }
  EXPECT_EQ(idle.counters().fetch_failures, 0u);
  EXPECT_EQ(wired.downlink().dropped_total(), 0);
}

// ---------------------------------------------------------------------
// Scale-out determinism: a nonzero plan through run_multi_cell must be
// bit-identical for pool sizes 1/2/8 and a serial run.

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

TEST(FaultPlan, MultiCellChaosRunsBitIdenticalForAllPoolSizes) {
  exp::MultiCellConfig config;
  config.cell_count = 5;
  config.cell.object_count = 30;
  config.cell.client_count = 8;
  config.cell.ticks = 40;
  config.cell.base_budget = 20;
  config.cell.server_count = 2;
  config.cell.fetch_retry_limit = 2;
  config.cell.faults.fetch_failure_rate = 0.2;
  config.cell.faults.fetch_slowdown_rate = 0.1;
  config.cell.faults.downlink_drop_rate = 0.1;
  config.cell.faults.server_outage_rate = 0.05;
  config.cell.faults.handoff_rate = 0.05;
  config.seed = 7;

  const exp::MultiCellResult serial = exp::run_multi_cell(config);
  std::uint64_t injected = 0;
  for (const auto& cell : serial.per_cell) {
    injected += cell.failed_fetches + cell.handoffs +
                std::uint64_t(cell.downlink_dropped);
  }
  EXPECT_GT(injected, 0u) << "the chaos plan must actually inject faults";

  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const exp::MultiCellResult parallel = exp::run_multi_cell(config, &pool);
    ASSERT_EQ(parallel.per_cell.size(), serial.per_cell.size());
    for (std::size_t i = 0; i < serial.per_cell.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      expect_identical(serial.per_cell[i], parallel.per_cell[i]);
    }
    expect_identical(serial.aggregate, parallel.aggregate);
  }
}

TEST(FaultPlan, CellsDeriveIndependentFaultStreams) {
  // Two cells differing only in their cell seed must see different fault
  // schedules (the injector reseed mixes the cell seed in).
  client::CellConfig config;
  config.object_count = 30;
  config.client_count = 10;
  config.ticks = 60;
  config.faults.fetch_failure_rate = 0.3;
  config.seed = 1;
  const auto a = client::run_cell(config);
  config.seed = 2;
  const auto b = client::run_cell(config);
  EXPECT_GT(a.failed_fetches, 0u);
  EXPECT_GT(b.failed_fetches, 0u);
  // Different seeds: the runs diverge somewhere in the fault accounting.
  EXPECT_FALSE(a.failed_fetches == b.failed_fetches &&
               a.score_sum == b.score_sum && a.requests == b.requests);
}

// ---------------------------------------------------------------------
// Fault sweep: graceful degradation up to a 30% headline rate.

TEST(FaultSweep, DegradesGracefullyUpToThirtyPercent) {
  exp::FaultSweepConfig config;
  config.base.object_count = 80;
  config.base.requests_per_tick = 25;
  config.base.warmup_ticks = 15;
  config.base.measure_ticks = 50;
  config.fault_rates = {0.0, 0.1, 0.3};
  const auto result = exp::run_fault_sweep(config);
  ASSERT_EQ(result.points.size(), 3u);

  const auto& clean = result.points.front();
  EXPECT_EQ(clean.on_demand.failed_fetches, 0u);
  EXPECT_EQ(clean.on_demand.degraded_serves, 0u);
  EXPECT_EQ(clean.on_demand.downlink_dropped, 0);

  for (const auto& point : result.points) {
    SCOPED_TRACE(point.fault_rate);
    // No stalls or crashes: every request is still answered and scored.
    EXPECT_EQ(point.on_demand.requests, clean.on_demand.requests);
    EXPECT_EQ(point.async_baseline.requests, clean.on_demand.requests);
    EXPECT_GT(point.on_demand.average_recency, 0.0);
    EXPECT_LE(point.on_demand.average_recency, 1.0);
    if (point.fault_rate > 0.0) {
      EXPECT_GT(point.on_demand.failed_fetches, 0u);
      EXPECT_GT(point.on_demand.retries, 0u);
      // Recency degrades, it does not collapse.
      EXPECT_LT(point.on_demand.average_recency,
                clean.on_demand.average_recency);
      EXPECT_GT(point.on_demand.average_recency,
                0.2 * clean.on_demand.average_recency);
    }
  }
}

TEST(FaultSweep, PlanMappingIsPinned) {
  const sim::FaultPlan plan = exp::fault_plan_at(0.2);
  EXPECT_DOUBLE_EQ(plan.fetch_failure_rate, 0.2);
  EXPECT_DOUBLE_EQ(plan.fetch_slowdown_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.downlink_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.server_outage_rate, 0.04);
  EXPECT_TRUE(exp::fault_plan_at(0.0).empty());
  EXPECT_THROW(exp::fault_plan_at(1.5), std::invalid_argument);
}

TEST(FaultSweep, SameSeedIsReproducible) {
  exp::FaultSweepConfig config;
  config.base.object_count = 50;
  config.base.requests_per_tick = 15;
  config.base.warmup_ticks = 10;
  config.base.measure_ticks = 25;
  config.fault_rates = {0.2};
  const auto a = exp::run_fault_sweep(config);
  const auto b = exp::run_fault_sweep(config);
  ASSERT_EQ(a.points.size(), 1u);
  EXPECT_EQ(a.points[0].on_demand.average_recency,
            b.points[0].on_demand.average_recency);
  EXPECT_EQ(a.points[0].on_demand.failed_fetches,
            b.points[0].on_demand.failed_fetches);
  EXPECT_EQ(a.points[0].on_demand.retries, b.points[0].on_demand.retries);
  EXPECT_EQ(a.points[0].async_baseline.average_recency,
            b.points[0].async_baseline.average_recency);
}

}  // namespace
}  // namespace mobi
