// Failure injection through net::FaultInjector: transient fixed-network
// faults during fetches, downlink drops mid-transfer, server outages
// spanning a batch, bounded retry with exponential backoff and the
// degraded serve it falls back to when retries run out. The
// injected-fault metrics (fault.injected.*, bs.fault.*) are asserted
// against the injected counts.
#include <gtest/gtest.h>

#include "core/base_station.hpp"
#include "net/fault_injector.hpp"
#include "object/builders.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"

namespace mobi::core {
namespace {

workload::RequestBatch requests_for(std::vector<object::ObjectId> ids) {
  workload::RequestBatch batch;
  workload::ClientId client = 0;
  for (auto id : ids) batch.push_back({id, 1.0, client++});
  return batch;
}

struct ChaosFixture {
  object::Catalog catalog;
  server::ServerPool servers;
  net::FaultInjector injector;
  BaseStation station;

  ChaosFixture(std::size_t n, const sim::FaultPlan& plan,
               BaseStationConfig config = {}, std::size_t server_count = 1,
               const char* policy = "download-all")
      : catalog(object::make_uniform_catalog(n, 1)),
        servers(catalog, server_count),
        injector(plan, server_count),
        station(catalog, servers, cache::make_harmonic_decay(),
                std::make_unique<ReciprocalScorer>(),
                make_policy(policy), config) {
    station.set_fault_injector(&injector);
    servers.set_fault_injector(&injector);
  }
};

// A download-all station whose only fault is the injector's fetch-failure
// stream at `rate`.
sim::FaultPlan fetch_failures(double rate, std::uint64_t seed = 1) {
  sim::FaultPlan plan;
  plan.fetch_failure_rate = rate;
  plan.seed = seed;
  return plan;
}

std::vector<object::ObjectId> first_ids(std::size_t n) {
  std::vector<object::ObjectId> ids;
  for (object::ObjectId id = 0; id < n; ++id) ids.push_back(id);
  return ids;
}

TEST(FailureInjection, RateValidation) {
  EXPECT_THROW(ChaosFixture(2, fetch_failures(1.5)), std::invalid_argument);
  EXPECT_THROW(ChaosFixture(2, fetch_failures(-0.1)), std::invalid_argument);
}

TEST(FailureInjection, ZeroRateNeverFails) {
  ChaosFixture fx(10, fetch_failures(0.0));
  const auto result = fx.station.process_batch(requests_for(first_ids(10)), 0);
  EXPECT_EQ(result.failed_fetches, 0u);
  EXPECT_EQ(result.objects_downloaded, 10u);
  EXPECT_EQ(fx.injector.counters().fetch_failures, 0u);
}

TEST(FailureInjection, RateOneFailsEverything) {
  ChaosFixture fx(5, fetch_failures(1.0));
  const auto result = fx.station.process_batch(requests_for({0, 1, 2}), 0);
  EXPECT_EQ(result.failed_fetches, 3u);
  EXPECT_EQ(result.objects_downloaded, 0u);
  EXPECT_EQ(result.units_downloaded, 0);
  // Nothing entered the cache; clients were served "absent" copies.
  EXPECT_EQ(fx.station.cache().resident(), 0u);
  EXPECT_DOUBLE_EQ(result.average_score(), 0.5);
}

TEST(FailureInjection, PartialFailuresDegradeGracefully) {
  ChaosFixture fx(100, fetch_failures(0.5, 7));
  const auto result =
      fx.station.process_batch(requests_for(first_ids(100)), 0);
  EXPECT_GT(result.failed_fetches, 20u);
  EXPECT_LT(result.failed_fetches, 80u);
  EXPECT_EQ(result.failed_fetches + result.objects_downloaded, 100u);
  EXPECT_EQ(fx.station.cache().resident(), result.objects_downloaded);
}

TEST(FailureInjection, DeterministicUnderSeed) {
  ChaosFixture a(50, fetch_failures(0.3, 99));
  ChaosFixture b(50, fetch_failures(0.3, 99));
  const auto ra = a.station.process_batch(requests_for(first_ids(50)), 0);
  const auto rb = b.station.process_batch(requests_for(first_ids(50)), 0);
  EXPECT_GT(ra.failed_fetches, 0u);
  EXPECT_EQ(ra.failed_fetches, rb.failed_fetches);
  EXPECT_EQ(ra.units_downloaded, rb.units_downloaded);
}

TEST(FailureInjection, RetryNextTickSucceedsEventually) {
  ChaosFixture fx(1, fetch_failures(0.5, 3));
  // Stale-only semantics via download-all: keep requesting until cached.
  bool cached = false;
  for (sim::Tick t = 0; t < 64 && !cached; ++t) {
    fx.station.process_batch(requests_for({0}), t);
    cached = fx.station.cache().contains(0);
  }
  EXPECT_TRUE(cached);  // a fair coin cannot lose 64 times under this seed
}

TEST(ChaosInjection, DownlinkDropMidTransferIsCountedAndConserved) {
  sim::FaultPlan plan;
  plan.downlink_drop_rate = 1.0;  // every chunk touched on air drops
  BaseStationConfig config;
  config.downlink_capacity = 3;
  ChaosFixture fx(4, plan, config);
  const auto result = fx.station.process_batch(requests_for({0, 1, 2}), 0);
  // Fetches succeed (no fetch faults in the plan) and responses are
  // enqueued, but nothing survives the air.
  EXPECT_EQ(result.objects_downloaded, 3u);
  EXPECT_EQ(result.downlink_delivered, 0);
  const auto& downlink = fx.station.downlink();
  EXPECT_EQ(downlink.enqueued_total(), 3);
  EXPECT_GT(downlink.dropped_total(), 0);
  // Conservation: every enqueued unit is delivered, still queued, or
  // accounted as dropped — mid-flight drops must not leak units.
  EXPECT_EQ(downlink.enqueued_total(),
            downlink.delivered_total() + downlink.queued() +
                downlink.dropped_total());
  EXPECT_EQ(std::uint64_t(downlink.dropped_total()),
            fx.injector.counters().downlink_drops);
}

TEST(ChaosInjection, ServerOutageSpanningABatchFailsItsFetches) {
  sim::FaultPlan plan;
  plan.server_outage_rate = 1.0;  // both servers down from tick 0
  plan.server_outage_ticks = 100;
  ChaosFixture fx(6, plan, {}, /*server_count=*/2);
  const auto result =
      fx.station.process_batch(requests_for({0, 1, 2, 3, 4, 5}), 0);
  EXPECT_EQ(result.failed_fetches, 6u);
  EXPECT_EQ(result.objects_downloaded, 0u);
  EXPECT_EQ(result.degraded_serves, 6u);  // all requesters served past it
  EXPECT_EQ(fx.injector.counters().server_outages, 2u);  // one per server
  EXPECT_FALSE(fx.servers.available(0));
  // The window spans subsequent batches too.
  const auto later = fx.station.process_batch(requests_for({0, 1}), 5);
  EXPECT_EQ(later.failed_fetches, 2u);
  EXPECT_EQ(fx.injector.counters().server_outages, 2u);  // no reopen draws
}

TEST(ChaosInjection, RetryBacksOffExponentiallyAndExhaustsToDegradedServe) {
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 1.0;  // every attempt faults
  BaseStationConfig config;
  config.fetch_retry_limit = 2;
  ChaosFixture fx(2, plan, config);

  // t0: the requested fetch fails and enters the retry queue.
  const auto r0 = fx.station.process_batch(requests_for({0}), 0);
  EXPECT_EQ(r0.failed_fetches, 1u);
  EXPECT_EQ(r0.retries, 0u);
  EXPECT_EQ(r0.degraded_serves, 1u);  // served past the failed refresh
  EXPECT_EQ(fx.station.retry_queue_depth(), 1u);

  const workload::RequestBatch empty;
  // t1: first retry (backoff 1 tick) fails; next attempt backs off 2.
  const auto r1 = fx.station.process_batch(empty, 1);
  EXPECT_EQ(r1.retries, 1u);
  EXPECT_EQ(r1.retry_exhausted, 0u);
  EXPECT_EQ(fx.station.retry_queue_depth(), 1u);
  // t2: inside the backoff window — no attempt.
  const auto r2 = fx.station.process_batch(empty, 2);
  EXPECT_EQ(r2.retries, 0u);
  // t3: second retry fails; the 2-attempt budget is exhausted.
  const auto r3 = fx.station.process_batch(empty, 3);
  EXPECT_EQ(r3.retries, 1u);
  EXPECT_EQ(r3.retry_exhausted, 1u);
  EXPECT_EQ(fx.station.retry_queue_depth(), 0u);

  // The requester is now served the (absent/stale) copy, degraded.
  const auto r4 = fx.station.process_batch(requests_for({0}), 4);
  EXPECT_EQ(r4.failed_fetches, 1u);
  EXPECT_EQ(r4.degraded_serves, 1u);
  EXPECT_EQ(fx.station.totals().retries, 2u);
  EXPECT_EQ(fx.station.totals().retry_exhausted, 1u);
}

TEST(ChaosInjection, RetrySucceedsWhenTheOutageEnds) {
  sim::FaultPlan plan;
  plan.server_outage_rate = 1.0;
  plan.server_outage_ticks = 100;
  BaseStationConfig config;
  config.fetch_retry_limit = 5;
  ChaosFixture fx(3, plan, config);

  const auto r0 = fx.station.process_batch(requests_for({0}), 0);
  EXPECT_EQ(r0.failed_fetches, 1u);
  EXPECT_EQ(fx.station.retry_queue_depth(), 1u);
  EXPECT_FALSE(fx.station.cache().contains(0));

  // The outage "ends": detach the injector from station and pool. The
  // retry queue persists and the pending refresh completes on its own.
  fx.station.set_fault_injector(nullptr);
  fx.servers.set_fault_injector(nullptr);
  const auto r1 = fx.station.process_batch({}, 1);
  EXPECT_EQ(r1.retries, 1u);
  EXPECT_EQ(r1.retry_successes, 1u);
  EXPECT_EQ(r1.objects_downloaded, 1u);
  EXPECT_EQ(fx.station.retry_queue_depth(), 0u);
  EXPECT_TRUE(fx.station.cache().contains(0));
}

TEST(ChaosInjection, RetriesConsumeBudgetBeforeThePolicy) {
  // Unit-size objects, budget 1: the tick after a failure, the retry
  // takes the only budget unit and the policy gets none.
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 1.0;
  BaseStationConfig config;
  config.fetch_retry_limit = 3;
  config.download_budget = 1;
  ChaosFixture fx(4, plan, config, 1, "on-demand-knapsack");
  fx.station.process_batch(requests_for({0}), 0);
  ASSERT_EQ(fx.station.retry_queue_depth(), 1u);

  fx.station.set_fault_injector(nullptr);
  fx.servers.set_fault_injector(nullptr);
  const auto r1 = fx.station.process_batch(requests_for({1}), 1);
  EXPECT_EQ(r1.retry_successes, 1u);
  EXPECT_EQ(r1.objects_downloaded, 1u);  // the retry, not the new request
  EXPECT_EQ(r1.units_downloaded, 1);     // total stayed within the budget
  EXPECT_TRUE(fx.station.cache().contains(0));
  EXPECT_FALSE(fx.station.cache().contains(1));
}

TEST(ChaosInjection, FaultMetricsMatchInjectedCounts) {
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.5;
  plan.downlink_drop_rate = 0.3;
  plan.seed = 31;
  BaseStationConfig config;
  config.fetch_retry_limit = 2;
  config.downlink_capacity = 2;
  ChaosFixture fx(20, plan, config);
  obs::MetricsRegistry registry;
  fx.station.set_metrics(&registry);
  fx.injector.set_metrics(&registry);

  std::vector<object::ObjectId> wanted;
  for (object::ObjectId id = 0; id < 20; ++id) wanted.push_back(id);
  RunTotals totals;
  for (sim::Tick t = 0; t < 30; ++t) {
    totals.add(fx.station.process_batch(requests_for(wanted), t));
  }
  ASSERT_GT(fx.injector.counters().fetch_failures, 0u);
  ASSERT_GT(fx.injector.counters().downlink_drops, 0u);
  // Injected counts surface 1:1 in the registry...
  EXPECT_EQ(registry.scalar_value("fault.injected.fetch_failures"),
            double(fx.injector.counters().fetch_failures));
  EXPECT_EQ(registry.scalar_value("fault.injected.downlink_drops"),
            double(fx.injector.counters().downlink_drops));
  // ...and station-side accounting agrees with the tick results.
  EXPECT_EQ(registry.scalar_value("bs.failed_fetches"),
            double(totals.failed_fetches));
  EXPECT_EQ(registry.scalar_value("bs.fault.retries"),
            double(totals.retries));
  EXPECT_EQ(registry.scalar_value("bs.fault.retry_successes"),
            double(totals.retry_successes));
  EXPECT_EQ(registry.scalar_value("bs.fault.degraded_serves"),
            double(totals.degraded_serves));
  EXPECT_EQ(registry.scalar_value("bs.downlink.dropped_units"),
            double(fx.station.downlink().dropped_total()));
  // Every injected fetch failure is a failed fetch at the station (the
  // station also counts outage failures, which this plan does not open).
  EXPECT_EQ(totals.failed_fetches,
            std::size_t(fx.injector.counters().fetch_failures));
}

TEST(FailureInjection, FailedFetchStillServesStaleCopy) {
  ChaosFixture fx(1, fetch_failures(1.0));  // every remote fetch faults
  // Seed the cache directly, then stale it: the client must be served the
  // decayed copy since the re-fetch cannot succeed.
  fx.station.cache().refresh(0, fx.servers.fetch(0), 0);
  fx.station.on_server_update(0, 1);
  const auto result = fx.station.process_batch(requests_for({0}), 1);
  EXPECT_EQ(result.failed_fetches, 1u);
  EXPECT_DOUBLE_EQ(result.recency_sum, 0.5);  // one harmonic decay
  EXPECT_GT(result.average_score(), 0.0);
  EXPECT_LT(result.average_score(), 1.0);
}

}  // namespace
}  // namespace mobi::core
