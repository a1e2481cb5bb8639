#include "core/base_station.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "net/fault_injector.hpp"
#include "object/builders.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"

namespace mobi::core {
namespace {

struct Fixture {
  object::Catalog catalog;
  server::ServerPool servers;
  BaseStation station;

  Fixture(std::vector<object::Units> sizes, const std::string& policy,
          BaseStationConfig config = {})
      : catalog(std::move(sizes)),
        servers(catalog, 1),
        station(catalog, servers, cache::make_harmonic_decay(),
                std::make_unique<ReciprocalScorer>(), make_policy(policy),
                config) {}
};

workload::RequestBatch requests_for(std::vector<object::ObjectId> ids,
                                    double target = 1.0) {
  workload::RequestBatch batch;
  workload::ClientId client = 0;
  for (auto id : ids) batch.push_back({id, target, client++});
  return batch;
}

TEST(BaseStation, RejectsNullCollaborators) {
  object::Catalog catalog({1});
  server::ServerPool servers(catalog, 1);
  EXPECT_THROW(BaseStation(catalog, servers, cache::make_harmonic_decay(),
                           nullptr, make_policy("cache-only")),
               std::invalid_argument);
  EXPECT_THROW(BaseStation(catalog, servers, cache::make_harmonic_decay(),
                           std::make_unique<ReciprocalScorer>(), nullptr),
               std::invalid_argument);
}

TEST(BaseStation, DownloadAllServesEveryoneFresh) {
  Fixture fx({1, 1}, "download-all");
  const auto result = fx.station.process_batch(requests_for({0, 1, 1}), 0);
  EXPECT_EQ(result.requests, 3u);
  EXPECT_EQ(result.objects_downloaded, 2u);
  EXPECT_EQ(result.units_downloaded, 2);
  EXPECT_DOUBLE_EQ(result.average_score(), 1.0);
  EXPECT_DOUBLE_EQ(result.recency_sum, 3.0);
}

TEST(BaseStation, CacheOnlyNeverDownloads) {
  Fixture fx({1, 1}, "cache-only");
  const auto result = fx.station.process_batch(requests_for({0, 1}), 0);
  EXPECT_EQ(result.objects_downloaded, 0u);
  EXPECT_EQ(result.units_downloaded, 0);
  // Absent copies have recency 0 -> reciprocal score 0.5 at target 1.0.
  EXPECT_DOUBLE_EQ(result.average_score(), 0.5);
  EXPECT_DOUBLE_EQ(result.recency_sum, 0.0);
}

TEST(BaseStation, UpdatesDecayCachedCopies) {
  Fixture fx({1}, "cache-only");
  // Prime the cache through a download-all round first.
  BaseStation primer(fx.catalog, fx.servers, cache::make_harmonic_decay(),
                     std::make_unique<ReciprocalScorer>(),
                     make_policy("download-all"));
  primer.process_batch(requests_for({0}), 0);
  EXPECT_DOUBLE_EQ(*primer.cache().recency(0), 1.0);
  primer.on_server_update(0, 1);
  EXPECT_DOUBLE_EQ(*primer.cache().recency(0), 0.5);
  EXPECT_EQ(fx.servers.version(0), 1u);
}

TEST(BaseStation, ApplyUpdatesUsesProcess) {
  Fixture fx({1, 1, 1}, "cache-only");
  auto updates = workload::make_periodic_synchronized(3, 2);
  fx.station.apply_updates(*updates, 0);  // fires
  EXPECT_EQ(fx.servers.version(0), 1u);
  fx.station.apply_updates(*updates, 1);  // silent
  EXPECT_EQ(fx.servers.version(0), 1u);
  fx.station.apply_updates(*updates, 2);  // fires
  EXPECT_EQ(fx.servers.version(2), 2u);
}

TEST(BaseStation, KnapsackBudgetIsRespected) {
  BaseStationConfig config;
  config.download_budget = 2;
  Fixture fx({1, 1, 1, 1}, "on-demand-knapsack", config);
  const auto result =
      fx.station.process_batch(requests_for({0, 1, 2, 3}), 0);
  EXPECT_EQ(result.units_downloaded, 2);
  EXPECT_EQ(result.objects_downloaded, 2u);
  // 2 of 4 clients fresh (score 1), 2 served absent (score 0.5).
  EXPECT_DOUBLE_EQ(result.average_score(), 0.75);
}

TEST(BaseStation, TotalsAccumulateAcrossTicks) {
  Fixture fx({1, 1}, "download-all");
  fx.station.process_batch(requests_for({0}), 0);
  fx.station.process_batch(requests_for({1, 1}), 1);
  EXPECT_EQ(fx.station.totals().requests, 3u);
  EXPECT_EQ(fx.station.totals().units_downloaded, 2);
  EXPECT_DOUBLE_EQ(fx.station.totals().average_score(), 1.0);
  EXPECT_DOUBLE_EQ(fx.station.totals().average_recency(), 1.0);
}

TEST(BaseStation, SecondRequestServedFromCacheWithoutDownload) {
  Fixture fx({1}, "on-demand-stale-only");
  const auto first = fx.station.process_batch(requests_for({0}), 0);
  EXPECT_EQ(first.objects_downloaded, 1u);
  const auto second = fx.station.process_batch(requests_for({0}), 1);
  EXPECT_EQ(second.objects_downloaded, 0u);  // still fresh
  EXPECT_DOUBLE_EQ(second.average_score(), 1.0);
}

TEST(BaseStation, StaleOnlyRedownloadsAfterUpdate) {
  Fixture fx({1}, "on-demand-stale-only");
  fx.station.process_batch(requests_for({0}), 0);
  fx.station.on_server_update(0, 1);
  const auto result = fx.station.process_batch(requests_for({0}), 1);
  EXPECT_EQ(result.objects_downloaded, 1u);
}

TEST(BaseStation, DownlinkCarriesResponses) {
  BaseStationConfig config;
  config.downlink_capacity = 2;
  Fixture fx({1, 1, 1}, "download-all", config);
  const auto result = fx.station.process_batch(requests_for({0, 1, 2}), 0);
  // 3 unit responses, capacity 2 -> 2 delivered this tick, 1 queued.
  EXPECT_EQ(result.downlink_delivered, 2);
  EXPECT_EQ(fx.station.downlink().queued(), 1);
}

TEST(BaseStation, FetchLatencyReflectsBatchVolume) {
  Fixture fx({3, 4}, "download-all");
  const auto result = fx.station.process_batch(requests_for({0, 1}), 0);
  EXPECT_DOUBLE_EQ(result.fetch_latency, 1.0 + 7.0 / 100.0);
}

// A congestion fault stretches a tick's whole origin batch on one draw;
// a tick that fetches nothing reads no completion and draws nothing.
TEST(BaseStation, CongestionFaultStretchesTheBatchOnce) {
  sim::FaultPlan plan;
  plan.fetch_slowdown_rate = 1.0;
  plan.fetch_slowdown_factor = 4.0;
  net::FaultInjector injector(plan);
  Fixture healthy({3, 4}, "download-all");
  Fixture congested({3, 4}, "download-all");
  congested.station.set_fault_injector(&injector);

  const auto base = healthy.station.process_batch(requests_for({0, 1}), 0);
  const auto slow = congested.station.process_batch(requests_for({0, 1}), 0);
  EXPECT_EQ(slow.objects_downloaded, 2u);
  EXPECT_DOUBLE_EQ(slow.fetch_latency, 4.0 * base.fetch_latency);
  EXPECT_EQ(injector.counters().fetch_slowdowns, 1u);

  const auto idle = congested.station.process_batch({}, 1);
  EXPECT_EQ(idle.objects_downloaded, 0u);
  EXPECT_EQ(idle.fetch_latency, 0.0);
  EXPECT_EQ(injector.counters().fetch_slowdowns, 1u);
}

// One net-batch event per tick with an origin fetch: the transfer count
// rides in the attempt field and the completion time in the value.
TEST(BaseStation, TracedTickRecordsOneNetBatchEvent) {
  Fixture fx({3, 4}, "download-all");
  obs::RequestTracer tracer;
  fx.station.set_request_tracer(&tracer);
  const auto result = fx.station.process_batch(requests_for({0, 1}), 5);
  fx.station.process_batch({}, 6);  // fetches nothing

  const obs::EventLog& log = tracer.log();
  ASSERT_EQ(log.count(obs::EventKind::kNetBatch), 1u);
  for (const obs::RequestEvent& e : log.events()) {
    if (e.kind != obs::EventKind::kNetBatch) continue;
    EXPECT_EQ(e.tick, 5);
    EXPECT_EQ(e.attempt, result.objects_downloaded);
    EXPECT_EQ(e.value, result.fetch_latency);
  }
}

TEST(BaseStation, EmptyBatchIsHarmless) {
  Fixture fx({1}, "on-demand-knapsack");
  const auto result = fx.station.process_batch({}, 0);
  EXPECT_EQ(result.requests, 0u);
  EXPECT_DOUBLE_EQ(result.average_score(), 1.0);
  EXPECT_EQ(result.objects_downloaded, 0u);
}

TEST(BaseStation, UnicastDownlinkSendsPerRequest) {
  BaseStationConfig config;
  config.downlink_capacity = 100;
  Fixture fx({4, 4}, "download-all", config);
  const auto result =
      fx.station.process_batch(requests_for({0, 0, 0, 0, 0, 1}), 0);
  EXPECT_EQ(result.downlink_delivered, 24);
}

TEST(BaseStation, MissingObjectsNotEnqueuedOnDownlink) {
  Fixture fx({5}, "cache-only");
  fx.station.process_batch(requests_for({0}), 0);
  EXPECT_EQ(fx.station.downlink().delivered_total(), 0);
}

// A 1-in-4 traced station whose downlink backs up: every sampled cached
// serve's chunk yields exactly one delivery event, naming that request,
// on its arrival tick or later, and the queue-wait histogram still counts
// every delivered chunk, sampled or not.
TEST(BaseStation, TracedDeliveriesBelongToSampledRequests) {
  BaseStationConfig config;
  config.download_budget = 6;
  config.downlink_capacity = 9;  // about 4 of ~10 chunks a tick
  Fixture fx(std::vector<object::Units>(16, 2), "on-demand-knapsack", config);
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer(obs::RequestTracer::Config{4, 1 << 16});
  tracer.register_histograms(&registry);
  fx.station.set_request_tracer(&tracer);

  workload::ClientId client = 100;  // unique per request
  for (sim::Tick t = 0; t < 20; ++t) {
    workload::RequestBatch batch;
    for (std::uint32_t i = 0; i < 13; ++i) {
      batch.push_back({object::ObjectId((t * 7 + i * 5) % 16), 1.0, client++});
    }
    if (t % 3 == 0) fx.station.on_server_update(object::ObjectId(t % 16), t);
    fx.station.process_batch(batch, t);
  }
  ASSERT_GT(fx.station.downlink().queued(), 0);  // the backlog is real
  for (sim::Tick t = 20; fx.station.downlink().queued() > 0; ++t) {
    fx.station.process_batch({}, t);
  }

  const obs::EventLog& log = tracer.log();
  ASSERT_EQ(log.dropped(), 0u);
  std::map<std::pair<std::uint32_t, std::uint32_t>, sim::Tick> arrivals;
  for (const obs::RequestEvent& e : log.events()) {
    if (e.kind == obs::EventKind::kArrival) {
      arrivals[{e.object, e.client}] = e.tick;
    }
  }
  std::uint64_t delivered = 0, waited = 0;
  for (const obs::RequestEvent& e : log.events()) {
    if (e.kind != obs::EventKind::kDownlinkDelivered) continue;
    ++delivered;
    const auto it = arrivals.find({e.object, e.client});
    ASSERT_NE(it, arrivals.end())
        << "delivery of object " << e.object << " to client " << e.client
        << " names no sampled arrival";
    EXPECT_GE(e.tick, it->second);
    EXPECT_EQ(e.value, double(e.tick - it->second));
    waited += e.tick > it->second;
  }
  EXPECT_GT(log.count(obs::EventKind::kCacheMiss), 0u);
  EXPECT_GT(waited, 0u);
  EXPECT_EQ(delivered, log.count(obs::EventKind::kCacheHit));
  // Every chunk is 2 units and all of them drained.
  EXPECT_EQ(registry.find_histogram("lat.queue_wait")->total(),
            std::uint64_t(fx.station.downlink().delivered_total() / 2));
  EXPECT_GT(registry.find_histogram("lat.queue_wait")->total(), 2 * delivered);
}

}  // namespace
}  // namespace mobi::core
