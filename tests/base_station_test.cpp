#include "core/base_station.hpp"

#include <gtest/gtest.h>

#include "object/builders.hpp"

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

TEST(BaseStation, SetDownloadBudget) {
  BaseStationConfig config;
  config.download_budget = 1;
  Fixture fx({1, 1}, "on-demand-knapsack", config);
  fx.station.set_download_budget(2);
  const auto result = fx.station.process_batch(requests_for({0, 1}), 0);
  EXPECT_EQ(result.units_downloaded, 2);
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
  const net::FixedNetwork& network = fx.station.network();
  EXPECT_DOUBLE_EQ(network.bandwidth(), 100.0);
  EXPECT_DOUBLE_EQ(network.latency(), 1.0);
  const auto result = fx.station.process_batch(requests_for({0, 1}), 0);
  EXPECT_DOUBLE_EQ(result.fetch_latency, 1.0 + 7.0 / 100.0);
}

TEST(BaseStation, EmptyBatchIsHarmless) {
  Fixture fx({1}, "on-demand-knapsack");
  const auto result = fx.station.process_batch({}, 0);
  EXPECT_EQ(result.requests, 0u);
  EXPECT_DOUBLE_EQ(result.average_score(), 1.0);
  EXPECT_EQ(result.objects_downloaded, 0u);
}

TEST(BaseStation, CoalescedDownlinkSendsEachObjectOnce) {
  BaseStationConfig config;
  config.coalesce_downlink = true;
  config.downlink_capacity = 100;
  Fixture fx({4, 4}, "download-all", config);
  // Five clients ask for object 0, one for object 1: broadcast needs only
  // 2 transmissions = 8 units, not 24.
  const auto result =
      fx.station.process_batch(requests_for({0, 0, 0, 0, 0, 1}), 0);
  EXPECT_EQ(result.downlink_delivered, 8);
  EXPECT_EQ(fx.station.downlink().queued(), 0);
}

TEST(BaseStation, UnicastDownlinkSendsPerRequest) {
  BaseStationConfig config;
  config.coalesce_downlink = false;
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

}  // namespace
}  // namespace mobi::core
