#include "client/cell.hpp"
#include "client/mobile_client.hpp"

#include <gtest/gtest.h>

#include "object/builders.hpp"

namespace mobi::client {
namespace {

object::Catalog small_catalog() { return object::make_uniform_catalog(10, 2); }

// A report over `catalog` that counts no update.
cache::InvalidationReport quiet_report(const object::Catalog& catalog,
                                       sim::Tick start, sim::Tick end) {
  return cache::InvalidationReport{start, end,
                                   std::vector<std::uint32_t>(catalog.size())};
}

TEST(MobileClient, ConfigValidation) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = -0.1;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
  config = {};
  config.reconnect_rate = 1.5;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
  config = {};
  config.target_recency = 0.0;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
}

TEST(MobileClient, StartsConnectedAndEmpty) {
  const auto catalog = small_catalog();
  MobileClient client(7, catalog, {});
  EXPECT_EQ(client.id(), 7u);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.hits(), 0u);
  EXPECT_FALSE(client.lookup(0, 0).has_value());
  EXPECT_EQ(client.misses(), 1u);
}

TEST(MobileClient, StoreAndLookup) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(3, 0);
  const auto recency = client.lookup(3, 1);
  ASSERT_TRUE(recency.has_value());
  EXPECT_DOUBLE_EQ(*recency, 1.0);
  EXPECT_EQ(client.hits(), 1u);
}

TEST(MobileClient, StoreInheritsRelayedRecency) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(3, 0, 0.5);
  EXPECT_DOUBLE_EQ(*client.lookup(3, 1), 0.5);
}

TEST(MobileClient, LocalCacheIsBounded) {
  const auto catalog = small_catalog();  // 10 objects x 2 units
  MobileClientConfig config;
  config.cache_units = 4;  // room for two objects
  MobileClient client(0, catalog, config);
  client.store(0, 0);
  client.store(1, 1);
  client.store(2, 2);
  EXPECT_LE(client.local_cache().used(), 4);
  EXPECT_TRUE(client.lookup(2, 3).has_value());
}

TEST(MobileClient, ConnectivityStateMachine) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 1.0;  // drops immediately
  config.reconnect_rate = 1.0;   // and comes right back
  MobileClient client(0, catalog, config);
  util::Rng rng(1);
  EXPECT_FALSE(client.step_connectivity(rng));  // connected -> disconnected
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.step_connectivity(rng));  // reconnect signalled
  EXPECT_TRUE(client.connected());
}

TEST(MobileClient, NeverDisconnectsAtRateZero) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 0.0;
  MobileClient client(0, catalog, config);
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    client.step_connectivity(rng);
    EXPECT_TRUE(client.connected());
  }
}

TEST(MobileClient, HearsReportsAndDecays) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(2, 0);
  auto report = quiet_report(catalog, 0, 5);
  report.updates[2] = 1;
  EXPECT_EQ(client.hear_report(report), 1);
  EXPECT_DOUBLE_EQ(*client.lookup(2, 6), 0.5);
}

TEST(MobileClient, CopyHearsReportsIntoItsOwnCache) {
  // A copy's listener must decay the copy's cache, not the original's, so
  // a client vector may reallocate without rewiring anything.
  const auto catalog = small_catalog();
  MobileClient a(0, catalog, {});
  a.store(0, 0);
  MobileClient b = a;
  auto report = quiet_report(catalog, 0, 5);
  report.updates[0] = 1;
  EXPECT_EQ(b.hear_report(report), 1);
  EXPECT_DOUBLE_EQ(*b.local_cache().recency(0), 0.5);
  EXPECT_DOUBLE_EQ(*a.local_cache().recency(0), 1.0);
  // ...and the sleeper rule drops only the copy's cache.
  EXPECT_EQ(b.hear_report(quiet_report(catalog, 10, 15)), -1);
  EXPECT_FALSE(b.local_cache().contains(0));
  EXPECT_TRUE(a.local_cache().contains(0));
  EXPECT_EQ(a.sleeper_drops(), 0u);
}

TEST(MobileClient, SleeperRuleDropsLocalCache) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(2, 0);
  client.hear_report(quiet_report(catalog, 0, 5));
  // Missed [5, 10); hears [10, 15): everything local is untrustworthy.
  EXPECT_EQ(client.hear_report(quiet_report(catalog, 10, 15)), -1);
  EXPECT_FALSE(client.lookup(2, 16).has_value());
  EXPECT_EQ(client.sleeper_drops(), 1u);
}

TEST(MobileClient, DisconnectedClientCannotHear) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 1.0;
  MobileClient client(0, catalog, config);
  util::Rng rng(3);
  client.step_connectivity(rng);
  EXPECT_THROW(client.hear_report(quiet_report(catalog, 0, 1)),
               std::logic_error);
}

CellConfig small_cell() {
  CellConfig config;
  config.object_count = 50;
  config.client_count = 20;
  config.ticks = 120;
  config.base_budget = 30;
  config.seed = 9;
  return config;
}

TEST(Cell, RunsAndAccountsEveryRequest) {
  const auto result = run_cell(small_cell());
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(result.requests, result.served_locally + result.served_by_base);
  EXPECT_GT(result.average_score(), 0.0);
  EXPECT_LE(result.average_score(), 1.0);
  EXPECT_GT(result.base_downloaded, 0);
}

TEST(Cell, LocalCachesAbsorbTraffic) {
  auto config = small_cell();
  config.client.cache_units = 40;
  const auto with_cache = run_cell(config);
  EXPECT_GT(with_cache.local_hit_rate(), 0.05);
}

TEST(Cell, BiggerClientCachesServeMoreLocally) {
  auto config = small_cell();
  config.client.cache_units = 4;
  const auto small_caches = run_cell(config);
  config.client.cache_units = 60;
  const auto big_caches = run_cell(config);
  EXPECT_GT(big_caches.local_hit_rate(), small_caches.local_hit_rate());
}

TEST(Cell, DisconnectionCausesSleeperDrops) {
  auto config = small_cell();
  config.client.disconnect_rate = 0.1;
  config.client.reconnect_rate = 0.2;
  config.report_period = 2;
  const auto result = run_cell(config);
  EXPECT_GT(result.disconnect_ticks, 0u);
  EXPECT_GT(result.sleeper_drops, 0u);
}

TEST(Cell, NoDisconnectsNoDrops) {
  auto config = small_cell();
  config.client.disconnect_rate = 0.0;
  const auto result = run_cell(config);
  EXPECT_EQ(result.disconnect_ticks, 0u);
  EXPECT_EQ(result.sleeper_drops, 0u);
}

TEST(Cell, DeterministicUnderSeed) {
  const auto a = run_cell(small_cell());
  const auto b = run_cell(small_cell());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served_locally, b.served_locally);
  EXPECT_DOUBLE_EQ(a.score_sum, b.score_sum);
}

// A zero period used to divide by zero and a negative one threw midway
// through the run; both are rejected before the first tick.
TEST(Cell, RejectsNonPositiveReportPeriod) {
  auto config = small_cell();
  for (const sim::Tick period : {sim::Tick(0), sim::Tick(-5)}) {
    config.report_period = period;
    EXPECT_THROW(run_cell(config), std::invalid_argument);
  }
}

// With updates and reports on one period, object 0 updates at every report
// tick. The report at tick P covers [0, P): it counts the update at tick 0,
// and the one at tick P goes into the next report, so the client's copy
// decays exactly once. A cut after tick P's updates would count both.
TEST(CellEngine, ReportAtAnUpdateTickLeavesThatTicksUpdateOut) {
  CellConfig config;
  config.object_count = 1;
  config.client_count = 1;
  config.client.disconnect_rate = 0.0;
  config.client.target_recency = 0.1;  // a decayed copy still serves locally
  config.update_period = 3;
  config.report_period = 3;
  util::Rng rng(config.seed);
  const auto catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  const auto access = exp::make_access(config.access, config.object_count,
                                       config.zipf_alpha);
  std::vector<MobileClient> clients{MobileClient(0, catalog, config.client)};
  std::vector<CellEngine::Credit> credited(clients.size());
  CellEngine engine(config, catalog, *access, clients, credited, {0}, rng);
  const cache::BoundedCache& local = clients[0].local_cache();

  // Tick 0 fetches the copy after that tick's update; ticks 1 and 2 serve
  // it locally, undecayed.
  for (sim::Tick t = 0; t < config.report_period; ++t) engine.tick(t);
  EXPECT_EQ(engine.result().served_by_base, 1u);
  EXPECT_EQ(engine.result().served_locally, 2u);
  EXPECT_DOUBLE_EQ(*local.recency(0), 1.0);
  EXPECT_EQ(local.stats().decays, 0u);

  engine.tick(config.report_period);
  EXPECT_EQ(local.stats().decays, 1u);
  EXPECT_DOUBLE_EQ(*local.recency(0), 0.5);
  EXPECT_EQ(engine.result().served_locally, 3u);
}

TEST(Cell, BetterBasePolicyLiftsScores) {
  auto config = small_cell();
  config.base_policy = "on-demand-knapsack";
  const auto knapsack = run_cell(config);
  config.base_policy = "cache-only";
  const auto cache_only = run_cell(config);
  EXPECT_GT(knapsack.average_score(), cache_only.average_score());
}

}  // namespace
}  // namespace mobi::client
