#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "object/builders.hpp"

namespace mobi::core {
namespace {

struct World {
  object::Catalog catalog;
  server::ServerPool servers;
  cache::Cache cache;
  ReciprocalScorer scorer;

  explicit World(std::vector<object::Units> sizes)
      : catalog(std::move(sizes)),
        servers(catalog, 1),
        cache(catalog.size(), cache::make_harmonic_decay()) {}

  PolicyContext context(object::Units budget = -1, sim::Tick now = 0) {
    PolicyContext ctx;
    ctx.catalog = &catalog;
    ctx.cache = &cache;
    ctx.servers = &servers;
    ctx.scorer = &scorer;
    ctx.now = now;
    ctx.budget = budget;
    return ctx;
  }

  void cache_fresh(object::ObjectId id) {
    cache.refresh(id, servers.fetch(id), 0);
  }
};

workload::RequestBatch requests_for(std::vector<object::ObjectId> ids,
                                    double target = 1.0) {
  workload::RequestBatch batch;
  workload::ClientId client = 0;
  for (auto id : ids) batch.push_back({id, target, client++});
  return batch;
}

bool contains(const std::vector<object::ObjectId>& ids, object::ObjectId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(OnDemandKnapsack, UnlimitedBudgetTakesAllProfitable) {
  World world({1, 1, 1});
  world.cache_fresh(0);  // object 0 fresh -> zero profit
  OnDemandKnapsackPolicy policy;
  const auto selected = policy.select(requests_for({0, 1, 2}), world.context());
  EXPECT_FALSE(contains(selected, 0));
  EXPECT_TRUE(contains(selected, 1));
  EXPECT_TRUE(contains(selected, 2));
}

TEST(OnDemandKnapsack, BudgetPicksHighestTotalProfit) {
  World world({5, 5, 5});
  // All absent (profit 0.5/request). Object 2 requested twice -> profit 1.0.
  const auto batch = requests_for({0, 1, 2, 2});
  OnDemandKnapsackPolicy policy;
  const auto selected = policy.select(batch, world.context(5));
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 2u);
}

TEST(OnDemandKnapsack, PrefersSmallWhenProfitEqual) {
  World world({1, 10});
  const auto batch = requests_for({0, 1});
  OnDemandKnapsackPolicy policy;
  // Budget 1: only object 0 fits.
  const auto selected = policy.select(batch, world.context(1));
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 0u);
}

TEST(OnDemandKnapsack, EmptyBatchSelectsNothing) {
  World world({1});
  OnDemandKnapsackPolicy policy;
  EXPECT_TRUE(policy.select({}, world.context(10)).empty());
}

TEST(OnDemandKnapsack, AllSolversAgreeOnEasyInstance) {
  for (auto solver : {KnapsackSolver::kExactDp, KnapsackSolver::kGreedy}) {
    World world({2, 3});
    OnDemandKnapsackPolicy policy(solver);
    const auto selected =
        policy.select(requests_for({0, 1}), world.context(5));
    EXPECT_EQ(selected.size(), 2u) << solver_name(solver);
  }
}

TEST(OnDemandKnapsack, NamesIncludeSolver) {
  EXPECT_NE(OnDemandKnapsackPolicy(KnapsackSolver::kGreedy).name().find("greedy"),
            std::string::npos);
}

TEST(OnDemandKnapsack, NullContextThrows) {
  OnDemandKnapsackPolicy policy;
  PolicyContext empty;
  EXPECT_THROW(policy.select({}, empty), std::invalid_argument);
}

TEST(OnDemandLowestRecency, PicksStalestFirst) {
  World world({1, 1, 1});
  world.cache_fresh(0);
  world.cache_fresh(1);
  world.cache_fresh(2);
  // Decay object 1 twice, object 2 once.
  world.cache.on_server_update(1);
  world.cache.on_server_update(1);
  world.cache.on_server_update(2);
  OnDemandLowestRecencyPolicy policy;
  const auto selected =
      policy.select(requests_for({0, 1, 2}), world.context(2));
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 1u);  // stalest
  EXPECT_EQ(selected[1], 2u);
}

TEST(OnDemandLowestRecency, AbsentObjectsAreMostUrgent) {
  World world({1, 1});
  world.cache_fresh(0);
  OnDemandLowestRecencyPolicy policy;
  const auto selected = policy.select(requests_for({0, 1}), world.context(1));
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 1u);
}

TEST(OnDemandLowestRecency, UnlimitedBudgetTakesAllRequested) {
  World world({1, 1, 1});
  OnDemandLowestRecencyPolicy policy;
  EXPECT_EQ(policy.select(requests_for({0, 2}), world.context(-1)).size(), 2u);
}

TEST(OnDemandStaleOnly, SkipsFreshCopies) {
  World world({1, 1});
  world.cache_fresh(0);
  OnDemandStaleOnlyPolicy policy;
  const auto selected = policy.select(requests_for({0, 1}), world.context());
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], 1u);
}

TEST(OnDemandStaleOnly, DetectsStalenessAfterUpdate) {
  World world({1, 1});
  world.cache_fresh(0);
  world.servers.apply_update(0, 1);  // cached version now behind
  OnDemandStaleOnlyPolicy policy;
  const auto selected =
      policy.select(requests_for({0}), world.context(-1, 1));
  EXPECT_TRUE(contains(selected, 0));
}

TEST(OnDemandStaleOnly, DeduplicatesRequests) {
  World world({1});
  OnDemandStaleOnlyPolicy policy;
  const auto selected = policy.select(requests_for({0, 0, 0}), world.context());
  EXPECT_EQ(selected.size(), 1u);
}

TEST(AsyncRoundRobin, CyclesThroughCatalog) {
  World world({1, 1, 1, 1});
  AsyncRoundRobinPolicy policy;
  const auto first = policy.select({}, world.context(2));
  EXPECT_EQ(first, (std::vector<object::ObjectId>{0, 1}));
  const auto second = policy.select({}, world.context(2));
  EXPECT_EQ(second, (std::vector<object::ObjectId>{2, 3}));
  const auto third = policy.select({}, world.context(2));
  EXPECT_EQ(third, (std::vector<object::ObjectId>{0, 1}));
}

TEST(AsyncRoundRobin, RequiresBudget) {
  World world({1});
  AsyncRoundRobinPolicy policy;
  EXPECT_THROW(policy.select({}, world.context(-1)), std::invalid_argument);
}

TEST(AsyncRoundRobin, NeverExceedsCatalogInOneTick) {
  World world({1, 1});
  AsyncRoundRobinPolicy policy;
  const auto selected = policy.select({}, world.context(100));
  EXPECT_EQ(selected.size(), 2u);
}

TEST(AsyncRefreshUpdated, DownloadsEverythingStale) {
  World world({1, 1, 1});
  world.cache_fresh(0);
  world.cache_fresh(1);
  world.servers.apply_update(1, 1);
  AsyncRefreshUpdatedPolicy policy;
  const auto selected = policy.select({}, world.context(-1, 1));
  // Object 0 fresh; object 1 stale; object 2 never cached.
  EXPECT_FALSE(contains(selected, 0));
  EXPECT_TRUE(contains(selected, 1));
  EXPECT_TRUE(contains(selected, 2));
}

TEST(DownloadAll, ReturnsDistinctRequested) {
  World world({1, 1});
  DownloadAllPolicy policy;
  const auto selected = policy.select(requests_for({1, 1, 0}), world.context());
  EXPECT_EQ(selected.size(), 2u);
}

TEST(CacheOnly, NeverDownloads) {
  World world({1});
  CacheOnlyPolicy policy;
  EXPECT_TRUE(policy.select(requests_for({0}), world.context()).empty());
}

TEST(PolicyFactory, KnowsEveryName) {
  for (const char* name :
       {"on-demand-knapsack", "knapsack", "on-demand-knapsack-greedy",
        "on-demand-lowest-recency", "on-demand-stale-only",
        "async-round-robin", "async-refresh-updated", "download-all",
        "cache-only"}) {
    EXPECT_NE(make_policy(name), nullptr) << name;
  }
  EXPECT_THROW(make_policy("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace mobi::core
