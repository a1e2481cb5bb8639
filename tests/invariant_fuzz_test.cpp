// Randomized end-to-end invariant checks: for every policy, across random
// catalogs/workloads/budgets, the system must uphold its contracts —
// budgets respected, on-demand policies only fetch requested objects,
// scores bounded, downlink conserves data, cache state consistent.
//
// The chaos variant repeats the sweep with a randomized nonzero
// sim::FaultPlan wired through a net::FaultInjector (fetch failures and
// slowdowns, downlink drops, server outage windows) plus a bounded retry
// budget: every invariant must survive injected faults, with the single
// relaxation that retry successes may fetch objects requested on earlier
// ticks.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "core/base_station.hpp"
#include "net/fault_injector.hpp"
#include "object/builders.hpp"
#include "sim/fault_plan.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace mobi::core {
namespace {

struct FuzzParam {
  const char* policy;
  bool request_driven;   // may only fetch requested objects
  bool needs_budget;     // cannot run with unlimited budget
  bool respects_budget;  // download-all deliberately ignores the budget
};

// Without this, gtest prints a FuzzParam as its raw bytes, policy pointer
// included, and ctest bakes them into test names that change per build.
void PrintTo(const FuzzParam& param, std::ostream* os) {
  *os << param.policy << " request_driven=" << param.request_driven
      << " needs_budget=" << param.needs_budget
      << " respects_budget=" << param.respects_budget;
}

class PolicyFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(PolicyFuzzTest, InvariantsHoldUnderRandomWorkloads) {
  const FuzzParam param = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 7919);
    const std::size_t n = std::size_t(rng.uniform_int(5, 60));
    const object::Catalog catalog =
        object::make_random_catalog(n, 1, rng.uniform_int(1, 8), rng);
    server::ServerPool servers(catalog, std::size_t(rng.uniform_int(1, 3)));

    BaseStationConfig config;
    config.download_budget =
        param.needs_budget || rng.bernoulli(0.7)
            ? object::Units(rng.uniform_int(0, 40))
            : -1;
    config.downlink_capacity = rng.uniform_int(1, 50);
    // About three runs in ten see transient fetch faults.
    sim::FaultPlan plan;
    plan.fetch_failure_rate = rng.bernoulli(0.3) ? 0.2 : 0.0;
    plan.seed = seed;
    net::FaultInjector injector(plan);
    BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                        std::make_unique<ReciprocalScorer>(),
                        make_policy(param.policy), config);
    station.set_fault_injector(&injector);

    workload::RequestGenerator generator(
        workload::make_zipf_access(n, rng.uniform(0.0, 1.5)),
        workload::UniformTarget{0.3, 1.0},
        std::size_t(rng.uniform_int(0, 30)), rng.split());
    auto updates = workload::make_periodic_staggered(
        n, sim::Tick(rng.uniform_int(1, 6)));

    object::Units enqueued_bound = 0;
    for (sim::Tick t = 0; t < 40; ++t) {
      station.apply_updates(*updates, t);
      const auto batch = generator.next_batch();
      std::set<object::ObjectId> requested;
      for (const auto& request : batch) requested.insert(request.object);

      const std::size_t resident_before = station.cache().resident();
      const auto result = station.process_batch(batch, t);

      // Budget respected (in units, when finite).
      if (param.respects_budget && config.download_budget >= 0) {
        ASSERT_LE(result.units_downloaded, config.download_budget)
            << param.policy << " seed " << seed;
      }
      // Request-driven policies never grow the cache beyond the requested
      // set in a tick.
      if (param.request_driven) {
        ASSERT_LE(station.cache().resident(),
                  resident_before + requested.size());
      }
      // Score and recency sums bounded by the batch size.
      ASSERT_GE(result.score_sum, 0.0);
      ASSERT_LE(result.score_sum, double(batch.size()) + 1e-9);
      ASSERT_GE(result.recency_sum, 0.0);
      ASSERT_LE(result.recency_sum, double(batch.size()) + 1e-9);
      // Downloaded units is consistent with the count of objects.
      if (result.objects_downloaded == 0) {
        ASSERT_EQ(result.units_downloaded, 0);
      } else {
        ASSERT_GE(result.units_downloaded,
                  object::Units(result.objects_downloaded));
      }
      // Downlink conservation: delivered never exceeds capacity per tick,
      // and total delivered never exceeds what was enqueued.
      ASSERT_LE(result.downlink_delivered, config.downlink_capacity);
      enqueued_bound += object::Units(batch.size()) * 8;  // loose upper bound
      ASSERT_LE(station.downlink().delivered_total() +
                    station.downlink().queued(),
                enqueued_bound + 1);
    }
    // Cache internal consistency: resident count matches live entries.
    std::size_t live = 0;
    for (object::ObjectId id = 0; id < n; ++id) {
      if (station.cache().contains(id)) {
        ++live;
        ASSERT_GT(*station.cache().recency(id), 0.0);
        ASSERT_LE(*station.cache().recency(id), 1.0);
      }
    }
    ASSERT_EQ(live, station.cache().resident());
  }
}

TEST_P(PolicyFuzzTest, InvariantsHoldUnderChaosFaultPlans) {
  const FuzzParam param = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 104729);
    const std::size_t n = std::size_t(rng.uniform_int(5, 60));
    const object::Catalog catalog =
        object::make_random_catalog(n, 1, rng.uniform_int(1, 8), rng);
    const std::size_t server_count = std::size_t(rng.uniform_int(1, 4));
    server::ServerPool servers(catalog, server_count);

    // A nonzero plan touching every fault class the station pipeline
    // consults, at rates up to the resilience target of ~30%.
    sim::FaultPlan plan;
    plan.fetch_failure_rate = rng.uniform(0.05, 0.3);
    plan.fetch_slowdown_rate = rng.uniform(0.0, 0.3);
    plan.fetch_slowdown_factor = rng.uniform(1.0, 8.0);
    plan.downlink_drop_rate = rng.uniform(0.0, 0.3);
    plan.server_outage_rate = rng.uniform(0.0, 0.2);
    plan.server_outage_ticks = sim::Tick(rng.uniform_int(1, 6));
    plan.seed = rng.next();
    net::FaultInjector injector(plan, server_count);

    BaseStationConfig config;
    config.download_budget =
        param.needs_budget || rng.bernoulli(0.7)
            ? object::Units(rng.uniform_int(0, 40))
            : -1;
    config.downlink_capacity = rng.uniform_int(1, 50);
    config.fetch_retry_limit = std::size_t(rng.uniform_int(0, 3));
    BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                        std::make_unique<ReciprocalScorer>(),
                        make_policy(param.policy), config);
    station.set_fault_injector(&injector);
    servers.set_fault_injector(&injector);

    workload::RequestGenerator generator(
        workload::make_zipf_access(n, rng.uniform(0.0, 1.5)),
        workload::UniformTarget{0.3, 1.0},
        std::size_t(rng.uniform_int(0, 30)), rng.split());
    auto updates = workload::make_periodic_staggered(
        n, sim::Tick(rng.uniform_int(1, 6)));

    RunTotals totals;
    for (sim::Tick t = 0; t < 40; ++t) {
      station.apply_updates(*updates, t);
      const auto batch = generator.next_batch();
      std::set<object::ObjectId> requested;
      for (const auto& request : batch) requested.insert(request.object);

      const std::size_t resident_before = station.cache().resident();
      const auto result = station.process_batch(batch, t);
      totals.add(result);

      // Budget respected even with faults: the retry phase spends the
      // budget first and the policy only sees the remainder.
      if (param.respects_budget && config.download_budget >= 0) {
        ASSERT_LE(result.units_downloaded, config.download_budget)
            << param.policy << " seed " << seed;
      }
      // Request-driven cache growth, relaxed by retry successes: a retry
      // refreshes an object requested on an earlier tick, so it may add
      // a resident entry beyond this tick's request set.
      if (param.request_driven) {
        ASSERT_LE(station.cache().resident(),
                  resident_before + requested.size() + result.retry_successes);
      }
      // Fault accounting is internally consistent.
      ASSERT_LE(result.retry_successes + result.retry_exhausted,
                result.retries);
      ASSERT_LE(result.degraded_serves, result.requests);
      if (config.fetch_retry_limit == 0) {
        ASSERT_EQ(result.retries, 0u);
        ASSERT_EQ(station.retry_queue_depth(), 0u);
      }
      // Scores stay bounded under degradation.
      ASSERT_GE(result.score_sum, 0.0);
      ASSERT_LE(result.score_sum, double(batch.size()) + 1e-9);
      ASSERT_GE(result.recency_sum, 0.0);
      ASSERT_LE(result.recency_sum, double(batch.size()) + 1e-9);
      ASSERT_LE(result.downlink_delivered, config.downlink_capacity);
    }
    // Downlink conservation under mid-flight drops, exact to the unit.
    ASSERT_EQ(station.downlink().enqueued_total(),
              station.downlink().delivered_total() +
                  station.downlink().queued() +
                  station.downlink().dropped_total())
        << param.policy << " seed " << seed;
    // The station's failure count covers every injected fetch failure
    // (outage windows may add more on top).
    ASSERT_GE(totals.failed_fetches, injector.counters().fetch_failures);
    ASSERT_EQ(injector.counters().downlink_drops > 0,
              station.downlink().dropped_total() > 0);
    // Cache internal consistency survives chaos.
    std::size_t live = 0;
    for (object::ObjectId id = 0; id < n; ++id) {
      if (station.cache().contains(id)) {
        ++live;
        ASSERT_GT(*station.cache().recency(id), 0.0);
        ASSERT_LE(*station.cache().recency(id), 1.0);
      }
    }
    ASSERT_EQ(live, station.cache().resident());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyFuzzTest,
    ::testing::Values(
        FuzzParam{"on-demand-knapsack", true, false, true},
        FuzzParam{"on-demand-knapsack-greedy", true, false, true},
        FuzzParam{"on-demand-lowest-recency", true, false, true},
        FuzzParam{"on-demand-stale-only", true, false, true},
        FuzzParam{"on-demand-latency-aware", true, false, true},
        FuzzParam{"adaptive-knapsack", true, false, true},
        FuzzParam{"async-round-robin", false, true, true},
        FuzzParam{"async-refresh-updated", false, false, true},
        FuzzParam{"download-all", true, false, false},
        FuzzParam{"cache-only", true, false, true}),
    [](const ::testing::TestParamInfo<FuzzParam>& param_info) {
      std::string name = param_info.param.policy;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mobi::core
