// Google-benchmark microbenchmarks for the cache layer: unbounded cache
// operations, bounded-cache admission under each replacement policy, the
// fleets' client cache (reads and admits, and a report that lists every
// object), and the invalidation-report cut a fleet cell makes.
//
//   $ ./micro_cache --benchmark_filter=ClientCache --benchmark_min_time=0.01
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

void BM_CacheRefresh(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::Cache store(n, cache::make_harmonic_decay());
  const server::FetchResult fetched{1, 0, 1};
  std::size_t i = 0;
  for (auto _ : state) {
    store.refresh(object::ObjectId(i++ % n), fetched, 0);
  }
}
BENCHMARK(BM_CacheRefresh)->Range(256, 16384);

void BM_CacheRecencyLookup(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::Cache store(n, cache::make_harmonic_decay());
  for (object::ObjectId id = 0; id < n; id += 2) {
    store.refresh(id, server::FetchResult{1, 0, 1}, 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.recency_or_zero(object::ObjectId(i++ % n)));
  }
}
BENCHMARK(BM_CacheRecencyLookup)->Range(256, 16384);

void BM_BoundedCacheAdmit(benchmark::State& state) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(2048, 1, 8, rng);
  const cache::ReplacementPolicy policies[] = {
      cache::lru_policy(), cache::lfu_policy(), cache::size_aware_policy(),
      cache::recency_profit_policy()};
  const auto& policy = policies[std::size_t(state.range(0))];
  cache::BoundedCache store(catalog, cache::make_harmonic_decay(), 512,
                            policy);
  std::size_t i = 0;
  sim::Tick t = 0;
  for (auto _ : state) {
    store.admit(object::ObjectId((i += 37) % 2048), t++);
  }
  state.SetLabel(std::string(policy.name));
}
BENCHMARK(BM_BoundedCacheAdmit)->DenseRange(0, 3);

// The client cache every fleet cell holds: 20 units of LRU over a
// 200-object catalog of 1-8-unit objects, about four residents at a time.
constexpr std::size_t kClientObjects = 200;
constexpr object::Units kClientUnits = 20;

cache::BoundedCache client_cache(const object::Catalog& catalog) {
  return cache::BoundedCache(catalog, cache::make_harmonic_decay(),
                             kClientUnits, cache::lru_policy());
}

// One client request as a cell serves it: a local read, and on a miss the
// copy the base station relays is admitted. Ids are drawn zipf(1.0), the
// cells' access pattern, ahead of the loop.
void BM_ClientCacheReadAdmit(benchmark::State& state) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kClientObjects, 1, 8, rng);
  auto store = client_cache(catalog);
  const auto access = workload::make_zipf_access(kClientObjects, 1.0);
  std::vector<object::ObjectId> ids(4096);
  for (auto& id : ids) id = access->sample(rng);
  std::size_t i = 0;
  sim::Tick t = 0;
  for (auto _ : state) {
    const object::ObjectId id = ids[i++ % ids.size()];
    const auto local = store.read(id, t);
    benchmark::DoNotOptimize(local);
    if (!local) benchmark::DoNotOptimize(store.admit(id, t));
    ++t;
  }
}
BENCHMARK(BM_ClientCacheReadAdmit);

// A report that lists every object, which is what a fleet client hears:
// objects update every 4 ticks and reports cover 5, so each window holds
// every id. Reapplying one window is an overlap, never a sleeper gap.
void BM_ClientCacheApplyFullReport(benchmark::State& state) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kClientObjects, 1, 8, rng);
  auto store = client_cache(catalog);
  for (object::ObjectId id = 0; id < kClientObjects; id += 37) {
    store.admit(id, 0);
  }
  const cache::InvalidationReport report{
      0, 5, std::vector<std::uint32_t>(kClientObjects, 1)};
  cache::InvalidationListener listener;
  for (auto _ : state) {
    benchmark::DoNotOptimize(listener.apply(report, store));
  }
  state.counters["residents"] = double(store.residents().size());
}
BENCHMARK(BM_ClientCacheApplyFullReport);

// The cut a fleet cell makes: a 200-object pool whose objects update every
// 4 ticks, cut into a report every 5. One iteration is one report period,
// its five ticks of updates and then the cut.
void BM_InvalidationCut(benchmark::State& state) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kClientObjects, 1, 8, rng);
  server::ServerPool servers(catalog, 1);
  const auto updates = workload::make_periodic_staggered(kClientObjects, 4);
  cache::InvalidationReporter reporter(servers);
  cache::InvalidationReport report;
  sim::Tick t = 0;
  for (auto _ : state) {
    for (const sim::Tick end = t + 5; t < end; ++t) {
      updates->for_each_updated(
          t, [&](object::ObjectId id) { servers.apply_update(id, t); });
    }
    reporter.cut(t, report);
    benchmark::DoNotOptimize(report.updates.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InvalidationCut);

}  // namespace

BENCHMARK_MAIN();
