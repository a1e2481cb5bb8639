// Zero-allocation regression guard for the per-tick hot path
// (docs/performance.md). Global counting operator new hooks observe every
// heap allocation in the process; after a warm-up phase grows all the
// retained scratch buffers (candidate builder, knapsack workspace, fetch
// and transfer lists, downlink queue) to their high-water sizes, further
// steady-state BaseStation::process_batch calls must perform *zero*
// allocations. Runs under the `perf` ctest label.
//
// The downlink only reaches an allocation-free steady state when it
// drains every tick (a persistent backlog grows the pending queue without
// bound), so the stations here get ample downlink capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cache/decay.hpp"
#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "client/cell.hpp"
#include "coop/cooperative.hpp"
#include "core/base_station.hpp"
#include "core/knapsack_parallel.hpp"
#include "exp/mobility_fleet.hpp"
#include "exp/multi_cell.hpp"
#include "exp/soak.hpp"
#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/window.hpp"
#include "object/builders.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, std::size_t(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, std::size_t(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mobi {
namespace {

// Runs the BM_BaseStationTick-shaped workload: pre-generated zipf batches,
// a few server updates per tick so the policy always has real work, and
// asserts that `measured_passes` over the batch pool allocate nothing
// after `warmup_passes` have grown every buffer.
void run_steady_state(const std::string& policy,
                      const sim::FaultPlan* faults = nullptr,
                      std::size_t fetch_retry_limit = 0,
                      obs::RequestTracer* tracer = nullptr) {
  SCOPED_TRACE(policy +
               (faults ? (faults->empty() ? " +idle-injector"
                                          : " +active-faults")
                       : "") +
               (tracer ? " +tracer" : ""));
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kBatch = 128;
  constexpr int kUpdatesPerTick = 8;

  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kObjects, 1, 8, rng);
  server::ServerPool servers(catalog, faults ? 4 : 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(kObjects) / 4;
  config.downlink_capacity = 1 << 20;  // drains every tick (see header note)
  config.fetch_retry_limit = fetch_retry_limit;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(policy), config);
  // The injector lives outside the measured region; attaching it must not
  // add steady-state allocations — retry queue and fault scratch are
  // grown to catalog size up front, and draws are allocation-free.
  std::unique_ptr<net::FaultInjector> injector;
  if (faults) {
    injector = std::make_unique<net::FaultInjector>(*faults,
                                                    servers.server_count());
    station.set_fault_injector(injector.get());
    servers.set_fault_injector(injector.get());
  }
  if (tracer) station.set_request_tracer(tracer);

  workload::RequestGenerator generator(
      workload::make_zipf_access(kObjects, 1.0), workload::ConstantTarget{1.0},
      kBatch, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 32; ++b) batches.push_back(generator.next_batch());
  // Pre-drawn update ids: the measured region must not touch the id pool.
  std::vector<object::ObjectId> update_ids;
  for (std::size_t i = 0; i < batches.size() * kUpdatesPerTick; ++i) {
    update_ids.push_back(
        object::ObjectId(rng.uniform_int(0, std::int64_t(kObjects) - 1)));
  }

  sim::Tick now = 0;
  const auto one_pass = [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (int u = 0; u < kUpdatesPerTick; ++u) {
        station.on_server_update(update_ids[b * kUpdatesPerTick + u], now);
      }
      station.process_batch(batches[b], now);
      ++now;
    }
  };

  for (int pass = 0; pass < 2; ++pass) one_pass();  // warm-up
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < 3; ++pass) one_pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
}

TEST(AllocRegression, HooksObserveAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new std::vector<int>(100);
  delete p;
  EXPECT_GT(g_allocations.load(), before);
}

TEST(AllocRegression, KnapsackPolicySteadyStateIsAllocationFree) {
  run_steady_state("on-demand-knapsack");
}

TEST(AllocRegression, GreedyPolicySteadyStateIsAllocationFree) {
  run_steady_state("on-demand-knapsack-greedy");
}

TEST(AllocRegression, ParallelKnapsackEngineSteadyStateIsAllocationFree) {
  // The engine starts its pool at construction; each solve's phase 1 is
  // one ThreadPool::run over grow-only scratch and per-slot deques, so
  // once the engine and the workspace have seen the largest instance,
  // further solves allocate nothing. The instances are station-sized
  // (60-90 items, well past the serial cutoff) and never fit whole, so
  // every solve reaches the branch-and-bound.
  util::Rng rng(5);
  std::vector<std::vector<core::KnapsackItem>> instances(16);
  for (auto& items : instances) {
    items.resize(std::size_t(rng.uniform_int(60, 90)));
    for (auto& item : items) {
      item.size = object::Units(rng.uniform_int(1, 8));
      item.profit = 0.5 * double(rng.uniform_int(1, 40));
    }
  }
  constexpr object::Units kCapacity = 64;
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::ParallelBnbConfig config;
    config.threads = threads;
    core::ParallelKnapsackEngine engine(config);
    core::KnapsackWorkspace ws;
    core::KnapsackSolution out;
    const auto one_pass = [&] {
      for (const auto& items : instances) {
        engine.solve(items, kCapacity, ws, out);
      }
    };
    one_pass();  // warm-up
    const std::uint64_t runs_before = engine.stats().bnb_runs;
    const std::uint64_t before = g_allocations.load();
    for (int pass = 0; pass < 3; ++pass) one_pass();
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " steady-state heap allocations";
    EXPECT_EQ(engine.stats().bnb_runs - runs_before, 3 * instances.size());
  }
}

TEST(AllocRegression, IdleInjectorSteadyStateIsAllocationFree) {
  // An attached injector with an empty plan must be indistinguishable
  // from no injector on the allocation axis too.
  const sim::FaultPlan empty;
  run_steady_state("on-demand-knapsack", &empty);
}

TEST(AllocRegression, AttachedTracerSteadyStateIsAllocationFree) {
  // A RequestTracer with a deliberately tiny event buffer: warm-up fills
  // the log, and from then on every record drops (a counter bump, no
  // growth). The downlink's parallel timestamp queue reaches its own
  // high-water mark in warm-up, so the traced steady state — sampling
  // decisions, histogram observes, drop accounting — allocates nothing.
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  plan.downlink_drop_rate = 0.1;
  obs::RequestTracer::Config config;
  config.sample_every = 2;
  config.event_capacity = 512;
  obs::RequestTracer tracer(config);
  obs::MetricsRegistry registry;
  tracer.register_histograms(&registry);
  run_steady_state("on-demand-knapsack", &plan, 3, &tracer);
  EXPECT_EQ(tracer.log().size(), tracer.log().capacity());
  EXPECT_GT(tracer.log().dropped(), 0u);
  EXPECT_GT(registry.find_histogram("lat.served_recency_gap")->total(), 0u);
}

TEST(AllocRegression, ActiveFaultPlanSteadyStateIsAllocationFree) {
  // Even with live fetch failures, slowdowns, drops, outages and a retry
  // budget, the retry queue and fault scratch reach a high-water mark in
  // warm-up and the measured ticks allocate nothing.
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  plan.fetch_slowdown_rate = 0.1;
  plan.downlink_drop_rate = 0.1;
  plan.server_outage_rate = 0.05;
  plan.server_outage_ticks = 4;
  run_steady_state("on-demand-knapsack", &plan, 3);
}

TEST(AllocRegression, CoherentCoopClusterSteadyStateIsAllocationFree) {
  // Steady-state coherence traffic — sharer-set updates, invalidations,
  // propagations, lease sweeps, peer-tier candidate pricing and peer
  // fetches — runs on the directory's preallocated vectors and the
  // cells' retained batch/fetch scratch, so ticking a coherent cluster
  // allocates nothing once every buffer has hit its high-water mark.
  for (const coop::ConsistencyMode mode :
       {coop::ConsistencyMode::kInvalidate, coop::ConsistencyMode::kPropagate,
        coop::ConsistencyMode::kLease}) {
    SCOPED_TRACE(coop::consistency_mode_name(mode));
    coop::CoopConfig config;
    config.cell_count = 3;
    config.object_count = 48;
    config.requests_per_tick_per_cell = 16;
    config.update_period = 2;  // protocol fires on half the ticks
    config.warmup_ticks = 4;   // steady state measures in accounting mode
    config.measure_ticks = 1 << 20;
    config.budget_per_cell = 20;
    config.coherence.enabled = true;
    config.coherence.mode = mode;
    config.coherence.lease_ticks = 3;
    config.seed = 23;
    coop::CoopCluster cluster(config);
    for (int t = 0; t < 40; ++t) cluster.tick();  // warm-up
    const std::uint64_t before = g_allocations.load();
    for (int t = 0; t < 20; ++t) cluster.tick();
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " steady-state heap allocations";
    // The measured ticks actually carried protocol traffic.
    const auto& r = cluster.result();
    EXPECT_GT(r.invalidations + r.propagations + r.lease_expiries, 0u);
  }
}

TEST(AllocRegression, ThreadPoolRunIsAllocationFree) {
  // The fork-join publishes one job from the caller's stack: no task
  // objects, futures or queue nodes, whether the workers are spinning or
  // parked when it lands (the pauses outlast their spin, so some calls
  // must wake them). parallel_for adds only a std::function whose small
  // trivially-copyable capture fits its inline buffer.
  util::ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  const auto add = [&sum](std::size_t i) { sum += i; };
  const auto one_call = [&](std::size_t call) {
    pool.run(16, add);
    util::parallel_for(&pool, 0, 16, [&sum, call](std::size_t i) {
      sum += i + call;
    });
  };
  for (std::size_t call = 0; call < 8; ++call) one_call(call);  // warm-up
  const std::uint64_t before = g_allocations.load();
  for (std::size_t call = 0; call < 200; ++call) {
    if (call % 50 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    one_call(call);
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << (after - before) << " allocations in 400 calls";
  EXPECT_GT(sum.load(), 0u);
}

TEST(AllocRegression, MobilityFleetSteadyStateIsAllocationFree) {
  // The fleet path under *active* mobility, serial and on a pool of two:
  // clients keep crossing cells, rosters shift, handoff windows open and
  // close, payloads sit in flight, and every barrier appends a stats row
  // — all on capacity
  // reserved in the constructor (rosters/batches/in-flight to the fleet
  // population, rows to the tick count). The station-side scratch
  // (candidate builder, knapsack workspace, downlink queue) grows with
  // the largest batch a cell has ever seen, and under mobility that
  // high-water mark is population-dependent — so the warm-up uses a
  // trace that parks the ENTIRE fleet in each cell in turn, forcing
  // every station through the global worst case (a full-population
  // batch) before measurement starts. The measured churn phase keeps
  // clients hopping every tick at far smaller per-cell populations;
  // those steady-state ticks must allocate nothing on either path.
  constexpr std::uint32_t kCells = 3;
  constexpr std::uint32_t kClients = 12;  // 4 per cell at construction
  std::vector<sim::TraceHop> trace;
  for (std::uint32_t cell = 0; cell < kCells; ++cell) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      trace.push_back({sim::Tick(5 + 10 * cell), c, cell});
    }
  }
  for (std::uint32_t c = 0; c < kClients; ++c) {
    trace.push_back({35, c, c % kCells});  // spread back out
  }
  for (sim::Tick t = 40; t < 120; ++t) {  // rolling churn, one hop per tick
    const auto client = std::uint32_t(t % kClients);
    // Rotate the target each lap so every hop is a genuine crossing.
    trace.push_back({t, client,
                     std::uint32_t((t / kClients + client) % kCells)});
  }

  exp::MultiCellConfig config;
  config.cell_count = kCells;
  config.cell.client_count = kClients / kCells;
  config.cell.object_count = 24;
  config.cell.ticks = 120;
  config.cell.base_budget = 8;
  config.mobility.mode = sim::MobilityMode::kTraceDriven;
  config.mobility.trace = trace;
  config.mobility.handoff_ticks = 2;
  config.seed = 11;
  util::ThreadPool two(2);
  util::ThreadPool* const pools[] = {nullptr, &two};
  for (util::ThreadPool* pool : pools) {
    SCOPED_TRACE(pool ? "pool of 2" : "serial");
    exp::MobilityFleet fleet(config);
    for (int t = 0; t < 60; ++t) fleet.step(pool);  // warm-up: mass dwells
    const std::uint64_t warm_crossings = fleet.stats().crossings;
    const std::uint64_t before = g_allocations.load();
    while (!fleet.done()) fleet.step(pool);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " steady-state heap allocations";
    // The measured ticks actually carried mobility traffic.
    EXPECT_GT(fleet.stats().crossings, warm_crossings);
    EXPECT_GT(fleet.stats().deliveries, 0u);
  }

  // The random-waypoint leg, as the perf ledger runs the fleet: model
  // blocks stepped beside the cells, predictive residency probes reading
  // the published model state, engines applying queued roster moves. No
  // trace forces the high-water marks here, so the warm-up is long: 400
  // ticks still leave a few growth allocations at some seeds.
  exp::MultiCellConfig waypoint;
  waypoint.cell_count = 4;
  waypoint.cell.client_count = 6;
  waypoint.cell.object_count = 24;
  waypoint.cell.ticks = 2400;
  waypoint.cell.base_budget = 8;
  waypoint.mobility.mode = sim::MobilityMode::kRandomWaypoint;
  waypoint.mobility.speed_lo = 0.2;
  waypoint.mobility.speed_hi = 0.6;
  waypoint.mobility.pause_lo = 0;
  waypoint.mobility.pause_hi = 2;
  waypoint.mobility.handoff_ticks = 2;
  waypoint.mobility_predictive = true;
  for (const std::uint64_t seed : {1u, 2u, 3u, 11u, 42u}) {
    waypoint.seed = seed;
    for (util::ThreadPool* pool : pools) {
      SCOPED_TRACE(std::string("waypoint seed ") + std::to_string(seed) +
                   (pool ? ", pool of 2" : ", serial"));
      exp::MobilityFleet fleet(waypoint);
      for (int t = 0; t < 2000; ++t) fleet.step(pool);
      const std::uint64_t warm_crossings = fleet.stats().crossings;
      const std::uint64_t before = g_allocations.load();
      while (!fleet.done()) fleet.step(pool);
      const std::uint64_t after = g_allocations.load();
      EXPECT_EQ(after - before, 0u)
          << (after - before) << " steady-state heap allocations";
      EXPECT_GT(fleet.stats().crossings, warm_crossings);
    }
  }
}

TEST(AllocRegression, ClientCacheAllocationFreeFromConstruction) {
  // A client cache reserves its resident list at construction to the
  // most objects its capacity can hold, so it allocates nothing from the
  // first admit on: no warm-up here, and a reserve below the 20-entry
  // bound shows up as growth while filling.
  const auto catalog = object::make_uniform_catalog(200, 1);
  cache::BoundedCache cache(catalog, cache::make_harmonic_decay(), 20,
                            cache::lru_policy());
  cache::InvalidationListener listener;
  // Reports are built before counting; the listener only reads them.
  const std::vector<std::uint32_t> quiet(200);
  cache::InvalidationReport first{0, 10, quiet}, next{10, 20, quiet},
      late{30, 40, quiet};
  for (object::ObjectId id = 0; id < 200; id += 3) {
    first.updates[id] = 1;
    next.updates[id] = 2;
  }
  const std::uint64_t before = g_allocations.load();
  for (object::ObjectId id = 0; id < 20; ++id) cache.admit(id, 0);
  const std::size_t peak = cache.residents().size();
  listener.apply(first, cache);
  sim::Tick t = 1;
  for (object::ObjectId id = 20; id < 200; ++id, ++t) {
    cache.admit(id, t);  // a full cache: each admit evicts
    cache.read(object::ObjectId(id - 5), t);
  }
  listener.apply(next, cache);
  listener.apply(late, cache);  // a missed window: the sleeper rule fires
  for (object::ObjectId id = 0; id < 40; ++id, ++t) cache.admit(id, t);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations from the first admit";
  EXPECT_EQ(peak, 20u);
  EXPECT_EQ(cache.residents().size(), 20u);
  EXPECT_GE(cache.evictions(), 180u);
  EXPECT_EQ(listener.cache_drops(), 1u);
}

TEST(AllocRegression, ClientCacheConstructionMakesOneAllocation) {
  // The fleets' client shape: 20 units over 200 objects of 1-8 units. The
  // resident list is the cache's only storage; nothing is sized by the
  // catalog.
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(200, 1, 8, rng);
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  const cache::ReplacementPolicy policy = cache::lru_policy();
  const std::uint64_t before = g_allocations.load();
  const cache::BoundedCache cache(catalog, decay, 20, policy);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 1u)
      << (after - before) << " heap allocations to construct";
  EXPECT_EQ(cache.capacity(), 20);
}

TEST(AllocRegression, InvalidationCutsAllocationFreeFromConstruction) {
  // The fleets' cell shape: a 200-object pool updated every 4 ticks, cut
  // into a report every 5 and heard by 40 client caches. The reporter's
  // versions and the report's counts are sized at construction and the
  // listeners index the counts, so nothing allocates from the first tick.
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(200, 1, 8, rng);
  server::ServerPool servers(catalog, 1);
  const auto updates = workload::make_periodic_staggered(200, 4);
  cache::InvalidationReporter reporter(servers);
  cache::InvalidationReport report{0, 0, std::vector<std::uint32_t>(200)};
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  std::vector<cache::BoundedCache> caches;
  caches.reserve(40);
  for (int c = 0; c < 40; ++c) {
    caches.emplace_back(catalog, decay, 20, cache::lru_policy());
  }
  std::vector<cache::InvalidationListener> listeners(caches.size());
  std::int64_t decayed = 0;
  const std::uint64_t before = g_allocations.load();
  for (sim::Tick t = 0; t < 400; ++t) {
    if (t > 0 && t % 5 == 0) {
      reporter.cut(t, report);
      for (std::size_t c = 0; c < caches.size(); ++c) {
        decayed += listeners[c].apply(report, caches[c]);
      }
    }
    updates->for_each_updated(
        t, [&servers, t](object::ObjectId id) { servers.apply_update(id, t); });
    for (std::size_t c = 0; c < caches.size(); ++c) {
      caches[c].admit(object::ObjectId((std::size_t(t) * 7 + c * 13) % 200), t);
    }
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations from construction";
  EXPECT_GT(decayed, 0);
  EXPECT_EQ(listeners[0].reports_applied(), 79u);
}

TEST(AllocRegression, ShardedCellSteadyStateIsAllocationFree) {
  // One sharded cell as run_cell steps it, under live fetch failures,
  // retries and downlink drops: report cuts and broadcasts, the
  // client loop, process_batch and the stores into client caches all run
  // on scratch the engine reserves to its population plus the station's
  // retained buffers. After warm-up grows those to their high-water
  // marks, the measured ticks allocate nothing.
  client::CellConfig config;
  config.object_count = 48;
  config.client_count = 16;
  config.base_budget = 12;
  config.report_period = 3;
  config.fetch_retry_limit = 3;
  config.faults.fetch_failure_rate = 0.2;
  config.faults.downlink_drop_rate = 0.1;
  config.seed = 7;
  util::Rng rng(config.seed);
  const auto catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  const auto access = exp::make_access(config.access, config.object_count,
                                       config.zipf_alpha);
  std::vector<client::MobileClient> clients;
  clients.reserve(config.client_count);
  std::vector<std::uint32_t> roster;
  for (std::uint32_t i = 0; i < config.client_count; ++i) {
    clients.emplace_back(i, catalog, config.client);
    roster.push_back(i);
  }
  std::vector<client::CellEngine::Credit> credited(clients.size());
  client::CellEngine engine(config, catalog, *access, clients, credited,
                            std::move(roster), rng);
  sim::Tick t = 0;
  for (; t < 300; ++t) engine.tick(t);  // warm-up
  const std::uint64_t warm_retries = engine.result().retries;
  const std::uint64_t before = g_allocations.load();
  for (; t < 500; ++t) engine.tick(t);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  // The measured ticks actually retried failed fetches.
  EXPECT_GT(engine.result().retries, warm_retries);
}

TEST(AllocRegression, StreamingSinkSteadyStateIsAllocationFree) {
  // The inline-flush JsonlTraceSink reserves both event halves and its
  // byte buffer at construction; steady-state write() is a push into
  // reserved storage and flushes format lines straight into the byte
  // buffer and fwrite it (stdio buffers are not operator-new traffic).
  // The values include every number shape, among them texts too long
  // for a small-string buffer and the non-finite ones.
  obs::JsonlTraceSink sink("/dev/null", {256, /*background_flush=*/false});
  const auto value = [](std::uint32_t i) {
    switch (i % 5) {
      case 0: return double(i % 7);
      case 1: return double(i) / 3.0;
      case 2: return -1.7976931348623157e308;
      case 3: return std::numeric_limits<double>::quiet_NaN();
      default: return std::numeric_limits<double>::infinity();
    }
  };
  const auto one_lap = [&sink, &value] {
    for (std::uint32_t i = 0; i < 2048; ++i) {
      sink.write({sim::Tick(i), obs::EventKind(i % 13), i % 3, i, i % 7,
                  value(i)});
    }
  };
  one_lap();  // warm-up past several flush boundaries
  const std::uint64_t before = g_allocations.load();
  one_lap();
  sink.flush();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";
  EXPECT_EQ(sink.streamed_events(), 4096u);
  EXPECT_EQ(sink.flushed_events(), 4096u);
}

TEST(AllocRegression, ObservedStationSteadyStateIsAllocationFree) {
  // Every observer at once, wired as the perf ledger's station_observed
  // workload wires them: live station and server metrics sampled by a
  // reserved SeriesRecorder, a 1-in-16 RequestTracer with its latency
  // histograms, an inline-flush JSONL sink, tumbling windows, a phase
  // profiler with live prof.phase.* counters and an SLO monitor writing
  // to the sink. The recorder samples through bound pointers and the
  // sink formats into its fixed byte buffer, so the observed tick
  // allocates nothing.
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kBatch = 128;
  constexpr int kUpdatesPerTick = 8;
  constexpr sim::Tick kWindowTicks = 8;
  constexpr int kWarmupPasses = 4;
  constexpr int kMeasuredPasses = 3;

  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(kObjects, 1, 8, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(kObjects) / 4;
  config.downlink_capacity = 1 << 20;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);

  workload::RequestGenerator generator(
      workload::make_zipf_access(kObjects, 1.0),
      workload::UniformTarget{0.5, 1.0}, kBatch, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 16; ++b) batches.push_back(generator.next_batch());
  std::vector<object::ObjectId> update_ids;
  for (std::size_t i = 0; i < batches.size() * kUpdatesPerTick; ++i) {
    update_ids.push_back(
        object::ObjectId(rng.uniform_int(0, std::int64_t(kObjects) - 1)));
  }
  const sim::Tick total_ticks =
      sim::Tick(batches.size()) * (kWarmupPasses + kMeasuredPasses);

  obs::MetricsRegistry registry;
  station.set_metrics(&registry);
  servers.set_metrics(&registry);
  obs::SeriesRecorder recorder(registry);
  recorder.reserve(std::size_t(total_ticks));
  obs::RequestTracer tracer(obs::RequestTracer::Config{16, 1 << 10});
  tracer.register_histograms(&registry);
  station.set_request_tracer(&tracer);
  obs::JsonlTraceSink sink("/dev/null", {256, /*background_flush=*/false});
  tracer.log().set_sink(&sink);
  obs::PhaseProfiler profiler;
  profiler.attach_registry(&registry);
  obs::SloMonitor monitor(&registry, exp::default_soak_slos());
  monitor.set_sink(&sink);
  obs::WindowAggregator::Config window_config;
  window_config.window_ticks = kWindowTicks;
  window_config.frame_capacity = std::size_t(total_ticks / kWindowTicks) + 2;
  obs::WindowAggregator windows(registry, window_config);
  windows.set_listener(&monitor);
  windows.begin();
  station.set_profiler(&profiler);  // creates phases -> live counters

  sim::Tick now = 0;
  const auto one_pass = [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (int u = 0; u < kUpdatesPerTick; ++u) {
        station.on_server_update(update_ids[b * kUpdatesPerTick + u], now);
      }
      station.process_batch(batches[b], now);
      recorder.sample(now);
      windows.on_tick(now);
      ++now;
    }
  };

  for (int pass = 0; pass < kWarmupPasses; ++pass) one_pass();
  const std::uint64_t warm_flushes = sink.flushes();
  EXPECT_GE(warm_flushes, 4u);
  EXPECT_GE(windows.windows_closed(), 4u);
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < kMeasuredPasses; ++pass) one_pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";

  // The measured ticks exercised every observer.
  EXPECT_GT(sink.flushes(), warm_flushes);
  EXPECT_EQ(recorder.samples(), std::size_t(total_ticks));
  EXPECT_EQ(recorder.series("prof.phase.bs.select.calls").size(),
            std::size_t(total_ticks));
  EXPECT_EQ(recorder.series("bs.requests").back(),
            double(std::size_t(total_ticks) * kBatch));
  windows.finish();
  EXPECT_EQ(windows.windows_closed(), std::size_t(total_ticks / kWindowTicks));
  EXPECT_GT(monitor.evaluations(), 0u);
  EXPECT_GT(tracer.log().dropped(), 0u);  // the bounded log filled up
}

TEST(AllocRegression, WindowedProfiledSloSteadyStateIsAllocationFree) {
  // The full online-observability stack at once: live bs.* metrics, a
  // phase profiler with live prof.phase.* counters, a tumbling
  // WindowAggregator whose tiny ring wraps during warm-up, and an SLO
  // monitor evaluating (and alerting) on every closed frame. All of it
  // runs on storage preallocated at begin()/construction — frame
  // baselines, the closed-frame ring, breach-bit rings, trie nodes — so
  // the observed steady state must allocate exactly as much as the
  // unobserved one: nothing.
  constexpr std::size_t kObjects = 128;
  constexpr std::size_t kBatch = 64;
  constexpr int kUpdatesPerTick = 4;

  util::Rng rng(3);
  const auto catalog = object::make_random_catalog(kObjects, 1, 8, rng);
  server::ServerPool servers(catalog, 4);
  sim::FaultPlan plan;
  plan.fetch_failure_rate = 0.2;
  net::FaultInjector injector(plan, servers.server_count());
  core::BaseStationConfig config;
  config.download_budget = object::Units(kObjects) / 4;
  config.downlink_capacity = 1 << 20;
  config.fetch_retry_limit = 3;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  station.set_fault_injector(&injector);
  servers.set_fault_injector(&injector);

  obs::MetricsRegistry registry;
  station.set_metrics(&registry);
  obs::PhaseProfiler profiler;
  profiler.attach_registry(&registry);
  station.set_profiler(&profiler);  // creates phases -> live counters

  // Retry ceiling (breaches on every faulty frame, so the burn-rate
  // alert fires mid-run) plus a hit-rate ratio objective.
  obs::SloObjective retry_ceiling;
  retry_ceiling.name = "retry-ceiling";
  retry_ceiling.column = "bs.fault.retries.rate";
  retry_ceiling.threshold = 0.0;
  retry_ceiling.fast_windows = 2;
  retry_ceiling.slow_windows = 4;
  obs::SloObjective hit_rate;
  hit_rate.name = "hit-rate";
  hit_rate.column = "bs.hits.rate";
  hit_rate.denominator = "bs.requests.rate";
  hit_rate.cmp = obs::SloObjective::Cmp::kGe;
  hit_rate.threshold = 0.5;
  hit_rate.fast_windows = 2;
  hit_rate.slow_windows = 4;
  obs::SloMonitor monitor(&registry, {retry_ceiling, hit_rate});

  obs::WindowAggregator::Config window_config;
  window_config.window_ticks = 8;
  window_config.frame_capacity = 2;  // wraps well inside warm-up
  obs::WindowAggregator windows(registry, window_config);
  windows.set_listener(&monitor);
  windows.begin();  // after the last registration (slo.* included)

  workload::RequestGenerator generator(
      workload::make_zipf_access(kObjects, 1.0), workload::ConstantTarget{1.0},
      kBatch, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 16; ++b) batches.push_back(generator.next_batch());
  std::vector<object::ObjectId> update_ids;
  for (std::size_t i = 0; i < batches.size() * kUpdatesPerTick; ++i) {
    update_ids.push_back(
        object::ObjectId(rng.uniform_int(0, std::int64_t(kObjects) - 1)));
  }

  sim::Tick now = 0;
  const auto one_pass = [&] {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      for (int u = 0; u < kUpdatesPerTick; ++u) {
        station.on_server_update(update_ids[b * kUpdatesPerTick + u], now);
      }
      station.process_batch(batches[b], now);
      windows.on_tick(now);
      ++now;
    }
  };

  for (int pass = 0; pass < 2; ++pass) one_pass();  // warm-up
  EXPECT_GT(windows.dropped_frames(), 0u);  // the ring already wrapped
  const std::uint64_t before = g_allocations.load();
  for (int pass = 0; pass < 3; ++pass) one_pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " steady-state heap allocations";

  // The measured frames actually exercised the whole stack.
  windows.finish();
  EXPECT_EQ(windows.windows_closed(), 10u);  // 80 ticks / W=8
  EXPECT_EQ(monitor.evaluations(), 20u);     // 10 frames x 2 objectives
  EXPECT_GT(monitor.breaches(), 0u);
  EXPECT_GT(monitor.alerts(), 0u);
  EXPECT_GT(profiler.root_total_wall_ns(), 0u);
  EXPECT_EQ(registry.scalar_value("slo.alerts"), double(monitor.alerts()));
}

}  // namespace
}  // namespace mobi
