// Coherence protocol suite (`-L coop`):
//
//  * CoherenceDirectory unit tests — state transitions, sharer-set
//    bookkeeping, per-mode update handling, validation.
//  * Invariant fuzz — after every tick of a coherent cluster, for every
//    object: at most one Exclusive holder (and then it is the sole
//    sharer), the directory's sharer set exactly matches the cells
//    actually caching the object, no stale copy exists in kInvalidate
//    mode, and no lease copy outlives its expiry. 3 modes x
//    distinct/identical interests x 35 seeds = 210 seeded configs.
//  * BaseStation peer tier — a station wired to a PeerCacheView fetches
//    coherent peer copies at the discounted inter-station cost, the
//    network accounting splits origin/peer/coherence units, and
//    invalidation kills the peer copies.
//  * Recorder export — coop.coherence.* counters match the result and
//    are bit-reproducible.
#include "coop/coherence.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/decay.hpp"
#include "coop/cooperative.hpp"
#include "core/base_station.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"

namespace mobi::coop {
namespace {

// ---------------------------------------------------------------- helpers

CoopConfig coherent_config(ConsistencyMode mode, bool distinct,
                           std::uint64_t seed) {
  CoopConfig config;
  config.cell_count = 3;
  config.object_count = 32;
  config.size_lo = 1;
  config.size_hi = 6;
  config.requests_per_tick_per_cell = 8;
  config.distinct_interests = distinct;
  config.update_period = 3;
  config.warmup_ticks = 4;
  config.measure_ticks = 12;
  config.budget_per_cell = 12;
  config.neighbor_recency_threshold = 0.3;
  config.coherence.enabled = true;
  config.coherence.mode = mode;
  config.coherence.lease_ticks = 3;
  config.seed = seed;
  return config;
}

void expect_identical(const CoopResult& a, const CoopResult& b) {
  // EXPECT_EQ on doubles is deliberate: the contract is bit-identical.
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

// The post-tick state-machine invariants from the issue, checked for
// every (cell, object) pair.
void check_invariants(const CoopCluster& cluster) {
  const CoherenceDirectory* dir = cluster.directory();
  ASSERT_NE(dir, nullptr);
  const ConsistencyMode mode = cluster.config().coherence.mode;
  const sim::Tick t = cluster.now() - 1;  // the tick that just completed
  for (object::ObjectId id = 0; id < cluster.catalog().size(); ++id) {
    const std::uint64_t mask = dir->sharer_mask(id);
    std::size_t exclusive_holders = 0;
    for (std::size_t c = 0; c < cluster.cell_count(); ++c) {
      const bool cached = cluster.cell_cache(c).contains(id);
      const bool sharer = (mask >> c) & 1;
      // Sharer set exactly matches the cells actually caching the object.
      ASSERT_EQ(cached, sharer)
          << "cell " << c << " object " << id << " tick " << t;
      const CoherenceState state = dir->state(c, id);
      ASSERT_EQ(state != CoherenceState::kInvalid, sharer)
          << "cell " << c << " object " << id << " tick " << t;
      if (state == CoherenceState::kExclusive) ++exclusive_holders;
      if (mode != ConsistencyMode::kLease) {
        ASSERT_NE(state, CoherenceState::kStalePendingRefresh)
            << "stale-pending is a lease-only state";
      }
      if (!cached) continue;
      if (mode == ConsistencyMode::kInvalidate) {
        // No stale copy can ever be served: none exists after the tick.
        ASSERT_FALSE(cluster.cell_cache(c).is_stale(
            id, cluster.servers().version(id)))
            << "cell " << c << " object " << id << " tick " << t;
      }
      if (mode == ConsistencyMode::kLease) {
        // Every surviving copy's lease is live: it was never served past
        // expiry (expired copies are swept before any serving).
        ASSERT_GT(dir->lease_expiry(c, id), t)
            << "cell " << c << " object " << id << " tick " << t;
      }
    }
    ASSERT_LE(exclusive_holders, 1u) << "object " << id << " tick " << t;
    if (exclusive_holders == 1) {
      ASSERT_EQ(std::popcount(mask), 1)
          << "Exclusive must be the sole sharer; object " << id;
    }
  }
}

void fuzz_mode(ConsistencyMode mode) {
  for (const bool distinct : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 35; ++seed) {
      SCOPED_TRACE(std::string(consistency_mode_name(mode)) +
                   (distinct ? " distinct" : " identical") + " seed " +
                   std::to_string(seed));
      const CoopConfig config = coherent_config(mode, distinct, seed);
      CoopCluster cluster(config);
      const sim::Tick total = config.warmup_ticks + config.measure_ticks;
      for (sim::Tick t = 0; t < total; ++t) {
        cluster.tick();
        check_invariants(cluster);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ------------------------------------------------- directory unit tests

CoherenceConfig directory_config(ConsistencyMode mode) {
  CoherenceConfig config;
  config.enabled = true;
  config.mode = mode;
  config.lease_ticks = 4;
  return config;
}

struct RecordingListener : CoherenceDirectory::Listener {
  std::vector<std::pair<std::size_t, object::ObjectId>> invalidated;
  std::vector<std::pair<std::size_t, object::ObjectId>> propagated;
  std::vector<std::pair<std::size_t, object::ObjectId>> expired;
  void invalidate_copy(std::size_t cell, object::ObjectId id) override {
    invalidated.emplace_back(cell, id);
  }
  void propagate_copy(std::size_t cell, object::ObjectId id) override {
    propagated.emplace_back(cell, id);
  }
  void expire_copy(std::size_t cell, object::ObjectId id) override {
    expired.emplace_back(cell, id);
  }
};

TEST(CoherenceDirectory, Names) {
  EXPECT_STREQ(consistency_mode_name(ConsistencyMode::kInvalidate),
               "invalidate");
  EXPECT_STREQ(consistency_mode_name(ConsistencyMode::kPropagate),
               "propagate");
  EXPECT_STREQ(consistency_mode_name(ConsistencyMode::kLease), "lease");
  EXPECT_STREQ(coherence_state_name(CoherenceState::kInvalid), "invalid");
  EXPECT_STREQ(coherence_state_name(CoherenceState::kShared), "shared");
  EXPECT_STREQ(coherence_state_name(CoherenceState::kExclusive),
               "exclusive");
  EXPECT_STREQ(coherence_state_name(CoherenceState::kStalePendingRefresh),
               "stale-pending-refresh");
}

TEST(CoherenceDirectory, RejectsBadConfig) {
  CoherenceConfig config = directory_config(ConsistencyMode::kInvalidate);
  EXPECT_THROW(CoherenceDirectory(8, 0, config), std::invalid_argument);
  EXPECT_THROW(CoherenceDirectory(8, 65, config), std::invalid_argument);
  config.lease_ticks = 0;
  EXPECT_THROW(CoherenceDirectory(8, 2, config), std::invalid_argument);
  config = directory_config(ConsistencyMode::kInvalidate);
  config.peer_cost_factor = 0.0;
  EXPECT_THROW(CoherenceDirectory(8, 2, config), std::invalid_argument);
  config.peer_cost_factor = 1.5;
  EXPECT_THROW(CoherenceDirectory(8, 2, config), std::invalid_argument);
}

TEST(CoherenceDirectory, HomeCellPartitionsObjects) {
  const CoherenceDirectory dir(10, 3,
                               directory_config(ConsistencyMode::kInvalidate));
  for (object::ObjectId id = 0; id < 10; ++id) {
    EXPECT_EQ(dir.home_cell(id), std::size_t(id) % 3);
  }
}

TEST(CoherenceDirectory, FillEvictStateMachine) {
  CoherenceDirectory dir(4, 3, directory_config(ConsistencyMode::kInvalidate));
  // First fill: sole sharer holds Exclusive.
  dir.on_fill(1, 2, 0);
  EXPECT_EQ(dir.state(1, 2), CoherenceState::kExclusive);
  EXPECT_EQ(dir.sharer_count(2), 1u);
  // Second cell fills: both downgrade to Shared.
  dir.on_fill(0, 2, 1);
  EXPECT_EQ(dir.state(1, 2), CoherenceState::kShared);
  EXPECT_EQ(dir.state(0, 2), CoherenceState::kShared);
  EXPECT_EQ(dir.sharer_mask(2), 0b011u);
  // Re-fill of a sole sharer stays Exclusive.
  dir.on_fill(2, 3, 2);
  dir.on_fill(2, 3, 3);
  EXPECT_EQ(dir.state(2, 3), CoherenceState::kExclusive);
  EXPECT_EQ(dir.sharer_count(3), 1u);
}

TEST(CoherenceDirectory, InvalidateModeKillsEverySharer) {
  CoherenceDirectory dir(4, 3, directory_config(ConsistencyMode::kInvalidate));
  RecordingListener listener;
  dir.set_listener(&listener);
  dir.on_fill(0, 1, 0);
  dir.on_fill(2, 1, 0);
  dir.on_server_update(1);
  EXPECT_EQ(dir.sharer_count(1), 0u);
  EXPECT_EQ(dir.state(0, 1), CoherenceState::kInvalid);
  EXPECT_EQ(dir.state(2, 1), CoherenceState::kInvalid);
  EXPECT_EQ(dir.stats().invalidations, 2u);
  ASSERT_EQ(listener.invalidated.size(), 2u);
  EXPECT_EQ(listener.invalidated[0], (std::pair<std::size_t, object::ObjectId>{
                                         0, 1}));
  EXPECT_EQ(listener.invalidated[1], (std::pair<std::size_t, object::ObjectId>{
                                         2, 1}));
}

TEST(CoherenceDirectory, PropagateModePushesAndCharges) {
  CoherenceConfig config = directory_config(ConsistencyMode::kPropagate);
  config.propagate_unit_cost = 2;
  CoherenceDirectory dir(4, 3, config);
  RecordingListener listener;
  dir.set_listener(&listener);
  dir.on_fill(0, 3, 0);
  dir.on_fill(1, 3, 0);
  dir.on_server_update(3);
  // Sharer set and states survive a propagated update.
  EXPECT_EQ(dir.sharer_mask(3), 0b011u);
  EXPECT_EQ(dir.state(0, 3), CoherenceState::kShared);
  EXPECT_EQ(dir.stats().propagations, 2u);
  EXPECT_EQ(dir.stats().coherence_units, 4);
  EXPECT_EQ(listener.propagated.size(), 2u);
  EXPECT_TRUE(listener.invalidated.empty());
}

TEST(CoherenceDirectory, LeaseModeMarksStaleAndSweepsExpiry) {
  CoherenceConfig config = directory_config(ConsistencyMode::kLease);
  config.lease_ticks = 3;
  CoherenceDirectory dir(4, 2, config);
  RecordingListener listener;
  dir.set_listener(&listener);
  dir.on_fill(0, 0, /*now=*/1);
  EXPECT_EQ(dir.lease_expiry(0, 0), 4);
  dir.on_server_update(0);
  // The copy survives the update, marked stale, still serveable while
  // the lease lives...
  EXPECT_EQ(dir.state(0, 0), CoherenceState::kStalePendingRefresh);
  EXPECT_TRUE(dir.serveable(0, 0, 3));
  // ...but never at or past expiry.
  EXPECT_FALSE(dir.serveable(0, 0, 4));
  dir.begin_tick(3);
  EXPECT_EQ(dir.stats().lease_expiries, 0u);
  dir.begin_tick(4);
  EXPECT_EQ(dir.stats().lease_expiries, 1u);
  EXPECT_EQ(dir.sharer_count(0), 0u);
  ASSERT_EQ(listener.expired.size(), 1u);
  // A re-fill restamps the lease and clears the stale mark.
  dir.on_fill(0, 0, 5);
  EXPECT_EQ(dir.state(0, 0), CoherenceState::kExclusive);
  EXPECT_EQ(dir.lease_expiry(0, 0), 8);
}

// ------------------------------------------------------- invariant fuzz

TEST(CoherenceFuzz, InvalidateInvariantsHoldAcross70Configs) {
  fuzz_mode(ConsistencyMode::kInvalidate);
}

TEST(CoherenceFuzz, PropagateInvariantsHoldAcross70Configs) {
  fuzz_mode(ConsistencyMode::kPropagate);
}

TEST(CoherenceFuzz, LeaseInvariantsHoldAcross70Configs) {
  fuzz_mode(ConsistencyMode::kLease);
}

// -------------------------------------------------- engine mode behavior

TEST(CoherenceEngine, InvalidateModeCountsInvalidations) {
  const auto result = run_cooperative(
      coherent_config(ConsistencyMode::kInvalidate, false, 3));
  EXPECT_GT(result.invalidations, 0u);
  EXPECT_EQ(result.propagations, 0u);
  EXPECT_EQ(result.lease_expiries, 0u);
}

TEST(CoherenceEngine, PropagateModeKeepsCopiesFreshAtWireCost) {
  CoopConfig config = coherent_config(ConsistencyMode::kPropagate, false, 3);
  config.coherence.propagate_unit_cost = 2;
  const auto result = run_cooperative(config);
  EXPECT_GT(result.propagations, 0u);
  EXPECT_EQ(result.coherence_units,
            object::Units(result.propagations) *
                config.coherence.propagate_unit_cost);
  // Propagated copies never decay, so average recency beats invalidation
  // (which re-fetches from scratch under the same budget).
  const auto invalidate = run_cooperative(
      coherent_config(ConsistencyMode::kInvalidate, false, 3));
  EXPECT_GE(result.average_recency(), invalidate.average_recency() - 1e-9);
}

TEST(CoherenceEngine, LeaseModeExpiresCopies) {
  const auto result =
      run_cooperative(coherent_config(ConsistencyMode::kLease, false, 3));
  EXPECT_GT(result.lease_expiries, 0u);
  EXPECT_EQ(result.invalidations, 0u);
  EXPECT_EQ(result.propagations, 0u);
}

TEST(CoherenceEngine, PeerHitsMatchNeighborFetches) {
  const auto result = run_cooperative(
      coherent_config(ConsistencyMode::kInvalidate, false, 5));
  EXPECT_EQ(result.peer_hits, result.neighbor_fetches);
  if (result.peer_hits > 0) {
    // The discounted inter-station charge is strictly below the raw
    // volume that moved between the stations.
    EXPECT_LT(result.peer_fetch_units, result.neighbor_units);
    EXPECT_GT(result.peer_fetch_units, 0);
  }
}

TEST(CoherenceEngine, OriginOnlyRunsProtocolWithoutPeerTraffic) {
  CoopConfig config = coherent_config(ConsistencyMode::kInvalidate, false, 5);
  config.mode = FetchMode::kOriginOnly;
  const auto result = run_cooperative(config);
  EXPECT_EQ(result.neighbor_fetches, 0u);
  EXPECT_EQ(result.peer_hits, 0u);
  EXPECT_EQ(result.peer_fetch_units, 0);
  // Sharer tracking still runs: updates of shared objects invalidate.
  EXPECT_GT(result.invalidations, 0u);
}

TEST(CoherenceEngine, CoherentNeighborFetchesNeedMoreThanOneCell) {
  CoopConfig config = coherent_config(ConsistencyMode::kInvalidate, false, 5);
  config.cell_count = 1;
  const auto result = run_cooperative(config);
  EXPECT_EQ(result.neighbor_fetches, 0u);
  EXPECT_EQ(result.peer_hits, 0u);
}

TEST(CoherenceEngine, RejectsMoreCellsThanSharerBits) {
  CoopConfig config = coherent_config(ConsistencyMode::kInvalidate, false, 1);
  config.cell_count = 65;
  EXPECT_THROW(run_cooperative(config), std::invalid_argument);
}

TEST(CoherenceEngine, DeterministicUnderSeed) {
  for (const ConsistencyMode mode :
       {ConsistencyMode::kInvalidate, ConsistencyMode::kPropagate,
        ConsistencyMode::kLease}) {
    const CoopConfig config = coherent_config(mode, true, 17);
    expect_identical(run_cooperative(config), run_cooperative(config));
  }
}

// --------------------------------------------------- BaseStation peer tier

struct StationPairListener : CoherenceDirectory::Listener {
  core::BaseStation* stations[2] = {nullptr, nullptr};
  void invalidate_copy(std::size_t cell, object::ObjectId id) override {
    stations[cell]->cache().evict(id);
  }
  void propagate_copy(std::size_t, object::ObjectId) override {}
  void expire_copy(std::size_t cell, object::ObjectId id) override {
    stations[cell]->cache().evict(id);
  }
};

TEST(PeerTier, BaseStationFetchesFromPeersAtDiscountedCost) {
  util::Rng rng(3);
  // Uniform size 4 so the discounted peer cost is exactly ceil(4/4) = 1.
  const auto catalog = object::make_random_catalog(16, 4, 4, rng);
  server::ServerPool servers(catalog, 1);
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  CoherenceConfig cc;
  cc.enabled = true;
  cc.mode = ConsistencyMode::kInvalidate;
  cc.peer_cost_factor = 0.25;
  CoherenceDirectory dir(16, 2, cc);
  PeerCacheView view0(dir, 0, 0.5);
  PeerCacheView view1(dir, 1, 0.5);

  core::BaseStationConfig bs;
  bs.download_budget = 100;
  auto make_station = [&] {
    return std::make_unique<core::BaseStation>(
        catalog, servers, decay, std::make_unique<core::ReciprocalScorer>(),
        core::make_policy("on-demand-knapsack"), bs);
  };
  auto a = make_station();
  auto b = make_station();
  for (auto* view : {&view0, &view1}) {
    view->set_cell_cache(0, &a->cache());
    view->set_cell_cache(1, &b->cache());
  }
  a->set_peer_source(&view0);
  b->set_peer_source(&view1);
  StationPairListener listener;
  listener.stations[0] = a.get();
  listener.stations[1] = b.get();
  dir.set_listener(&listener);

  const workload::RequestBatch batch{{5, 1.0, 0}};
  // Station a must pull from the origin: no peer holds a copy.
  const auto ra = a->process_batch(batch, 0);
  EXPECT_EQ(ra.units_downloaded, 4);
  EXPECT_EQ(ra.peer_fetches, 0u);
  EXPECT_EQ(dir.state(0, 5), CoherenceState::kExclusive);

  // Station b now sees a's coherent copy: peer fetch at 1 unit instead
  // of 4, no fixed-network transfer, both end up Shared.
  const auto rb = b->process_batch(batch, 1);
  EXPECT_EQ(rb.peer_fetches, 1u);
  EXPECT_EQ(rb.peer_units, 1);
  EXPECT_EQ(rb.units_downloaded, 0);
  EXPECT_EQ(rb.objects_downloaded, 0u);
  EXPECT_EQ(b->totals().units_downloaded, 0);
  EXPECT_DOUBLE_EQ(b->cache().recency_or_zero(5), 1.0);
  EXPECT_EQ(dir.state(0, 5), CoherenceState::kShared);
  EXPECT_EQ(dir.state(1, 5), CoherenceState::kShared);
  EXPECT_EQ(dir.sharer_count(5), 2u);
  EXPECT_EQ(b->totals().peer_fetches, 1u);
  EXPECT_EQ(b->totals().peer_units, 1);

  // A server update invalidates both coherent copies.
  servers.apply_update(5, 2);
  dir.on_server_update(5);
  EXPECT_FALSE(a->cache().contains(5));
  EXPECT_FALSE(b->cache().contains(5));
  EXPECT_EQ(dir.sharer_count(5), 0u);
  EXPECT_EQ(dir.stats().invalidations, 2u);

  // With no peer copy left, b pays the origin price again.
  const auto rb2 = b->process_batch(batch, 3);
  EXPECT_EQ(rb2.peer_fetches, 0u);
  EXPECT_EQ(rb2.units_downloaded, 4);
}

TEST(PeerTier, KnapsackPrefersCheapPeerCopiesUnderTightBudget) {
  util::Rng rng(9);
  const auto catalog = object::make_random_catalog(12, 4, 4, rng);
  server::ServerPool servers(catalog, 1);
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  CoherenceConfig cc;
  cc.enabled = true;
  cc.peer_cost_factor = 0.25;
  CoherenceDirectory dir(12, 2, cc);
  PeerCacheView view0(dir, 0, 0.5);
  PeerCacheView view1(dir, 1, 0.5);

  core::BaseStationConfig bs;
  bs.download_budget = 100;
  auto a = std::make_unique<core::BaseStation>(
      catalog, servers, decay, std::make_unique<core::ReciprocalScorer>(),
      core::make_policy("on-demand-knapsack"), bs);
  // Station b gets a budget of 4: exactly one origin fetch — or four
  // discounted peer fetches.
  bs.download_budget = 4;
  auto b = std::make_unique<core::BaseStation>(
      catalog, servers, decay, std::make_unique<core::ReciprocalScorer>(),
      core::make_policy("on-demand-knapsack"), bs);
  for (auto* view : {&view0, &view1}) {
    view->set_cell_cache(0, &a->cache());
    view->set_cell_cache(1, &b->cache());
  }
  a->set_peer_source(&view0);
  b->set_peer_source(&view1);

  workload::RequestBatch warm;
  for (object::ObjectId id = 0; id < 4; ++id) {
    warm.push_back({id, 1.0, workload::ClientId(id)});
  }
  a->process_batch(warm, 0);  // a caches objects 0-3 (origin, 16 units)
  ASSERT_EQ(a->totals().units_downloaded, 16);

  const auto rb = b->process_batch(warm, 1);
  // All four requested objects fit as peer fetches (4 x 1 unit) where
  // only one origin fetch (4 units) would have.
  EXPECT_EQ(rb.peer_fetches, 4u);
  EXPECT_EQ(rb.peer_units, 4);
  EXPECT_EQ(rb.units_downloaded, 0);
  EXPECT_DOUBLE_EQ(rb.average_score(), 1.0);
}

// ------------------------------------------------------- recorder export

TEST(CoherenceRecorder, CountersMatchResultAndReproduce) {
  CoopConfig config = coherent_config(ConsistencyMode::kPropagate, false, 11);
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const CoopResult result = run_cooperative(config, nullptr, &recorder);
  EXPECT_EQ(registry.find_counter("coop.coherence.propagations")->value(),
            result.propagations);
  EXPECT_EQ(registry.find_counter("coop.coherence.peer_hits")->value(),
            result.peer_hits);
  EXPECT_EQ(registry.find_counter("coop.coherence.peer_fetch_units")->value(),
            std::uint64_t(result.peer_fetch_units));
  EXPECT_EQ(registry.find_counter("coop.coherence.wire_units")->value(),
            std::uint64_t(result.coherence_units));
  EXPECT_EQ(registry.find_counter("coop.requests")->value(), result.requests);
  EXPECT_EQ(recorder.samples(), std::size_t(config.warmup_ticks +
                                            config.measure_ticks));

  // Observation is read-only: the bare run matches field for field, and a
  // run with the series and the recorder both attached matches too, with
  // the last series row equal to the result and the same export.
  expect_identical(run_cooperative(config), result);
  obs::MetricsRegistry registry2;
  obs::SeriesRecorder recorder2(registry2);
  std::vector<CoopResult> per_tick;
  const CoopResult again = run_cooperative(config, &per_tick, &recorder2);
  expect_identical(result, again);
  ASSERT_EQ(per_tick.size(), recorder2.samples());
  expect_identical(per_tick.back(), again);
  EXPECT_EQ(registry.to_json(), registry2.to_json());
}

}  // namespace
}  // namespace mobi::coop
