// Differential fuzz for the bitmap CandidateBuilder against
// build_candidates_reference (the seed's ordered-map aggregation, kept as
// the oracle). The builder marks each requested id in a touched-id bitmap,
// emits one candidate per set bit in ascending id order, then accumulates
// the requests in batch order. Batches are adversarial for that path:
// heavy duplicate objects (accumulation order must match the map's),
// uncached objects (recency 0), decayed entries, objects the builder saw
// in earlier builds but not the current one, builds after a build that
// threw part-way, and a builder reused on a smaller catalog. The peer-aware
// and residency-weighted builds are checked against an in-test map oracle
// written from the formulas in core/benefit.hpp; the builder asks the peer
// source in id order, the oracle in first-encounter order, which agrees
// because lookup() is a pure query. All comparisons are exact (==): both
// sides accumulate doubles in the same batch order, so they must agree to
// the bit.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "cache/decay.hpp"
#include "core/benefit.hpp"
#include "object/builders.hpp"
#include "oracles/benefit_reference.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"

namespace mobi::core {
namespace {

void expect_identical(const CandidateSet& flat, const CandidateSet& ref) {
  ASSERT_EQ(flat.candidates.size(), ref.candidates.size());
  EXPECT_EQ(flat.total_requests, ref.total_requests);
  EXPECT_EQ(flat.baseline_score_sum, ref.baseline_score_sum);
  for (std::size_t i = 0; i < ref.candidates.size(); ++i) {
    const auto& a = flat.candidates[i];
    const auto& b = ref.candidates[i];
    EXPECT_EQ(a.object, b.object) << "slot " << i;
    EXPECT_EQ(a.size, b.size) << "slot " << i;
    EXPECT_EQ(a.profit, b.profit) << "slot " << i;
    EXPECT_EQ(a.requests, b.requests) << "slot " << i;
    EXPECT_EQ(a.cached_score_sum, b.cached_score_sum) << "slot " << i;
    EXPECT_EQ(a.tier, b.tier) << "slot " << i;
    EXPECT_EQ(a.peer_recency, b.peer_recency) << "slot " << i;
    EXPECT_EQ(a.peer_score_sum, b.peer_score_sum) << "slot " << i;
    EXPECT_EQ(a.peer_size, b.peer_size) << "slot " << i;
  }
}

workload::RequestBatch random_batch(util::Rng& rng, std::size_t objects,
                                    std::size_t size) {
  workload::RequestBatch batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    workload::Request request;
    // Sample from a narrow id range so most batches carry duplicates.
    request.object =
        object::ObjectId(rng.uniform_int(0, std::int64_t(objects) - 1) / 2);
    request.target_recency = 0.05 * double(rng.uniform_int(1, 20));
    request.client = workload::ClientId(i);
    batch.push_back(request);
  }
  return batch;
}

// A deterministic peer tier: offers a copy of `id` unless id + now is a
// multiple of 4, at a recency and link cost that depend only on id and
// now. Counts its calls per object.
class CountingPeers final : public PeerSource {
 public:
  PeerCopy lookup(object::ObjectId id, sim::Tick now) const override {
    ++calls[id];
    PeerCopy copy;
    copy.valid = (sim::Tick(id) + now) % 4 != 0;
    copy.recency = double((sim::Tick(id) * 7 + now) % 10 + 1) / 10.0;
    copy.cost_factor = double(id % 4 + 1) / 4.0;
    return copy;
  }
  void on_cache_fill(object::ObjectId, sim::Tick) override {}

  mutable std::map<object::ObjectId, int> calls;
};

// p = 0.0, 0.1, ..., 1.0 by client id.
class FixedResidency final : public ResidencyProbe {
 public:
  double probability(workload::ClientId client) const override {
    return double(client % 11) / 10.0;
  }
};

// Map oracle for the peer-aware, residency-weighted build, from the
// formulas in core/benefit.hpp: an object's first request asks `peers`
// (when given) and picks the tier against the cached recency; every
// request then adds its terms in batch order, weighted by p only when a
// probe is given.
CandidateSet build_oracle(const workload::RequestBatch& batch,
                          const object::Catalog& catalog,
                          const cache::Cache& cache,
                          const RecencyScorer& scorer, const PeerSource* peers,
                          sim::Tick now, const ResidencyProbe* residency) {
  std::map<object::ObjectId, DownloadCandidate> by_object;
  CandidateSet set;
  set.total_requests = batch.size();
  for (const workload::Request& request : batch) {
    const double x = cache.recency_or_zero(request.object);
    const double cached = scorer.score(x, request.target_recency);
    auto [it, inserted] = by_object.try_emplace(request.object);
    DownloadCandidate& cand = it->second;
    if (inserted) {
      cand.object = request.object;
      cand.size = catalog.object_size(request.object);
      const PeerCopy copy =
          peers ? peers->lookup(request.object, now) : PeerCopy{};
      if (copy.valid && copy.recency > x) {
        cand.tier = SourceTier::kPeer;
        cand.peer_recency = copy.recency;
        cand.peer_size = peer_cost(cand.size, copy.cost_factor);
      }
    }
    const bool peer = cand.tier == SourceTier::kPeer;
    const double peer_score =
        peer ? scorer.score(cand.peer_recency, request.target_recency) : 0.0;
    ++cand.requests;
    cand.cached_score_sum += cached;
    set.baseline_score_sum += cached;
    if (residency == nullptr) {
      cand.profit += 1.0 - cached;
      if (peer) cand.peer_score_sum += peer_score;
    } else {
      const double p = residency->probability(request.client);
      cand.profit += p * (1.0 - cached);
      if (peer) cand.peer_score_sum += cached + p * (peer_score - cached);
    }
  }
  for (auto& [id, cand] : by_object) set.candidates.push_back(cand);
  return set;
}

TEST(BenefitDiff, BuilderMatchesReferenceOnRandomBatches) {
  util::Rng rng(20260805);
  const std::size_t objects = 64;
  const auto catalog = object::make_random_catalog(objects, 1, 9, rng);
  cache::Cache cache(objects, cache::make_harmonic_decay());
  // Mixed cache states: absent (never refreshed), fresh, and decayed to
  // varying depths — so recencies span {0} ∪ (0, 1].
  for (object::ObjectId id = 0; id < objects; ++id) {
    if (id % 5 == 0) continue;  // leave absent -> recency 0
    cache.refresh(id, server::FetchResult{1, 0, catalog.object_size(id)}, 0);
    for (object::ObjectId k = 0; k < id % 7; ++k) cache.on_server_update(id);
  }
  const ReciprocalScorer scorer;

  CandidateBuilder builder;
  for (int trial = 0; trial < 200; ++trial) {
    const auto batch =
        random_batch(rng, objects, std::size_t(rng.uniform_int(0, 96)));
    const CandidateSet& flat = builder.build(batch, catalog, cache, scorer);
    const CandidateSet ref =
        build_candidates_reference(batch, catalog, cache, scorer);
    expect_identical(flat, ref);
    // The one-shot wrapper must agree with the reused builder too.
    expect_identical(build_candidates(batch, catalog, cache, scorer), ref);
  }
}

TEST(BenefitDiff, ReusedBuilderMatchesFreshBuilderAcrossEvolvingCache) {
  util::Rng rng(77);
  const std::size_t objects = 48;
  const auto catalog = object::make_random_catalog(objects, 1, 6, rng);
  cache::Cache cache(objects, cache::make_harmonic_decay());
  const ReciprocalScorer scorer;

  CandidateBuilder reused;
  for (int trial = 0; trial < 100; ++trial) {
    // Evolve the cache between batches: refresh a few ids, decay a few —
    // the reused builder's stamps from earlier epochs must never leak.
    for (int k = 0; k < 4; ++k) {
      const auto id =
          object::ObjectId(rng.uniform_int(0, std::int64_t(objects) - 1));
      if (rng.bernoulli(0.5)) {
        cache.refresh(id, server::FetchResult{std::uint64_t(trial) + 1, 0,
                                              catalog.object_size(id)},
                      sim::Tick(trial));
      } else {
        cache.on_server_update(id);
      }
    }
    const auto batch =
        random_batch(rng, objects, std::size_t(rng.uniform_int(1, 64)));
    CandidateBuilder fresh;
    expect_identical(reused.build(batch, catalog, cache, scorer),
                     fresh.build(batch, catalog, cache, scorer));
  }
}

TEST(BenefitDiff, EmptyBatchYieldsEmptySet) {
  util::Rng rng(3);
  const auto catalog = object::make_random_catalog(8, 1, 4, rng);
  cache::Cache cache(8, cache::make_harmonic_decay());
  const ReciprocalScorer scorer;
  CandidateBuilder builder;
  const CandidateSet& flat =
      builder.build(workload::RequestBatch{}, catalog, cache, scorer);
  EXPECT_TRUE(flat.candidates.empty());
  EXPECT_EQ(flat.total_requests, 0u);
  EXPECT_EQ(flat.baseline_score_sum, 0.0);
}

TEST(BenefitDiff, OutOfRangeObjectThrowsLikeReference) {
  util::Rng rng(5);
  const auto catalog = object::make_random_catalog(4, 1, 4, rng);
  cache::Cache cache(4, cache::make_harmonic_decay());
  const ReciprocalScorer scorer;
  workload::RequestBatch batch(1);
  batch[0].object = 99;  // beyond the catalog
  CandidateBuilder builder;
  EXPECT_THROW(builder.build(batch, catalog, cache, scorer),
               std::out_of_range);
  EXPECT_THROW(build_candidates_reference(batch, catalog, cache, scorer),
               std::out_of_range);
}

TEST(BenefitDiff, BuildAfterThrowMatchesReference) {
  util::Rng rng(11);
  const std::size_t objects = 16;
  const auto catalog = object::make_random_catalog(objects, 1, 4, rng);
  cache::Cache cache(objects, cache::make_harmonic_decay());
  for (object::ObjectId id = 0; id < objects; id += 3) {
    cache.refresh(id, server::FetchResult{1, 0, catalog.object_size(id)}, 0);
    cache.on_server_update(id);
  }
  const ReciprocalScorer scorer;
  CandidateBuilder builder;
  // Valid ids first, so the build throws part-way through the batch.
  workload::RequestBatch bad(4);
  bad[0].object = 1;
  bad[1].object = 3;
  bad[2].object = 5;
  bad[3].object = 99;  // beyond the catalog
  EXPECT_THROW(builder.build(bad, catalog, cache, scorer), std::out_of_range);
  // None of 1, 3, 5 is requested again: a bit the throw left set would
  // emit a candidate the reference does not have.
  workload::RequestBatch good(3);
  good[0].object = 2;
  good[1].object = 6;
  good[2].object = 2;
  expect_identical(builder.build(good, catalog, cache, scorer),
                   build_candidates_reference(good, catalog, cache, scorer));
}

TEST(BenefitDiff, ReusedOnSmallerCatalogThrowsPastItAndRecovers) {
  util::Rng rng(13);
  const auto large = object::make_random_catalog(64, 1, 4, rng);
  const auto small = object::make_random_catalog(8, 1, 4, rng);
  // One 64-entry cache serves both catalogs, so an id in [8, 64) reaches
  // the catalog's range check, not the cache's.
  cache::Cache cache(64, cache::make_harmonic_decay());
  for (object::ObjectId id = 0; id < 64; id += 2) {
    cache.refresh(id, server::FetchResult{1, 0, 1}, 0);
  }
  const ReciprocalScorer scorer;
  CandidateBuilder builder;
  const auto wide = random_batch(rng, 128, 96);  // ids in [0, 64)
  expect_identical(builder.build(wide, large, cache, scorer),
                   build_candidates_reference(wide, large, cache, scorer));
  // The 8-object catalog's bitmap is one word, and the slot array keeps
  // its 64 entries, so neither bounds these ids: the catalog must.
  for (const object::ObjectId id : {8u, 9u, 40u, 63u}) {
    workload::RequestBatch batch(2);
    batch[0].object = 3;
    batch[1].object = id;
    EXPECT_THROW(builder.build(batch, small, cache, scorer), std::out_of_range)
        << "id " << id;
    EXPECT_THROW(build_candidates_reference(batch, small, cache, scorer),
                 std::out_of_range)
        << "id " << id;
  }
  const auto narrow = random_batch(rng, 16, 32);  // ids in [0, 8)
  expect_identical(builder.build(narrow, small, cache, scorer),
                   build_candidates_reference(narrow, small, cache, scorer));
}

TEST(BenefitDiff, PeerAwareAndResidencyWeightedBuildsMatchOracle) {
  util::Rng rng(4242);
  const std::size_t objects = 400;  // ids in [0, 200): four bitmap words
  const auto catalog = object::make_random_catalog(objects, 1, 9, rng);
  cache::Cache cache(objects, cache::make_harmonic_decay());
  const ExponentialScorer scorer;
  const CountingPeers peers;
  const FixedResidency residency;

  CandidateBuilder builder;
  std::size_t peer_candidates = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Refresh or decay a few objects, so cached recencies span {0} and
    // (0, 1] and the peer tier sometimes beats them and sometimes not.
    for (int k = 0; k < 8; ++k) {
      const auto id = object::ObjectId(rng.uniform_int(0, 199));
      if (rng.bernoulli(0.5)) {
        cache.refresh(id, server::FetchResult{std::uint64_t(trial) + 1, 0,
                                              catalog.object_size(id)},
                      sim::Tick(trial));
      } else {
        cache.on_server_update(id);
      }
    }
    const auto batch =
        random_batch(rng, objects, std::size_t(rng.uniform_int(0, 96)));
    const auto now = sim::Tick(trial);
    // Cycle through origin-only, peer-aware, residency-weighted, and both.
    const PeerSource* source = trial % 2 == 1 ? &peers : nullptr;
    const ResidencyProbe* probe = trial % 4 >= 2 ? &residency : nullptr;

    peers.calls.clear();
    const CandidateSet& flat =
        builder.build(batch, catalog, cache, scorer, source, now, probe);
    if (source) {
      // Exactly one lookup per distinct object in the batch.
      std::set<object::ObjectId> distinct;
      for (const workload::Request& request : batch) {
        distinct.insert(request.object);
      }
      ASSERT_EQ(peers.calls.size(), distinct.size()) << "trial " << trial;
      for (const auto& [id, count] : peers.calls) {
        EXPECT_EQ(distinct.count(id), 1u) << "object " << id;
        EXPECT_EQ(count, 1) << "object " << id;
      }
    } else {
      EXPECT_TRUE(peers.calls.empty());
    }
    for (const DownloadCandidate& cand : flat.candidates) {
      peer_candidates += cand.tier == SourceTier::kPeer;
    }
    expect_identical(flat, build_oracle(batch, catalog, cache, scorer, source,
                                        now, probe));
  }
  EXPECT_GT(peer_candidates, 0u);  // the peer tier was exercised
}

}  // namespace
}  // namespace mobi::core
