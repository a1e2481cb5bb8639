// Per-object download profit (paper §2's knapsack mapping).
//
// For a batch of requests, every object u accumulates:
//   profit(u) = sum over clients i requesting u of
//               benefit(i) = 1.0 - score(cached recency of u, C_i)
// Downloading u raises each requesting client's score to 1.0, so profit is
// exactly the total score gained by spending size(u) units of budget on u.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "core/peer_source.hpp"
#include "core/residency.hpp"
#include "core/scoring.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"
#include "workload/requests.hpp"

namespace mobi::core {

/// Where a planned download would be sourced from. kLocal is implicit
/// (serving from the own cache needs no download); candidates carry kPeer
/// when a coherent peer copy beats the own cached recency, else kOrigin.
enum class SourceTier : std::uint8_t { kLocal, kPeer, kOrigin };

/// One knapsack candidate: an object someone asked for this batch.
struct DownloadCandidate {
  object::ObjectId object = 0;
  object::Units size = 0;
  double profit = 0.0;           // total benefit of an *origin* download
  std::uint32_t requests = 0;    // popularity within the batch
  double cached_score_sum = 0.0; // sum of per-client scores if served stale

  // Peer tier (populated only when a PeerSource was consulted and offered
  // a copy fresher than the own cache; defaults leave the origin-only
  // path bit-identical to the pre-peer builder).
  SourceTier tier = SourceTier::kOrigin;
  double peer_recency = 0.0;     // recency the copy would arrive with
  double peer_score_sum = 0.0;   // sum of per-client scores at peer_recency
  object::Units peer_size = 0;   // discounted budget weight of a peer fetch
};

/// Budget weight of downloading the candidate via its tier.
inline object::Units tier_size(const DownloadCandidate& cand) noexcept {
  return cand.tier == SourceTier::kPeer ? cand.peer_size : cand.size;
}

/// Score gained by downloading via the tier: an origin copy lifts every
/// requester to 1.0 (profit); a peer copy lifts them to
/// score(peer_recency, C) instead. Never negative — the peer tier is only
/// chosen when peer_recency strictly beats the cached recency, and the
/// scorer is monotone in recency.
inline double tier_profit(const DownloadCandidate& cand) noexcept {
  return cand.tier == SourceTier::kPeer
             ? cand.peer_score_sum - cand.cached_score_sum
             : cand.profit;
}

struct CandidateSet {
  std::vector<DownloadCandidate> candidates;
  std::size_t total_requests = 0;
  /// Sum over all requests of the score if *everything* were served from
  /// cache; Average Score of a solution = (baseline + value(solution)) /
  /// total_requests.
  double baseline_score_sum = 0.0;
};

/// Builds candidates from a request batch against the live cache state.
/// An uncached object has recency 0 (must be downloaded to score at all).
CandidateSet build_candidates(const workload::RequestBatch& batch,
                              const object::Catalog& catalog,
                              const cache::Cache& cache,
                              const RecencyScorer& scorer);

/// Reusable aggregation state for build_candidates. A touched-id bitmap
/// over the catalog (one bit per object, zeroed at the top of every build)
/// turns the per-batch map into two passes over the batch and one scan of
/// the bitmap, with zero allocations once the buffers reach their
/// high-water size:
///   1. mark each request's id (an out-of-catalog id throws here);
///   2. scan the set bits in ascending id order, emitting one candidate per
///      distinct object and recording its index in a dense slot array —
///      this is the reference map's iteration order, with no sort;
///   3. accumulate every request, in batch order, into its candidate.
/// Output is bit-identical to build_candidates_reference, the ordered-map
/// oracle in tests/oracles/ (library mobi_oracles): per-object doubles add
/// the same terms in the same order. A build that throws
/// part-way leaves nothing behind, since the next build re-zeroes the
/// bitmap. One builder per policy — the returned set aliases internal
/// storage and is valid until the next build() call.
class CandidateBuilder {
 public:
  CandidateBuilder() = default;
  CandidateBuilder(const CandidateBuilder&) = delete;
  CandidateBuilder& operator=(const CandidateBuilder&) = delete;

  const CandidateSet& build(const workload::RequestBatch& batch,
                            const object::Catalog& catalog,
                            const cache::Cache& cache,
                            const RecencyScorer& scorer);

  /// Peer-aware build: additionally consults `peers` (may be nullptr —
  /// then this is exactly the overload above) once per distinct object,
  /// in ascending id order during the bitmap scan; lookup() is a pure
  /// query (core/peer_source.hpp), so the order cannot change a result.
  /// A valid peer copy strictly fresher than the own cached recency tags
  /// the candidate kPeer with the discounted weight peer_cost(size,
  /// factor) and the per-request score sum at the peer's recency; the
  /// knapsack then weighs the peer tier against origin candidates inside
  /// one budget. The origin fields (size/profit/cached_score_sum) are
  /// computed identically either way.
  const CandidateSet& build(const workload::RequestBatch& batch,
                            const object::Catalog& catalog,
                            const cache::Cache& cache,
                            const RecencyScorer& scorer,
                            const PeerSource* peers, sim::Tick now);

  /// Mobility-aware build: additionally scales each requester's benefit
  /// contribution by `residency->probability(client)` — the chance the
  /// client is still resident when the download lands — so profit becomes
  ///   profit(u) = sum_i p_i * (1 - score(cached recency, C_i))
  /// and the peer tier's gain sum_i p_i * (peer score - cached score).
  /// Serving-outcome accounting (cached_score_sum, baseline_score_sum) is
  /// NOT weighted: those describe what actually happens, not what a
  /// download is worth. nullptr `residency` takes the exact unweighted
  /// code path of the overload above (bit-identical, branch not float
  /// math).
  const CandidateSet& build(const workload::RequestBatch& batch,
                            const object::Catalog& catalog,
                            const cache::Cache& cache,
                            const RecencyScorer& scorer,
                            const PeerSource* peers, sim::Tick now,
                            const ResidencyProbe* residency);

 private:
  std::vector<std::uint64_t> touched_;  // bit per object requested this build
  std::vector<std::uint32_t> slot_;     // object -> index into set_.candidates
  CandidateSet set_;
};

/// Builds candidates directly from per-object aggregates — the §4 setup,
/// where Cache Recency Score is itself the parameter ("the recency score
/// of a cached object averaged over the clients who request the object").
/// profit = num_requests * (1 - avg_cached_score).
CandidateSet build_candidates_from_aggregates(
    std::span<const object::Units> sizes,
    std::span<const std::uint32_t> num_requests,
    std::span<const double> avg_cached_score);

/// Average Score (paper §4.1) achieved by downloading the candidate subset
/// `chosen` (indices into set.candidates) and serving the rest from cache.
double average_score(const CandidateSet& set,
                     std::span<const std::size_t> chosen);

}  // namespace mobi::core
