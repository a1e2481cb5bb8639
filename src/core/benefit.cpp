#include "core/benefit.hpp"

#include <bit>
#include <stdexcept>

namespace mobi::core {

const CandidateSet& CandidateBuilder::build(const workload::RequestBatch& batch,
                                            const object::Catalog& catalog,
                                            const cache::Cache& cache,
                                            const RecencyScorer& scorer) {
  return build(batch, catalog, cache, scorer, nullptr, 0);
}

const CandidateSet& CandidateBuilder::build(const workload::RequestBatch& batch,
                                            const object::Catalog& catalog,
                                            const cache::Cache& cache,
                                            const RecencyScorer& scorer,
                                            const PeerSource* peers,
                                            sim::Tick now) {
  return build(batch, catalog, cache, scorer, peers, now, nullptr);
}

const CandidateSet& CandidateBuilder::build(const workload::RequestBatch& batch,
                                            const object::Catalog& catalog,
                                            const cache::Cache& cache,
                                            const RecencyScorer& scorer,
                                            const PeerSource* peers,
                                            sim::Tick now,
                                            const ResidencyProbe* residency) {
  set_.candidates.clear();
  set_.total_requests = batch.size();
  set_.baseline_score_sum = 0.0;
  const std::size_t objects = catalog.size();
  // Zeroed per build, so bits a throwing build set never reach the next.
  touched_.assign((objects + 63) / 64, 0);
  if (slot_.size() < objects) slot_.resize(objects);
  for (const workload::Request& request : batch) {
    const object::ObjectId id = request.object;
    if (id >= objects) {
      catalog.object_size(id);  // out-of-catalog id: throw as the map did
    }
    touched_[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  // Set bits in ascending id order give the reference map's iteration
  // order without a sort.
  for (std::size_t word = 0; word < touched_.size(); ++word) {
    for (std::uint64_t bits = touched_[word]; bits != 0; bits &= bits - 1) {
      const auto id = object::ObjectId(word * 64 + std::countr_zero(bits));
      slot_[id] = std::uint32_t(set_.candidates.size());
      DownloadCandidate& fresh = set_.candidates.emplace_back();
      fresh.object = id;
      fresh.size = catalog.object_size(id);
      if (peers) {
        // One directory lookup per distinct object. The peer tier wins
        // only when it strictly beats the own cached recency, so
        // tier_profit stays >= 0 (the scorer is monotone in recency).
        const PeerCopy pc = peers->lookup(id, now);
        if (pc.valid && pc.recency > cache.recency_or_zero(id)) {
          fresh.tier = SourceTier::kPeer;
          fresh.peer_recency = pc.recency;
          fresh.peer_size = peer_cost(fresh.size, pc.cost_factor);
        }
      }
    }
  }
  for (const workload::Request& request : batch) {
    const double cached_score = scorer.score(
        cache.recency_or_zero(request.object), request.target_recency);
    DownloadCandidate& cand = set_.candidates[slot_[request.object]];
    ++cand.requests;
    cand.cached_score_sum += cached_score;
    if (residency == nullptr) {
      // Residence-blind accumulation, expression-for-expression the
      // pre-mobility builder (bit-identity is load-bearing: the probe-off
      // differential locks on it).
      cand.profit += 1.0 - cached_score;
      if (cand.tier == SourceTier::kPeer) {
        cand.peer_score_sum +=
            scorer.score(cand.peer_recency, request.target_recency);
      }
    } else {
      const double p = residency->probability(request.client);
      // Expected value of the download under delivery latency: the
      // serve pays (1 - cached_score) only if the client is still
      // resident when the payload lands, which is what p estimates.
      cand.profit += p * (1.0 - cached_score);
      if (cand.tier == SourceTier::kPeer) {
        // tier_profit reads peer_score_sum - cached_score_sum, so fold
        // the weighting into the stored sum: the delta contributed here
        // is p * (peer score - cached score).
        const double peer_score =
            scorer.score(cand.peer_recency, request.target_recency);
        cand.peer_score_sum += cached_score + p * (peer_score - cached_score);
      }
    }
    set_.baseline_score_sum += cached_score;
  }
  return set_;
}

CandidateSet build_candidates(const workload::RequestBatch& batch,
                              const object::Catalog& catalog,
                              const cache::Cache& cache,
                              const RecencyScorer& scorer) {
  CandidateBuilder builder;
  return builder.build(batch, catalog, cache, scorer);
}

CandidateSet build_candidates_from_aggregates(
    std::span<const object::Units> sizes,
    std::span<const std::uint32_t> num_requests,
    std::span<const double> avg_cached_score) {
  if (sizes.size() != num_requests.size() ||
      sizes.size() != avg_cached_score.size()) {
    throw std::invalid_argument(
        "build_candidates_from_aggregates: size mismatch");
  }
  CandidateSet set;
  set.candidates.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double score = avg_cached_score[i];
    if (score < 0.0 || score > 1.0) {
      throw std::invalid_argument(
          "build_candidates_from_aggregates: score outside [0, 1]");
    }
    DownloadCandidate cand;
    cand.object = object::ObjectId(i);
    cand.size = sizes[i];
    cand.requests = num_requests[i];
    cand.cached_score_sum = double(num_requests[i]) * score;
    cand.profit = double(num_requests[i]) * (1.0 - score);
    set.candidates.push_back(cand);
    set.total_requests += num_requests[i];
    set.baseline_score_sum += cand.cached_score_sum;
  }
  return set;
}

double average_score(const CandidateSet& set,
                     std::span<const std::size_t> chosen) {
  if (set.total_requests == 0) return 1.0;  // vacuously perfect
  double score_sum = set.baseline_score_sum;
  for (std::size_t index : chosen) {
    const DownloadCandidate& cand = set.candidates.at(index);
    // Downloading lifts every requesting client to 1.0.
    score_sum += double(cand.requests) - cand.cached_score_sum;
  }
  return score_sum / double(set.total_requests);
}

}  // namespace mobi::core
