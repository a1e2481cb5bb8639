#include "oracles/benefit_reference.hpp"

#include <map>

namespace mobi::core {

CandidateSet build_candidates_reference(const workload::RequestBatch& batch,
                                        const object::Catalog& catalog,
                                        const cache::Cache& cache,
                                        const RecencyScorer& scorer) {
  // Aggregate per object in id order for deterministic output.
  std::map<object::ObjectId, DownloadCandidate> by_object;
  CandidateSet set;
  set.total_requests = batch.size();
  for (const workload::Request& request : batch) {
    const double x = cache.recency_or_zero(request.object);
    const double cached_score = scorer.score(x, request.target_recency);
    auto [it, inserted] = by_object.try_emplace(request.object);
    DownloadCandidate& cand = it->second;
    if (inserted) {
      cand.object = request.object;
      cand.size = catalog.object_size(request.object);
    }
    ++cand.requests;
    cand.cached_score_sum += cached_score;
    cand.profit += 1.0 - cached_score;
    set.baseline_score_sum += cached_score;
  }
  set.candidates.reserve(by_object.size());
  for (auto& [id, cand] : by_object) set.candidates.push_back(cand);
  return set;
}

}  // namespace mobi::core
