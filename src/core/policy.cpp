#include "core/policy.hpp"

#include "core/adaptive_budget.hpp"
#include "core/latency_aware.hpp"
#include "core/swr_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::core {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

void check_context(const PolicyContext& ctx, bool needs_scorer = false,
                   bool needs_servers = false) {
  require(ctx.catalog != nullptr, "PolicyContext: catalog is null");
  require(ctx.cache != nullptr, "PolicyContext: cache is null");
  if (needs_scorer) require(ctx.scorer != nullptr, "PolicyContext: scorer is null");
  if (needs_servers) require(ctx.servers != nullptr, "PolicyContext: servers null");
}

/// Distinct requested objects, ascending id, into a reused buffer —
/// sort+unique replaces the reference std::set with zero allocations once
/// `out` is at capacity.
void distinct_objects_into(const workload::RequestBatch& batch,
                           std::vector<object::ObjectId>& out) {
  out.clear();
  for (const auto& request : batch) out.push_back(request.object);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

const char* solver_name(KnapsackSolver solver) noexcept {
  switch (solver) {
    case KnapsackSolver::kExactDp: return "dp";
    case KnapsackSolver::kGreedy: return "greedy";
  }
  return "?";
}

std::string OnDemandKnapsackPolicy::name() const {
  return std::string("on-demand-knapsack(") + solver_name(solver_) + ")";
}

void OnDemandKnapsackPolicy::select_into(const workload::RequestBatch& batch,
                                         const PolicyContext& ctx,
                                         std::vector<object::ObjectId>& out) {
  check_context(ctx, /*needs_scorer=*/true);
  out.clear();
  const CandidateSet& set =
      builder_.build(batch, *ctx.catalog, *ctx.cache, *ctx.scorer, ctx.peers,
                     ctx.now, ctx.residency);
  if (set.candidates.empty()) return;

  // Unlimited budget: take everything with positive tier profit.
  if (ctx.budget < 0) {
    for (const auto& cand : set.candidates) {
      if (tier_profit(cand) > 0.0) out.push_back(cand.object);
    }
    return;
  }

  // Each candidate enters the knapsack at its source tier's weight and
  // gain: peer-tier copies are cheaper (peer_size) but only lift
  // requesters to the peer copy's recency. With ctx.peers null every
  // tier is kOrigin and this is the pre-peer item list exactly.
  items_.clear();
  for (const auto& cand : set.candidates) {
    items_.push_back(KnapsackItem{tier_size(cand), tier_profit(cand)});
  }
  if (solver_ == KnapsackSolver::kGreedy) {
    solve_greedy(items_, ctx.budget, ws_, solution_);
  } else {
    solve_dp(items_, ctx.budget, ws_, solution_);
  }
  for (std::size_t index : solution_.chosen) {
    out.push_back(set.candidates[index].object);
  }
}

void OnDemandLowestRecencyPolicy::select_into(
    const workload::RequestBatch& batch, const PolicyContext& ctx,
    std::vector<object::ObjectId>& out) {
  check_context(ctx);
  distinct_objects_into(batch, ids_);
  // Ascending cached recency; absent entries count as 0 (most urgent).
  // Pair sort over (recency, id): ids_ is ascending and distinct, so the
  // id tie-break reproduces the reference stable_sort exactly.
  by_recency_.clear();
  for (object::ObjectId id : ids_) {
    by_recency_.emplace_back(ctx.cache->recency_or_zero(id), id);
  }
  std::sort(by_recency_.begin(), by_recency_.end());
  out.clear();
  if (ctx.budget < 0) {
    for (const auto& [recency, id] : by_recency_) out.push_back(id);
    return;
  }
  object::Units left = ctx.budget;
  for (const auto& [recency, id] : by_recency_) {
    const object::Units size = ctx.catalog->object_size(id);
    if (size <= left) {
      out.push_back(id);
      left -= size;
    }
  }
}

void OnDemandStaleOnlyPolicy::select_into(const workload::RequestBatch& batch,
                                          const PolicyContext& ctx,
                                          std::vector<object::ObjectId>& out) {
  check_context(ctx, /*needs_scorer=*/false, /*needs_servers=*/true);
  distinct_objects_into(batch, ids_);
  out.clear();
  for (object::ObjectId id : ids_) {
    if (ctx.cache->is_stale(id, ctx.servers->version(id))) {
      out.push_back(id);
    }
  }
  // A budget, when set, truncates in id order (the paper uses no budget);
  // in-place compaction replaces the reference's second vector.
  if (ctx.budget >= 0) {
    object::Units left = ctx.budget;
    std::size_t kept = 0;
    for (object::ObjectId id : out) {
      const object::Units size = ctx.catalog->object_size(id);
      if (size <= left) {
        out[kept++] = id;
        left -= size;
      }
    }
    out.resize(kept);
  }
}

void AsyncRoundRobinPolicy::select_into(const workload::RequestBatch& /*batch*/,
                                        const PolicyContext& ctx,
                                        std::vector<object::ObjectId>& out) {
  check_context(ctx);
  require(ctx.budget >= 0, "AsyncRoundRobinPolicy: needs a finite budget");
  out.clear();
  const auto n = object::ObjectId(ctx.catalog->size());
  if (n == 0) return;
  object::Units left = ctx.budget;
  for (object::ObjectId visited = 0; visited < n; ++visited) {
    const object::ObjectId id = cursor_;
    const object::Units size = ctx.catalog->object_size(id);
    if (size > left) break;  // fixed order: stop at the first non-fit
    out.push_back(id);
    left -= size;
    cursor_ = object::ObjectId((cursor_ + 1) % n);
  }
}

void AsyncRefreshUpdatedPolicy::select_into(
    const workload::RequestBatch& /*batch*/, const PolicyContext& ctx,
    std::vector<object::ObjectId>& out) {
  check_context(ctx, /*needs_scorer=*/false, /*needs_servers=*/true);
  out.clear();
  object::Units left = ctx.budget;
  for (object::ObjectId id = 0; id < ctx.catalog->size(); ++id) {
    if (!ctx.cache->is_stale(id, ctx.servers->version(id))) continue;
    const object::Units size = ctx.catalog->object_size(id);
    if (ctx.budget >= 0) {
      if (size > left) continue;
      left -= size;
    }
    out.push_back(id);
  }
}

void DownloadAllPolicy::select_into(const workload::RequestBatch& batch,
                                    const PolicyContext& ctx,
                                    std::vector<object::ObjectId>& out) {
  check_context(ctx);
  distinct_objects_into(batch, out);
}

void CacheOnlyPolicy::select_into(const workload::RequestBatch& /*batch*/,
                                  const PolicyContext& /*ctx*/,
                                  std::vector<object::ObjectId>& out) {
  out.clear();
}

std::unique_ptr<DownloadPolicy> make_policy(const std::string& name) {
  if (name == "on-demand-knapsack" || name == "knapsack") {
    return std::make_unique<OnDemandKnapsackPolicy>();
  }
  if (name == "on-demand-knapsack-greedy") {
    return std::make_unique<OnDemandKnapsackPolicy>(KnapsackSolver::kGreedy);
  }
  if (name == "on-demand-lowest-recency") {
    return std::make_unique<OnDemandLowestRecencyPolicy>();
  }
  if (name == "on-demand-stale-only") {
    return std::make_unique<OnDemandStaleOnlyPolicy>();
  }
  if (name == "async-round-robin") {
    return std::make_unique<AsyncRoundRobinPolicy>();
  }
  if (name == "async-refresh-updated") {
    return std::make_unique<AsyncRefreshUpdatedPolicy>();
  }
  if (name == "adaptive-knapsack") {
    return std::make_unique<AdaptiveKnapsackPolicy>();
  }
  if (name == "on-demand-latency-aware") {
    return std::make_unique<OnDemandLatencyAwarePolicy>(2);
  }
  if (name == "stale-while-revalidate") {
    return std::make_unique<StaleWhileRevalidatePolicy>(5);
  }
  if (name == "download-all") return std::make_unique<DownloadAllPolicy>();
  if (name == "cache-only") return std::make_unique<CacheOnlyPolicy>();
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

}  // namespace mobi::core
