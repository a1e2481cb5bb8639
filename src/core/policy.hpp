// Download policies: given the tick's requests and the cache/server state,
// decide which objects the base station fetches remotely. Everything not
// selected is served from the (possibly stale) cache.
//
//  * OnDemandKnapsackPolicy    — the paper's contribution (§2): profit-per-
//    size knapsack over the requested objects, exact DP by default.
//  * OnDemandLowestRecency     — §3.2's simpler on-demand rule: fill the
//    budget with requested objects of lowest cached recency.
//  * OnDemandStaleOnly         — §3.1: fetch every requested object whose
//    cached copy is stale; no budget.
//  * AsyncRoundRobin           — §3.2 baseline: k objects per tick in a
//    fixed circular order, independent of requests.
//  * AsyncRefreshUpdated       — §3.1 baseline: re-fetch every object each
//    time it is updated at the server.
//  * DownloadAll / CacheOnly   — bracketing baselines.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "core/benefit.hpp"
#include "core/knapsack.hpp"
#include "core/residency.hpp"
#include "core/scoring.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/tick.hpp"
#include "workload/requests.hpp"

namespace mobi::core {

/// Read-only view of the world a policy may consult.
struct PolicyContext {
  const object::Catalog* catalog = nullptr;
  const cache::Cache* cache = nullptr;
  const server::ServerPool* servers = nullptr;
  const RecencyScorer* scorer = nullptr;
  /// Coherent peer-cache view (core/peer_source.hpp); non-null lets the
  /// knapsack price a third source tier (local / peer / origin) with the
  /// peer tier's discounted weight and relayed recency. nullptr (the
  /// default) is bit-identical to the pre-peer candidate builder.
  const PeerSource* peers = nullptr;
  /// Mobility probe (core/residency.hpp); non-null makes the knapsack
  /// builder scale each requester's benefit by the probability the client
  /// is still resident when the fetch lands. nullptr (the default) is
  /// bit-identical to the residence-blind builder.
  const ResidencyProbe* residency = nullptr;
  sim::Tick now = 0;
  /// Download budget for this tick, in data units; negative = unlimited.
  object::Units budget = -1;
};

class DownloadPolicy {
 public:
  virtual ~DownloadPolicy() = default;
  /// Objects to fetch this tick (each id at most once, any order),
  /// written into `out` (cleared first). The hot-path entry point:
  /// policies reuse internal scratch, and a caller that retains `out`
  /// across ticks allocates nothing once capacities are warm.
  virtual void select_into(const workload::RequestBatch& batch,
                           const PolicyContext& ctx,
                           std::vector<object::ObjectId>& out) = 0;
  /// Convenience wrapper returning a fresh vector.
  std::vector<object::ObjectId> select(const workload::RequestBatch& batch,
                                       const PolicyContext& ctx) {
    std::vector<object::ObjectId> out;
    select_into(batch, ctx, out);
    return out;
  }
  virtual std::string name() const = 0;
};

/// Which solver the knapsack policy uses: the paper's exact DP (the
/// default everywhere) or the density-greedy heuristic.
enum class KnapsackSolver { kExactDp, kGreedy };

const char* solver_name(KnapsackSolver solver) noexcept;

class OnDemandKnapsackPolicy final : public DownloadPolicy {
 public:
  explicit OnDemandKnapsackPolicy(
      KnapsackSolver solver = KnapsackSolver::kExactDp)
      : solver_(solver) {}
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override;

 private:
  KnapsackSolver solver_;
  CandidateBuilder builder_;
  KnapsackWorkspace ws_;
  std::vector<KnapsackItem> items_;
  KnapsackSolution solution_;
};

class OnDemandLowestRecencyPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "on-demand-lowest-recency"; }

 private:
  // (recency, id) pairs: sorting pairs reproduces the reference
  // stable_sort-by-recency over ascending ids.
  std::vector<std::pair<double, object::ObjectId>> by_recency_;
  std::vector<object::ObjectId> ids_;
};

class OnDemandStaleOnlyPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "on-demand-stale-only"; }

 private:
  std::vector<object::ObjectId> ids_;
};

class AsyncRoundRobinPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "async-round-robin"; }

 private:
  object::ObjectId cursor_ = 0;
};

/// Re-fetches every object whose server version moved past the cached one,
/// regardless of requests. Unbounded unless the context sets a budget.
class AsyncRefreshUpdatedPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "async-refresh-updated"; }
};

class DownloadAllPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "download-all"; }
};

class CacheOnlyPolicy final : public DownloadPolicy {
 public:
  void select_into(const workload::RequestBatch& batch,
                   const PolicyContext& ctx,
                   std::vector<object::ObjectId>& out) override;
  std::string name() const override { return "cache-only"; }
};

std::unique_ptr<DownloadPolicy> make_policy(const std::string& name);

}  // namespace mobi::core
