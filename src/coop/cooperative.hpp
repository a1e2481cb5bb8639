// Cooperative caching across neighboring cells.
//
// Related work (paper §5) cites Harvest's hierarchical internet object
// cache [10]: caches ask nearby caches before going to the origin. In the
// mobile setting, neighboring base stations are connected by a cheap
// wired link, so a base station can satisfy a planned download from a
// neighbor's cache — paying less fixed-network bandwidth but inheriting
// the neighbor copy's (possibly reduced) recency — instead of always
// pulling from the remote origin.
//
// Every cell is a core::BaseStation, so each runs the station's one
// select / fetch / serve path, and its peer source decides where a
// planned download of object u comes from:
//   kOriginOnly     — always from the origin (the paper's model);
//   kNeighborFirst  — from the best neighbor copy at or above the
//                     threshold when it is strictly fresher than the
//                     cell's own copy; else from the origin. The knapsack
//                     prices that peer tier in the same budget.
//
// With `coherence.enabled` the cluster additionally runs the directory
// protocol from coherence.hpp: every cached copy carries a coherence
// state, server updates drive the configured consistency mode
// (invalidate / propagate / lease), the peer source is a PeerCacheView,
// and neighbor copies only come from serveable directory entries at the
// discounted inter-station cost. Coherence off, a neighbor copy costs its
// full size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coop/coherence.hpp"
#include "exp/fig2.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {
class MetricsRegistry;
class SeriesRecorder;
class PhaseProfiler;
}  // namespace mobi::obs

namespace mobi::server {
class ServerPool;
}  // namespace mobi::server

namespace mobi::coop {

enum class FetchMode { kOriginOnly, kNeighborFirst };

const char* fetch_mode_name(FetchMode mode) noexcept;

struct CoopConfig {
  std::size_t cell_count = 3;
  std::size_t object_count = 200;
  object::Units size_lo = 1;
  object::Units size_hi = 8;
  std::size_t requests_per_tick_per_cell = 40;
  exp::AccessPattern access = exp::AccessPattern::kZipf;
  double zipf_alpha = 1.0;
  /// Give each cell its own popularity permutation (different cells like
  /// different objects); false = identical interests (maximum overlap).
  bool distinct_interests = false;
  sim::Tick update_period = 4;
  sim::Tick warmup_ticks = 30;
  sim::Tick measure_ticks = 200;
  object::Units budget_per_cell = 50;
  FetchMode mode = FetchMode::kNeighborFirst;
  /// Minimum neighbor-copy recency to accept instead of the origin.
  double neighbor_recency_threshold = 0.5;
  /// Per-cell download policy (core::make_policy name).
  std::string policy = "on-demand-knapsack";
  /// Consistency protocol (coherence.hpp); disabled by default.
  CoherenceConfig coherence;
  std::uint64_t seed = 42;
};

struct CoopResult {
  std::size_t requests = 0;
  double score_sum = 0.0;
  double recency_sum = 0.0;
  object::Units origin_units = 0;    // pulled over the fixed network
  object::Units neighbor_units = 0;  // full size copied between stations
  std::size_t origin_fetches = 0;
  std::size_t neighbor_fetches = 0;

  // Coherence-protocol accounting (all zero when coherence is disabled).
  std::uint64_t invalidations = 0;
  std::uint64_t propagations = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t peer_hits = 0;
  object::Units peer_fetch_units = 0;  // discounted units charged to budget
  object::Units coherence_units = 0;   // propagation wire traffic

  double average_score() const noexcept {
    return requests ? score_sum / double(requests) : 1.0;
  }
  double average_recency() const noexcept {
    return requests ? recency_sum / double(requests) : 1.0;
  }
  double neighbor_fraction() const noexcept {
    const auto total = origin_fetches + neighbor_fetches;
    return total ? double(neighbor_fetches) / double(total) : 0.0;
  }
};

/// One lock-step cluster of cooperating cells, steppable a tick at a
/// time so tests can check protocol invariants between ticks. Each cell
/// is a core::BaseStation with the cell's budget and a downlink wide
/// enough to drain every tick; the cluster itself runs only the
/// cluster-wide work: the lease sweep, the server updates that drive the
/// consistency mode, and folding each station's measured TickResult into
/// the CoopResult.
class CoopCluster : public CoherenceDirectory::Listener {
 public:
  explicit CoopCluster(const CoopConfig& config);
  ~CoopCluster() override;
  CoopCluster(const CoopCluster&) = delete;
  CoopCluster& operator=(const CoopCluster&) = delete;

  /// Advances one tick: lease sweep, server updates (driving the
  /// consistency mode), then BaseStation::process_batch once per cell.
  void tick();

  sim::Tick now() const noexcept { return now_; }
  const CoopConfig& config() const noexcept { return config_; }
  const CoopResult& result() const noexcept { return result_; }
  std::size_t cell_count() const noexcept;
  const cache::Cache& cell_cache(std::size_t cell) const;
  const server::ServerPool& servers() const noexcept;
  const object::Catalog& catalog() const noexcept;
  /// nullptr when coherence is disabled.
  const CoherenceDirectory* directory() const noexcept;

  /// Attaches a phase profiler: each tick() runs a `coop.coherence` span
  /// (lease sweep + server updates driving the consistency mode; cost =
  /// objects updated) and a `coop.cells` span (every cell's station tick;
  /// cost = requests served). The profiler is attached to every cell's
  /// station too, so the `bs.*` spans nest under `coop.cells`.
  /// Single-threaded — attach only when the cluster is driven from one
  /// thread (the parallel shard workers of run_multi_cell must not share
  /// one). nullptr detaches.
  void set_profiler(obs::PhaseProfiler* profiler);

  // CoherenceDirectory::Listener — protocol actions applied to the cells.
  void invalidate_copy(std::size_t cell, object::ObjectId id) override;
  void propagate_copy(std::size_t cell, object::ObjectId id) override;
  void expire_copy(std::size_t cell, object::ObjectId id) override;

 private:
  struct Impl;
  CoopConfig config_;
  sim::Tick now_ = 0;
  CoopResult result_;
  CoherenceStats warmup_snapshot_;
  std::unique_ptr<Impl> impl_;
  obs::PhaseProfiler* profiler_ = nullptr;
  std::uint32_t coherence_phase_ = 0;
  std::uint32_t cells_phase_ = 0;
  std::uint64_t updates_this_tick_ = 0;  // profiler cost scratch
};

/// Runs one cluster for warmup + measure ticks. A non-null `per_tick`
/// gets one cumulative CoopResult snapshot appended per tick (warmup
/// ticks included — their rows simply carry zeros, keeping the series
/// aligned with the tick index), so per_tick->back() equals the return
/// value. A non-null `recorder` records per-tick `coop.*` metrics —
/// request/score aggregates plus the literal `coop.coherence.{
/// invalidations,propagations,lease_expiries,peer_hits,peer_fetch_units}`
/// counters (and `coop.coherence.wire_units` for propagation traffic) —
/// into its registry, one sample per tick. Sim-time only, so the
/// exported document is bit-reproducible (the golden_coop gate). Both
/// are observation: the result is the same with or without them. Throws
/// std::invalid_argument on no cells, a neighbor threshold outside
/// (0, 1], or a negative warmup_ticks or measure_ticks.
CoopResult run_cooperative(const CoopConfig& config,
                           std::vector<CoopResult>* per_tick = nullptr,
                           obs::SeriesRecorder* recorder = nullptr);

}  // namespace mobi::coop
