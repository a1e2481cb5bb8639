// MobilityFleet: the multi-cell engine for runs where clients move.
//
// client::run_cell owns everything per cell — catalog, clients, RNG
// streams — which is exactly what makes sharded runs embarrassingly
// parallel, and exactly what breaks once a client can leave: a migrating
// client must find the same object sizes and a consistent server state
// in its new cell. The fleet therefore shares what a migrant needs:
//
//   * ONE catalog, built from the master seed, shared by every cell;
//     per-cell ServerPools stay version-consistent because the staggered
//     update process (deterministic, RNG-free) is applied identically in
//     each cell.
//   * ONE client vector, global ids, constructed once. Cells hold
//     rosters of ids; migration moves ids, never objects.
//   * Per-cell streams (connectivity, requests, faults) seeded with the
//     same position-addressable shard_seed discipline as the sharded
//     path, so a pool-of-K run is bit-identical to serial for every K.
//
// Each cell is a client::CellEngine — the same tick run_cell steps. Each
// tick is one fan-out and one barrier:
//
//   * the fan-out runs every cell engine, then the MobilityModel advancing
//     a fixed number of client blocks into its unpublished buffer (cells
//     first, so the short blocks fill the tail). Each engine starts its
//     tick by applying the roster moves the last barrier queued for it.
//     Trajectories never read cache, station or client state, so the
//     model can run beside the cells; the cells' residency probes read
//     the state published at the last barrier.
//   * the single-threaded barrier publishes the model, then walks the
//     crossings (the blocks' lists in block order: ascending client, each
//     client's hops in schedule order), queueing a release for the old
//     cell and an admit for the new one in per-cell inboxes the fleet
//     owns and opening a deterministic handoff window on the crossing
//     client, then appends the stats row. A move migrates the client's
//     id between rosters; the client object never moves, so its cache
//     units ride along as accounting (`migrated_units`), not as a copy.
//     Only the barrier writes to a client here: in trace mode one client
//     can cross twice in a tick, and two engines opening its window would
//     race.
//
// With mobility_predictive set, every station's knapsack sees a
// ResidencyProbe backed by the model's dwell estimates.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "client/cell.hpp"
#include "client/mobile_client.hpp"
#include "core/residency.hpp"
#include "exp/multi_cell.hpp"
#include "sim/mobility.hpp"
#include "util/thread_pool.hpp"
#include "workload/access.hpp"

namespace mobi::obs {
class RequestTracer;
class PhaseProfiler;
}  // namespace mobi::obs

namespace mobi::exp {

/// core::ResidencyProbe backed by the fleet's mobility model. Pure reads
/// against state frozen at the last barrier (the model's published
/// buffer), so concurrent cell steps may query it freely while the model
/// blocks advance.
class FleetResidencyProbe final : public core::ResidencyProbe {
 public:
  explicit FleetResidencyProbe(const sim::ResidencyPredictor& predictor)
      : predictor_(&predictor) {}
  double probability(workload::ClientId client) const override {
    return predictor_->probability(client);
  }

 private:
  const sim::ResidencyPredictor* predictor_;
};

class MobilityFleet {
 public:
  /// Requires sharded topology, a non-empty config.mobility and
  /// cell.ticks >= 0 (throws std::invalid_argument otherwise). Honors
  /// cell_client_counts; clients get global ids in cell-major order
  /// (cell 0 holds ids [0, n0), cell 1 the next n1, ...).
  explicit MobilityFleet(const MultiCellConfig& config);
  MobilityFleet(const MobilityFleet&) = delete;
  MobilityFleet& operator=(const MobilityFleet&) = delete;

  /// Attach observation before the first step. The tracer follows the
  /// CellEngine::set_tracer contract (station + links); `series` (may be
  /// nullptr) receives one cumulative CellResult snapshot per tick, appended by
  /// whichever worker runs the cell — reserve it to ticks() up front.
  void set_tracer(std::size_t cell, obs::RequestTracer* tracer);
  void attach_series(std::size_t cell, client::CellSeries* series);

  /// Attaches a phase profiler to the *driver* thread: each step() runs a
  /// `fleet.cells` span around the (possibly parallel) fan-out — cell
  /// ticks with their roster moves, and the model blocks (cost = cells
  /// ticked; per-cell work is not individually profiled — the profiler is
  /// single-threaded by contract) — and a `fleet.barrier` span around the
  /// single-threaded handoff barrier (cost = crossings granted). nullptr
  /// detaches.
  void set_profiler(obs::PhaseProfiler* profiler);

  /// Runs one tick: one fan-out over the cell engines and the model's
  /// client blocks (in order on this thread when pool is null), then the
  /// single-threaded handoff barrier. Both paths are allocation-free once
  /// scratch capacities are warm: the pooled fan-out is one
  /// ThreadPool::run, with this thread taking indices too.
  void step(util::ThreadPool* pool = nullptr);

  sim::Tick now() const noexcept { return next_tick_; }
  sim::Tick ticks() const noexcept { return ticks_; }
  bool done() const noexcept { return next_tick_ >= ticks_; }

  std::size_t cell_count() const noexcept { return cells_.size(); }
  std::size_t client_count() const noexcept { return clients_.size(); }

  const client::CellResult& cell_result(std::size_t cell) const {
    return cells_.at(cell)->result();
  }
  /// Sorted global ids currently resident in `cell`, with the moves the
  /// last barrier queued for it applied.
  const std::vector<std::uint32_t>& roster(std::size_t cell) {
    return cells_.at(cell)->roster();
  }
  std::uint32_t cell_of_client(std::uint32_t client) const {
    return model_->cell_of(client);
  }
  const client::MobileClient& mobile_client(std::uint32_t id) const {
    return clients_.at(id);
  }

  const sim::MobilityModel& model() const noexcept { return *model_; }
  bool predictive() const noexcept { return probe_.has_value(); }

  /// Cumulative handoff accounting; `mobility_series()[t]` is the state
  /// after tick t's barrier (one row per completed tick).
  const MobilityRunStats& stats() const noexcept { return stats_; }
  const std::vector<MobilityRunStats>& mobility_series() const noexcept {
    return rows_;
  }

 private:
  /// Client blocks the model advances in per tick. A constant, not the
  /// pool size: the blocks only split the walk, and their crossings are
  /// read back in block order.
  static constexpr std::size_t kModelBlocks = 8;

  void run_index(sim::Tick t, std::size_t index);
  /// Returns the crossings granted.
  std::size_t barrier(sim::Tick t);

  MultiCellConfig config_;
  object::Catalog catalog_;
  std::shared_ptr<const workload::AccessDistribution> access_;
  std::vector<client::MobileClient> clients_;
  std::vector<client::CellEngine::Credit> credited_;
  std::vector<std::unique_ptr<client::CellEngine>> cells_;

  std::optional<sim::MobilityModel> model_;
  std::optional<sim::ResidencyPredictor> predictor_;
  std::optional<FleetResidencyProbe> probe_;
  std::vector<std::vector<sim::Crossing>> block_crossings_;  // per block
  std::vector<std::vector<client::CellEngine::RosterMove>> inboxes_;

  MobilityRunStats stats_;
  std::vector<MobilityRunStats> rows_;
  sim::Tick next_tick_ = 0;
  sim::Tick ticks_ = 0;
  obs::PhaseProfiler* profiler_ = nullptr;
  std::uint32_t cells_phase_ = 0;
  std::uint32_t barrier_phase_ = 0;
};

}  // namespace mobi::exp
