// MobilityModel: client trajectories over the multi-cell grid.
//
// The paper pins every client to one base station for the whole run; the
// fault layer (docs/resilience.md) only teleports clients off the air and
// back into the *same* cell. This module gives clients real paths:
//
//  * kRandomWaypoint — each client walks the classic random-waypoint
//    model over the cell grid: pick a waypoint (a uniform cell, a uniform
//    offset inside it) and a speed, travel in a straight line, pause,
//    repeat. Cells are unit squares in a W x H row-major grid.
//  * kTraceDriven — clients hop between cells at externally scheduled
//    (tick, client, cell) trace points; no RNG at all.
//
// Determinism contract (same as net::FaultInjector): every client draws
// from its own SplitMix64-seeded stream, a pure function of (seed, client
// id), so trajectories are independent of how cells are sharded over pool
// workers and bit-identical for every pool size. Mode kOff constructs
// nothing and draws nothing — a mobility-off run is byte-identical to a
// build without this module.
//
// The model also answers the prediction question MobiCacher (PAPERS.md,
// arXiv 1407.1307) asks of mobility-aware caching: "will this client
// still be here when the fetch lands?" — estimated_dwell() is a
// deterministic ticks-until-exit estimate computed from the current
// kinematic state (or the trace schedule), and ResidencyPredictor turns
// it into the probability that scales per-client knapsack benefit
// (core/residency.hpp, docs/mobility.md).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/tick.hpp"
#include "util/rng.hpp"

namespace mobi::sim {

enum class MobilityMode : std::uint8_t { kOff, kRandomWaypoint, kTraceDriven };

const char* mobility_mode_name(MobilityMode mode) noexcept;

/// One scheduled relocation for trace-driven mobility.
struct TraceHop {
  Tick tick = 0;
  std::uint32_t client = 0;
  std::uint32_t cell = 0;
};

struct MobilityConfig {
  MobilityMode mode = MobilityMode::kOff;

  /// Grid columns; 0 = ceil(sqrt(cell_count)). Rows follow from the cell
  /// count (the last row may be partial; waypoints are only ever drawn
  /// inside valid cells).
  std::size_t grid_width = 0;

  /// Random-waypoint kinematics: speed in cells/tick, pause in ticks.
  double speed_lo = 0.05;
  double speed_hi = 0.25;
  Tick pause_lo = 0;
  Tick pause_hi = 6;

  /// Off-air window per cell crossing: the migrating client disconnects
  /// for this many ticks while its state moves to the new cell (the
  /// trajectory-handoff; see docs/resilience.md for the distinction from
  /// the fault layer's teleport-handoff).
  Tick handoff_ticks = 1;

  /// kTraceDriven schedule. Hops are applied in (tick, position-in-list)
  /// order; a hop to the current cell is a no-op, not a crossing.
  std::vector<TraceHop> trace;

  /// Master seed for the per-client SplitMix64 streams.
  std::uint64_t seed = 0x0b171e5eedULL;

  /// True when mobility is off — the model must not be constructed and
  /// no stream may be touched (zero extra draws, bit-identical runs).
  bool empty() const noexcept { return mode == MobilityMode::kOff; }

  /// Throws std::invalid_argument on out-of-range parameters.
  void validate() const;
};

/// One cell-boundary crossing, reported by step() in ascending client id
/// order (both modes; a client hopping through several cells in one tick
/// contributes one crossing per hop, in schedule order). advance()
/// reports its range in the same order, so concatenating the crossings
/// of ascending ranges reproduces step().
struct Crossing {
  std::uint32_t client = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

class MobilityModel {
 public:
  /// `home_cell[i]` places client i at construction (position: the cell
  /// center, then a per-client jittered offset for waypoint mode).
  /// Throws on empty() configs — callers must gate on the mode.
  MobilityModel(const MobilityConfig& config, std::size_t cell_count,
                const std::vector<std::uint32_t>& home_cell);

  std::size_t client_count() const noexcept { return clients_.size(); }
  std::size_t cell_count() const noexcept { return cell_count_; }
  std::size_t grid_width() const noexcept { return width_; }
  /// The tick last published (0 before the first publish).
  Tick now() const noexcept { return now_; }

  std::uint32_t cell_of(std::uint32_t client) const {
    return clients_.at(client).cell;
  }

  /// Advances clients [first, last) one tick to time `now`, reading the
  /// published state and writing the next one, and reports their
  /// boundary crossings in `out` (cleared first). Every client must be
  /// advanced exactly once before publish(now); ticks must be stepped in
  /// order. Calls over disjoint ranges (and with distinct `out`) may run
  /// concurrently with each other and with the reads below: they touch
  /// only the unpublished buffer, and each client draws only from its own
  /// stream, on waypoint arrival. Throws std::out_of_range unless
  /// first <= last <= client_count(). Allocation-free once `out` is at
  /// capacity.
  void advance(Tick now, std::size_t first, std::size_t last,
               std::vector<Crossing>& out);

  /// Makes the state advance() wrote the one every read sees, and sets
  /// now() to `now`. Not concurrent with anything else on the model.
  void publish(Tick now) noexcept;

  /// advance() over every client, then publish(): one whole tick.
  void step(Tick now, std::vector<Crossing>& out);

  /// Deterministic estimate of the ticks until `client` leaves its
  /// current cell, computed from the state frozen by the last publish:
  /// trace mode reads the schedule; waypoint mode intersects the current
  /// straight-line leg with the cell square and charges mean pause +
  /// half-cell travel for legs that end inside the cell. Pure read —
  /// no draws. Like cell_of(), residency_probability() and
  /// count_residents(), it reads only the published state, so it is safe
  /// to call concurrently with other reads and with advance().
  double estimated_dwell(std::uint32_t client) const;

  /// P(client still resident `horizon` ticks from now), the MobiCacher
  /// utility-scaling term: min(1, estimated_dwell / horizon).
  double residency_probability(std::uint32_t client, Tick horizon) const;

  /// Fills `out[cell]` with the resident-client count (tests/invariants).
  void count_residents(std::vector<std::size_t>& out) const;

 private:
  struct ClientState {
    double x = 0.0, y = 0.0;    // position, cell = unit square
    double tx = 0.0, ty = 0.0;  // current waypoint
    double speed = 0.0;         // cells per tick
    Tick pause_left = 0;
    std::uint32_t cell = 0;
    std::size_t next_hop = 0;  // index into hops_[client] (trace mode)
    util::Rng rng;
  };

  std::uint32_t cell_at(double x, double y) const noexcept;
  void draw_waypoint(ClientState& state) const;

  MobilityConfig config_;
  std::size_t cell_count_ = 0;
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  Tick now_ = 0;
  std::vector<ClientState> clients_;  // published: every read sees this
  std::vector<ClientState> next_;     // advance() writes here
  /// Trace mode: per-client hop schedule in input order.
  std::vector<std::vector<TraceHop>> hops_;
};

/// Dwell-time predictor handed to the download policy: wraps a model and
/// a fetch-landing horizon. probability() is evaluated against the
/// model's current tick, so one predictor serves every cell of a fleet.
class ResidencyPredictor {
 public:
  ResidencyPredictor(const MobilityModel& model, Tick horizon);

  Tick horizon() const noexcept { return horizon_; }

  double probability(std::uint32_t client) const {
    return model_->residency_probability(client, horizon_);
  }

 private:
  const MobilityModel* model_;
  Tick horizon_;
};

}  // namespace mobi::sim
