#include "sim/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mobi::sim {

namespace {

/// No scheduled exit: dwell long enough that any finite horizon yields
/// probability 1.
constexpr double kForever = 1e18;

/// Per-client stream seed: the same position-addressable discipline as
/// exp::shard_seed, keyed off the mobility seed so client streams are
/// disjoint from every other subsystem for any master seed.
std::uint64_t client_stream_seed(std::uint64_t seed, std::uint32_t client) {
  return util::SplitMix64(seed + 0x9e3779b97f4a7c15ULL * (client + 1)).next();
}

}  // namespace

const char* mobility_mode_name(MobilityMode mode) noexcept {
  switch (mode) {
    case MobilityMode::kOff:
      return "off";
    case MobilityMode::kRandomWaypoint:
      return "random-waypoint";
    case MobilityMode::kTraceDriven:
      return "trace-driven";
  }
  return "unknown";
}

void MobilityConfig::validate() const {
  if (mode == MobilityMode::kRandomWaypoint) {
    if (!(speed_lo > 0.0) || !(speed_hi >= speed_lo)) {
      throw std::invalid_argument(
          "MobilityConfig: need 0 < speed_lo <= speed_hi");
    }
    if (pause_lo < 0 || pause_hi < pause_lo) {
      throw std::invalid_argument(
          "MobilityConfig: need 0 <= pause_lo <= pause_hi");
    }
  }
  if (mode == MobilityMode::kTraceDriven) {
    for (const TraceHop& hop : trace) {
      if (hop.tick < 0) {
        throw std::invalid_argument("MobilityConfig: trace tick < 0");
      }
    }
  }
  if (handoff_ticks < 0) {
    throw std::invalid_argument("MobilityConfig: handoff_ticks < 0");
  }
}

MobilityModel::MobilityModel(const MobilityConfig& config,
                             std::size_t cell_count,
                             const std::vector<std::uint32_t>& home_cell)
    : config_(config), cell_count_(cell_count) {
  config_.validate();
  if (config_.empty()) {
    throw std::invalid_argument("MobilityModel: mode is kOff");
  }
  if (cell_count == 0) {
    throw std::invalid_argument("MobilityModel: cell_count == 0");
  }
  width_ = config_.grid_width != 0
               ? config_.grid_width
               : std::size_t(std::ceil(std::sqrt(double(cell_count))));
  height_ = (cell_count + width_ - 1) / width_;

  clients_.resize(home_cell.size());
  for (std::size_t i = 0; i < home_cell.size(); ++i) {
    const std::uint32_t home = home_cell[i];
    if (home >= cell_count_) {
      throw std::invalid_argument("MobilityModel: home_cell out of range");
    }
    ClientState& state = clients_[i];
    state.cell = home;
    if (config_.mode == MobilityMode::kRandomWaypoint) {
      state.rng =
          util::Rng(client_stream_seed(config_.seed, std::uint32_t(i)));
      // Jittered start inside the home cell, then the first leg.
      state.x = double(home % width_) + state.rng.uniform();
      state.y = double(home / width_) + state.rng.uniform();
      draw_waypoint(state);
    } else {
      // Trace mode draws nothing: position is notional (cell center).
      state.x = double(home % width_) + 0.5;
      state.y = double(home / width_) + 0.5;
    }
  }

  if (config_.mode == MobilityMode::kTraceDriven) {
    hops_.resize(clients_.size());
    for (const TraceHop& hop : config_.trace) {
      if (hop.client >= clients_.size()) {
        throw std::invalid_argument("MobilityModel: trace client out of range");
      }
      if (hop.cell >= cell_count_) {
        throw std::invalid_argument("MobilityModel: trace cell out of range");
      }
      hops_[hop.client].push_back(hop);
    }
    // Equal-tick hops keep input order (the documented schedule order).
    for (auto& schedule : hops_) {
      std::stable_sort(schedule.begin(), schedule.end(),
                       [](const TraceHop& a, const TraceHop& b) {
                         return a.tick < b.tick;
                       });
    }
  }
  next_.resize(clients_.size());
}

std::uint32_t MobilityModel::cell_at(double x, double y) const noexcept {
  const double col = std::clamp(std::floor(x), 0.0, double(width_ - 1));
  const double row = std::clamp(std::floor(y), 0.0, double(height_ - 1));
  const std::size_t cell = std::size_t(row) * width_ + std::size_t(col);
  return std::uint32_t(std::min(cell, cell_count_ - 1));
}

void MobilityModel::draw_waypoint(ClientState& state) const {
  // Waypoints are uniform over valid cells (not the bounding rectangle):
  // draw the cell, then a uniform offset inside its unit square.
  const std::uint64_t target =
      state.rng.uniform_u64(0, std::uint64_t(cell_count_) - 1);
  state.tx = double(target % width_) + state.rng.uniform();
  state.ty = double(target / width_) + state.rng.uniform();
  state.speed = state.rng.uniform(config_.speed_lo, config_.speed_hi);
}

void MobilityModel::advance(Tick now, std::size_t first, std::size_t last,
                            std::vector<Crossing>& out) {
  if (first > last || last > clients_.size()) {
    throw std::out_of_range("MobilityModel::advance: bad client range");
  }
  out.clear();
  for (std::size_t i = first; i < last; ++i) {
    ClientState& state = next_[i];
    state = clients_[i];
    if (config_.mode == MobilityMode::kTraceDriven) {
      const std::vector<TraceHop>& schedule = hops_[i];
      while (state.next_hop < schedule.size() &&
             schedule[state.next_hop].tick <= now) {
        const std::uint32_t target = schedule[state.next_hop].cell;
        ++state.next_hop;
        if (target == state.cell) continue;  // no-op hop, not a crossing
        out.push_back(Crossing{std::uint32_t(i), state.cell, target});
        state.cell = target;
        state.x = double(target % width_) + 0.5;
        state.y = double(target / width_) + 0.5;
      }
      continue;
    }

    // Random waypoint: pause, or advance one tick along the leg.
    if (state.pause_left > 0) {
      --state.pause_left;
      if (state.pause_left == 0) draw_waypoint(state);
      continue;
    }
    const double dx = state.tx - state.x;
    const double dy = state.ty - state.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    if (dist <= state.speed) {
      state.x = state.tx;
      state.y = state.ty;
      state.pause_left =
          Tick(state.rng.uniform_int(config_.pause_lo, config_.pause_hi));
      // A zero pause draws the next leg now so the walk never stalls.
      if (state.pause_left == 0) draw_waypoint(state);
    } else {
      state.x += state.speed * dx / dist;
      state.y += state.speed * dy / dist;
    }
    const std::uint32_t here = cell_at(state.x, state.y);
    if (here != state.cell) {
      out.push_back(Crossing{std::uint32_t(i), state.cell, here});
      state.cell = here;
    }
  }
}

void MobilityModel::publish(Tick now) noexcept {
  clients_.swap(next_);
  now_ = now;
}

void MobilityModel::step(Tick now, std::vector<Crossing>& out) {
  advance(now, 0, clients_.size(), out);
  publish(now);
}

double MobilityModel::estimated_dwell(std::uint32_t client) const {
  const ClientState& state = clients_.at(client);

  if (config_.mode == MobilityMode::kTraceDriven) {
    const std::vector<TraceHop>& schedule = hops_[client];
    std::uint32_t cell = state.cell;
    for (std::size_t h = state.next_hop; h < schedule.size(); ++h) {
      if (schedule[h].cell != cell) return double(schedule[h].tick - now_);
      cell = schedule[h].cell;
    }
    return kForever;
  }

  const double mean_speed = 0.5 * (config_.speed_lo + config_.speed_hi);
  const double mean_pause = 0.5 * double(config_.pause_lo + config_.pause_hi);
  // Expected time to wander out of a unit cell once the current leg is
  // done: one mean pause plus a half-cell transit at mean speed.
  const double wander_out = mean_pause + 0.5 / mean_speed;

  if (state.pause_left > 0) return double(state.pause_left) + wander_out;

  const double dx = state.tx - state.x;
  const double dy = state.ty - state.y;
  const double dist = std::sqrt(dx * dx + dy * dy);
  if (dist <= 0.0) return wander_out;
  const double vx = state.speed * dx / dist;
  const double vy = state.speed * dy / dist;

  // Time for the ray (x, y) + t (vx, vy) to exit the cell's unit square.
  const double cx = std::floor(double(state.cell % width_));
  const double cy = std::floor(double(state.cell / width_));
  double exit = kForever;
  if (vx > 0.0) exit = std::min(exit, (cx + 1.0 - state.x) / vx);
  if (vx < 0.0) exit = std::min(exit, (cx - state.x) / vx);
  if (vy > 0.0) exit = std::min(exit, (cy + 1.0 - state.y) / vy);
  if (vy < 0.0) exit = std::min(exit, (cy - state.y) / vy);

  const double arrive = dist / state.speed;
  if (arrive < exit) return arrive + wander_out;  // leg ends inside the cell
  return exit;
}

double MobilityModel::residency_probability(std::uint32_t client,
                                            Tick horizon) const {
  if (horizon <= 0) return 1.0;
  const double dwell = estimated_dwell(client);
  return std::min(1.0, dwell / double(horizon));
}

void MobilityModel::count_residents(std::vector<std::size_t>& out) const {
  out.assign(cell_count_, 0);
  for (const ClientState& state : clients_) ++out[state.cell];
}

ResidencyPredictor::ResidencyPredictor(const MobilityModel& model,
                                       Tick horizon)
    : model_(&model), horizon_(horizon) {
  if (horizon <= 0) {
    throw std::invalid_argument("ResidencyPredictor: horizon <= 0");
  }
}

}  // namespace mobi::sim
