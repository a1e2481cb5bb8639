#include "exp/mobility_fleet.hpp"

#include <memory>
#include <stdexcept>

#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "object/builders.hpp"

namespace mobi::exp {

MobilityFleet::MobilityFleet(const MultiCellConfig& config)
    : config_(config),
      catalog_([&] {
        util::Rng catalog_rng(config.seed);
        return object::make_random_catalog(config.cell.object_count,
                                           config.cell.size_lo,
                                           config.cell.size_hi, catalog_rng);
      }()) {
  if (config_.topology != CellTopology::kSharded) {
    throw std::invalid_argument("MobilityFleet: sharded topology only");
  }
  if (config_.mobility.empty()) {
    throw std::invalid_argument("MobilityFleet: mobility config is off");
  }
  config_.mobility.validate();
  if (config_.cell_count == 0) {
    throw std::invalid_argument("MobilityFleet: need >= 1 cell");
  }
  if (config_.cell.ticks < 0) {
    throw std::invalid_argument("MobilityFleet: cell.ticks must be >= 0");
  }
  if (!config_.cell_client_counts.empty() &&
      config_.cell_client_counts.size() != config_.cell_count) {
    throw std::invalid_argument(
        "MobilityFleet: cell_client_counts size != cell_count");
  }
  // Different master seeds must yield independent trajectories even when
  // the caller leaves mobility.seed at its default.
  config_.mobility.seed =
      util::SplitMix64(config_.mobility.seed ^ config_.seed).next();

  std::vector<std::size_t> counts(config_.cell_count,
                                  config_.cell.client_count);
  if (!config_.cell_client_counts.empty()) counts = config_.cell_client_counts;
  std::size_t total = 0;
  for (std::size_t count : counts) total += count;

  access_ = make_access(config_.cell.access, config_.cell.object_count,
                        config_.cell.zipf_alpha);
  ticks_ = config_.cell.ticks;

  // Global ids in cell-major order.
  clients_.reserve(total);
  std::vector<std::uint32_t> home;
  home.reserve(total);
  for (std::size_t i = 0; i < config_.cell_count; ++i) {
    for (std::size_t j = 0; j < counts[i]; ++j) {
      clients_.emplace_back(std::uint32_t(clients_.size()), catalog_,
                            config_.cell.client);
      home.push_back(std::uint32_t(i));
    }
  }
  credited_.resize(total);
  // One inbox per cell, never resized (each engine holds its address). A
  // tick moves each client at most once in waypoint mode, so a cell's
  // releases plus admits stay within the population.
  inboxes_.resize(config_.cell_count);
  cells_.reserve(config_.cell_count);
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < config_.cell_count; ++i) {
    client::CellConfig cell = config_.cell;
    cell.seed = shard_seed(config_.seed, i);
    cell.client_count = counts[i];
    std::vector<std::uint32_t> roster(counts[i]);
    for (std::uint32_t& id : roster) id = first++;
    // Same stream discipline as run_cell, except that the catalog draw
    // run_cell takes from the cell's root stream happens once, fleet-
    // wide, from the master seed — per-cell catalogs cannot host
    // migrating clients.
    cells_.push_back(std::make_unique<client::CellEngine>(
        cell, catalog_, *access_, clients_, credited_, std::move(roster),
        util::Rng(cell.seed), config_.mobility_delivery_ticks));
    inboxes_[i].reserve(total);
    cells_.back()->attach_inbox(&inboxes_[i]);
  }

  model_.emplace(config_.mobility, config_.cell_count, home);
  if (config_.mobility_predictive) {
    predictor_.emplace(*model_, config_.mobility_horizon);
    probe_.emplace(*predictor_);
    for (auto& cell : cells_) cell->station().set_residency_probe(&*probe_);
  }
  block_crossings_.resize(kModelBlocks);
  for (std::size_t b = 0; b < kModelBlocks; ++b) {
    block_crossings_[b].reserve(total * (b + 1) / kModelBlocks -
                                total * b / kModelBlocks);
  }
  rows_.reserve(std::size_t(ticks_));
}

void MobilityFleet::set_tracer(std::size_t cell, obs::RequestTracer* tracer) {
  cells_.at(cell)->set_tracer(tracer);
}

void MobilityFleet::attach_series(std::size_t cell,
                                  client::CellSeries* series) {
  cells_.at(cell)->attach_series(series);
}

void MobilityFleet::set_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    cells_phase_ = profiler_->phase("fleet.cells");
    barrier_phase_ = profiler_->phase("fleet.barrier");
  }
}

void MobilityFleet::run_index(sim::Tick t, std::size_t index) {
  if (index < cells_.size()) {
    cells_[index]->tick(t);
    return;
  }
  const std::size_t block = index - cells_.size();
  const std::size_t n = clients_.size();
  model_->advance(t, n * block / kModelBlocks, n * (block + 1) / kModelBlocks,
                  block_crossings_[block]);
}

std::size_t MobilityFleet::barrier(sim::Tick t) {
  model_->publish(t);
  // Block order is crossing order: a client that hops through two cells
  // this tick leaves the first before it can leave the second. Each
  // inbox keeps that order for its own cell, which is all a roster needs.
  std::size_t crossings = 0;
  for (const std::vector<sim::Crossing>& block : block_crossings_) {
    crossings += block.size();
    for (const sim::Crossing& crossing : block) {
      client::MobileClient& client = clients_[crossing.client];
      const object::Units units = client.local_cache().used();
      if (obs::RequestTracer* tracer = cells_[crossing.from]->tracer()) {
        tracer->on_handoff(crossing.client, crossing.to, double(units));
      }
      inboxes_[crossing.from].push_back({crossing.client, false});
      inboxes_[crossing.to].push_back({crossing.client, true});
      client.begin_handoff(config_.mobility.handoff_ticks);
      stats_.migrated_units += std::uint64_t(units);
    }
  }
  stats_.crossings += crossings;
  stats_.migrations += crossings;
  stats_.deliveries = 0;
  stats_.lost_deliveries = 0;
  for (const auto& cell : cells_) {
    stats_.deliveries += cell->delivered_payloads();
    stats_.lost_deliveries += cell->lost_deliveries();
  }
  rows_.push_back(stats_);
  return crossings;
}

void MobilityFleet::step(util::ThreadPool* pool) {
  if (done()) throw std::logic_error("MobilityFleet: run already complete");
  const sim::Tick t = next_tick_++;
  {
    // Driver-side span: wall time covers the whole (possibly parallel)
    // region; the workers themselves never touch the profiler.
    obs::ScopedPhase span(profiler_, cells_phase_);
    span.add_cost(cells_.size());
    // Capture no more than 16 bytes: std::function keeps that inline, and
    // a larger capture allocates on every tick.
    util::parallel_for(pool, 0, cells_.size() + kModelBlocks,
                       [this, t](std::size_t i) { run_index(t, i); });
  }
  {
    obs::ScopedPhase span(profiler_, barrier_phase_);
    span.add_cost(barrier(t));
  }
  // Handoffs granted at the last barrier land in the cell the client
  // ends the run in.
  if (done()) {
    for (auto& cell : cells_) cell->settle();
  }
}

}  // namespace mobi::exp
