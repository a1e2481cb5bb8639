#include "coop/cooperative.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cache/cache.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace mobi::coop {

const char* fetch_mode_name(FetchMode mode) noexcept {
  switch (mode) {
    case FetchMode::kOriginOnly: return "origin-only";
    case FetchMode::kNeighborFirst: return "neighbor-first";
  }
  return "?";
}

namespace {

std::shared_ptr<const workload::AccessDistribution> make_access(
    const CoopConfig& config, util::Rng& rng, std::size_t cell) {
  std::vector<object::ObjectId> mapping;
  if (config.distinct_interests && cell > 0) {
    mapping = [&] {
      std::vector<object::ObjectId> ids(config.object_count);
      const auto perm = rng.permutation(config.object_count);
      for (std::size_t i = 0; i < perm.size(); ++i) {
        ids[i] = object::ObjectId(perm[i]);
      }
      return ids;
    }();
  }
  switch (config.access) {
    case exp::AccessPattern::kUniform:
      return workload::make_uniform_access(config.object_count);
    case exp::AccessPattern::kRankLinear:
      return workload::make_rank_linear_access(config.object_count,
                                               std::move(mapping));
    case exp::AccessPattern::kZipf:
      return workload::make_zipf_access(config.object_count,
                                        config.zipf_alpha, std::move(mapping));
  }
  throw std::invalid_argument("make_access: bad pattern");
}

void validate(const CoopConfig& config) {
  if (config.cell_count == 0) {
    throw std::invalid_argument("run_cooperative: need >= 1 cell");
  }
  if (config.neighbor_recency_threshold <= 0.0 ||
      config.neighbor_recency_threshold > 1.0) {
    throw std::invalid_argument(
        "run_cooperative: neighbor threshold must be in (0, 1]");
  }
  if (config.warmup_ticks < 0 || config.measure_ticks < 0) {
    throw std::invalid_argument(
        "run_cooperative: warmup_ticks and measure_ticks must be >= 0");
  }
}

// Coherence off, neighbor-first: the best copy any other cell holds at or
// above the acceptance threshold, copied at full size. No directory
// tracks sharers, so fills need no bookkeeping.
class NeighborCopies final : public core::PeerSource {
 public:
  NeighborCopies(std::vector<const cache::Cache*> others, double threshold)
      : others_(std::move(others)), threshold_(threshold) {}

  core::PeerCopy lookup(object::ObjectId id, sim::Tick) const override {
    core::PeerCopy best;
    for (const cache::Cache* other : others_) {
      best.recency = std::max(best.recency, other->recency_or_zero(id));
    }
    best.valid = best.recency >= threshold_;
    return best;
  }
  void on_cache_fill(object::ObjectId, sim::Tick) override {}

 private:
  std::vector<const cache::Cache*> others_;
  double threshold_;
};

}  // namespace

// One cooperating cell: a base station (cache, download policy, serve
// loop, downlink), its request stream and its peer source. Stations and
// batches are retained across ticks, so the steady state allocates
// nothing (tests/alloc_regression_test.cpp).
struct CoopCluster::Impl {
  struct Cell {
    std::unique_ptr<core::BaseStation> station;
    std::unique_ptr<workload::RequestGenerator> requests;
    std::unique_ptr<core::PeerSource> peers;  // nullptr: origin only
    workload::RequestBatch batch;
  };

  // Declaration order is construction order: the RNG births the catalog,
  // then each cell draws its access mapping and split stream in cell
  // order.
  util::Rng rng;
  object::Catalog catalog;
  server::ServerPool servers;
  std::vector<Cell> cells;
  std::unique_ptr<workload::UpdateProcess> updates;
  std::unique_ptr<CoherenceDirectory> directory;  // coherence only

  explicit Impl(const CoopConfig& config)
      : rng(config.seed),
        catalog(object::make_random_catalog(config.object_count,
                                            config.size_lo, config.size_hi,
                                            rng)),
        servers(catalog, 1),
        cells(config.cell_count) {
    const std::shared_ptr<const cache::DecayModel> decay =
        cache::make_harmonic_decay();
    core::BaseStationConfig station;
    station.download_budget = config.budget_per_cell;
    // Room for every response a tick can queue, so the downlink drains
    // each tick and its backlog never grows.
    station.downlink_capacity = std::max<object::Units>(
        1, object::Units(config.requests_per_tick_per_cell) * config.size_hi);
    for (std::size_t c = 0; c < config.cell_count; ++c) {
      cells[c].station = std::make_unique<core::BaseStation>(
          catalog, servers, decay, std::make_unique<core::ReciprocalScorer>(),
          core::make_policy(config.policy), station);
      cells[c].requests = std::make_unique<workload::RequestGenerator>(
          make_access(config, rng, c), workload::ConstantTarget{1.0},
          config.requests_per_tick_per_cell, rng.split());
    }
    updates = workload::make_periodic_staggered(config.object_count,
                                                config.update_period);
    const bool neighbor_first = config.mode == FetchMode::kNeighborFirst;
    if (config.coherence.enabled) {
      directory = std::make_unique<CoherenceDirectory>(
          config.object_count, config.cell_count, config.coherence);
      // Origin-only still registers every fill as a sharer; the threshold
      // no copy can meet keeps peer copies out of pricing and fetches.
      const double threshold =
          neighbor_first ? config.neighbor_recency_threshold
                         : std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < config.cell_count; ++c) {
        auto view =
            std::make_unique<PeerCacheView>(*directory, c, threshold);
        for (std::size_t d = 0; d < config.cell_count; ++d) {
          view->set_cell_cache(d, &cells[d].station->cache());
        }
        cells[c].peers = std::move(view);
      }
    } else if (neighbor_first) {
      for (std::size_t c = 0; c < config.cell_count; ++c) {
        std::vector<const cache::Cache*> others;
        for (std::size_t d = 0; d < config.cell_count; ++d) {
          if (d != c) others.push_back(&cells[d].station->cache());
        }
        cells[c].peers = std::make_unique<NeighborCopies>(
            std::move(others), config.neighbor_recency_threshold);
      }
    }
    for (Cell& cell : cells) cell.station->set_peer_source(cell.peers.get());
  }
};

CoopCluster::CoopCluster(const CoopConfig& config) : config_(config) {
  validate(config_);
  impl_ = std::make_unique<Impl>(config_);
  if (impl_->directory) impl_->directory->set_listener(this);
}

CoopCluster::~CoopCluster() = default;

std::size_t CoopCluster::cell_count() const noexcept {
  return impl_->cells.size();
}

const cache::Cache& CoopCluster::cell_cache(std::size_t cell) const {
  return impl_->cells.at(cell).station->cache();
}

const server::ServerPool& CoopCluster::servers() const noexcept {
  return impl_->servers;
}

const object::Catalog& CoopCluster::catalog() const noexcept {
  return impl_->catalog;
}

const CoherenceDirectory* CoopCluster::directory() const noexcept {
  return impl_->directory.get();
}

void CoopCluster::set_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    coherence_phase_ = profiler_->phase("coop.coherence");
    cells_phase_ = profiler_->phase("coop.cells");
  }
  for (Impl::Cell& cell : impl_->cells) cell.station->set_profiler(profiler);
}

void CoopCluster::invalidate_copy(std::size_t cell, object::ObjectId id) {
  impl_->cells[cell].station->cache().evict(id);
}

void CoopCluster::propagate_copy(std::size_t cell, object::ObjectId id) {
  // The pushed update installs the new master version at full recency;
  // the wire cost is accounted by the directory.
  impl_->cells[cell].station->cache().refresh(id, impl_->servers.fetch(id),
                                              now_, 1.0);
}

void CoopCluster::expire_copy(std::size_t cell, object::ObjectId id) {
  impl_->cells[cell].station->cache().evict(id);
}

void CoopCluster::tick() {
  Impl& im = *impl_;
  const sim::Tick t = now_;
  CoherenceDirectory* dir = im.directory.get();

  updates_this_tick_ = 0;
  if (profiler_) profiler_->enter(coherence_phase_);

  // Lease sweep first: copies whose TTL ran out overnight must not serve
  // this tick's requests (tests pin lease_expiry > t for every copy).
  if (dir) dir->begin_tick(t);

  // [this, t] fits std::function's small-buffer optimisation, so the
  // per-tick update walk allocates nothing.
  im.updates->for_each_updated(t, [this, t](object::ObjectId id) {
    Impl& im2 = *impl_;
    ++updates_this_tick_;
    im2.servers.apply_update(id, t);
    CoherenceDirectory* dir2 = im2.directory.get();
    if (!dir2) {
      // No protocol: every cell decays its own copy.
      for (auto& cell : im2.cells) cell.station->cache().on_server_update(id);
      return;
    }
    switch (config_.coherence.mode) {
      case ConsistencyMode::kInvalidate:
      case ConsistencyMode::kPropagate:
        // The protocol owns the copies: sharers are evicted or refreshed
        // in place via the listener; nothing else caches the object.
        dir2->on_server_update(id);
        break;
      case ConsistencyMode::kLease:
        // Leased copies keep serving but their recency decays honestly —
        // the scoring must reflect that a served copy missed an update.
        for (auto& cell : im2.cells) cell.station->cache().on_server_update(id);
        dir2->on_server_update(id);
        break;
    }
  });
  if (profiler_) {
    profiler_->add_cost(updates_this_tick_);
    profiler_->exit();
    profiler_->enter(cells_phase_);
  }

  // Each cell's station selects, fetches (origin or its peer source) and
  // serves; the cluster folds the measured ticks into the result.
  const bool measured = t >= config_.warmup_ticks;
  for (Impl::Cell& cell : im.cells) {
    cell.requests->next_batch_into(cell.batch);
    if (profiler_) profiler_->add_cost(cell.batch.size());
    const core::TickResult r = cell.station->process_batch(cell.batch, t);
    if (!measured) continue;
    result_.requests += r.requests;
    result_.score_sum += r.score_sum;
    result_.recency_sum += r.recency_sum;
    result_.origin_units += r.units_downloaded;
    result_.origin_fetches += r.objects_downloaded;
    result_.neighbor_units += r.peer_object_units;
    result_.neighbor_fetches += r.peer_fetches;
    if (dir) {  // protocol accounting stays zero with coherence off
      result_.peer_hits += r.peer_fetches;
      result_.peer_fetch_units += r.peer_units;
    }
  }

  if (profiler_) profiler_->exit();

  if (dir) {
    // Directory counters run from tick 0 (the protocol has no warmup);
    // the measured window reports deltas against the end-of-warmup
    // snapshot so warmup rows stay all-zero like every other field.
    if (t + 1 == config_.warmup_ticks) warmup_snapshot_ = dir->stats();
    if (measured) {
      const CoherenceStats& s = dir->stats();
      result_.invalidations = s.invalidations - warmup_snapshot_.invalidations;
      result_.propagations = s.propagations - warmup_snapshot_.propagations;
      result_.lease_expiries =
          s.lease_expiries - warmup_snapshot_.lease_expiries;
      result_.coherence_units =
          s.coherence_units - warmup_snapshot_.coherence_units;
    }
  }
  ++now_;
}

namespace {

// The per-tick coop.* series run_cooperative records into a recorder's
// registry (the golden_coop document).
struct CoopMetrics {
  CoopMetrics(obs::MetricsRegistry& r, std::size_t cells)
      : requests(r.register_counter("coop.requests")),
        origin_units(r.register_counter("coop.origin_units")),
        neighbor_units(r.register_counter("coop.neighbor_units")),
        origin_fetches(r.register_counter("coop.origin_fetches")),
        neighbor_fetches(r.register_counter("coop.neighbor_fetches")),
        invalidations(r.register_counter("coop.coherence.invalidations")),
        propagations(r.register_counter("coop.coherence.propagations")),
        lease_expiries(r.register_counter("coop.coherence.lease_expiries")),
        peer_hits(r.register_counter("coop.coherence.peer_hits")),
        peer_fetch_units(
            r.register_counter("coop.coherence.peer_fetch_units")),
        wire_units(r.register_counter("coop.coherence.wire_units")),
        score_sum(r.register_gauge("coop.score_sum")),
        average_score(r.register_gauge("coop.average_score")),
        average_recency(r.register_gauge("coop.average_recency")) {
    r.register_gauge("coop.cells").set(double(cells));
  }

  // Counters advance by the cumulative result's delta since last tick.
  void record(const CoopResult& now) {
    requests.add(now.requests - prev.requests);
    origin_units.add(std::uint64_t(now.origin_units - prev.origin_units));
    neighbor_units.add(
        std::uint64_t(now.neighbor_units - prev.neighbor_units));
    origin_fetches.add(now.origin_fetches - prev.origin_fetches);
    neighbor_fetches.add(now.neighbor_fetches - prev.neighbor_fetches);
    invalidations.add(now.invalidations - prev.invalidations);
    propagations.add(now.propagations - prev.propagations);
    lease_expiries.add(now.lease_expiries - prev.lease_expiries);
    peer_hits.add(now.peer_hits - prev.peer_hits);
    peer_fetch_units.add(
        std::uint64_t(now.peer_fetch_units - prev.peer_fetch_units));
    wire_units.add(std::uint64_t(now.coherence_units - prev.coherence_units));
    score_sum.set(now.score_sum);
    average_score.set(now.average_score());
    average_recency.set(now.average_recency());
    prev = now;
  }

  obs::Counter& requests;
  obs::Counter& origin_units;
  obs::Counter& neighbor_units;
  obs::Counter& origin_fetches;
  obs::Counter& neighbor_fetches;
  obs::Counter& invalidations;
  obs::Counter& propagations;
  obs::Counter& lease_expiries;
  obs::Counter& peer_hits;
  obs::Counter& peer_fetch_units;
  obs::Counter& wire_units;
  obs::Gauge& score_sum;
  obs::Gauge& average_score;
  obs::Gauge& average_recency;
  CoopResult prev;
};

}  // namespace

CoopResult run_cooperative(const CoopConfig& config,
                           std::vector<CoopResult>* per_tick,
                           obs::SeriesRecorder* recorder) {
  std::optional<CoopMetrics> metrics;
  if (recorder) metrics.emplace(recorder->registry(), config.cell_count);
  CoopCluster cluster(config);
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    cluster.tick();
    if (per_tick) per_tick->push_back(cluster.result());
    if (recorder) {
      metrics->record(cluster.result());
      recorder->sample(t);
    }
  }
  return cluster.result();
}

}  // namespace mobi::coop
