#include "coop/cooperative.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cache/cache.hpp"
#include "cache/decay.hpp"
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

}  // namespace

// One cooperating cell: the cache, its download policy, its request
// stream, a coherent window onto the peers (coherence only), and the
// per-tick scratch retained across ticks so the steady state allocates
// nothing (tests/alloc_regression_test.cpp).
struct CoopCluster::Impl {
  struct Cell {
    std::unique_ptr<cache::Cache> cache;
    std::unique_ptr<core::DownloadPolicy> policy;
    std::unique_ptr<workload::RequestGenerator> requests;
    std::unique_ptr<PeerCacheView> view;  // coherence only
    workload::RequestBatch batch;
    std::vector<object::ObjectId> to_fetch;
  };

  // Declaration order *is* the original construction order: the RNG
  // births the catalog, then each cell draws its access mapping and
  // split stream in cell order — the draw sequence the reference loop
  // consumes, bit for bit.
  util::Rng rng;
  object::Catalog catalog;
  server::ServerPool servers;
  std::shared_ptr<const cache::DecayModel> decay;
  core::ReciprocalScorer scorer;
  std::vector<Cell> cells;
  std::unique_ptr<workload::UpdateProcess> updates;
  std::unique_ptr<CoherenceDirectory> directory;  // coherence only

  explicit Impl(const CoopConfig& config)
      : rng(config.seed),
        catalog(object::make_random_catalog(config.object_count,
                                            config.size_lo, config.size_hi,
                                            rng)),
        servers(catalog, 1),
        decay(cache::make_harmonic_decay()),
        cells(config.cell_count) {
    for (std::size_t c = 0; c < config.cell_count; ++c) {
      cells[c].cache = std::make_unique<cache::Cache>(catalog.size(), decay);
      cells[c].policy = core::make_policy(config.policy);
      cells[c].requests = std::make_unique<workload::RequestGenerator>(
          make_access(config, rng, c), workload::ConstantTarget{1.0},
          config.requests_per_tick_per_cell, rng.split());
    }
    updates = workload::make_periodic_staggered(config.object_count,
                                                config.update_period);
    if (config.coherence.enabled) {
      directory = std::make_unique<CoherenceDirectory>(
          config.object_count, config.cell_count, config.coherence);
      for (std::size_t c = 0; c < config.cell_count; ++c) {
        cells[c].view = std::make_unique<PeerCacheView>(
            *directory, c, config.neighbor_recency_threshold);
        for (std::size_t d = 0; d < config.cell_count; ++d) {
          cells[c].view->set_cell_cache(d, cells[d].cache.get());
        }
      }
    }
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
  return *impl_->cells.at(cell).cache;
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
}

void CoopCluster::invalidate_copy(std::size_t cell, object::ObjectId id) {
  impl_->cells[cell].cache->evict(id);
}

void CoopCluster::propagate_copy(std::size_t cell, object::ObjectId id) {
  // The pushed update installs the new master version at full recency;
  // the wire cost is accounted by the directory.
  impl_->cells[cell].cache->refresh(id, impl_->servers.fetch(id), now_, 1.0);
}

void CoopCluster::expire_copy(std::size_t cell, object::ObjectId id) {
  impl_->cells[cell].cache->evict(id);
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
      // Pre-coherence behavior, bit for bit: every cell decays.
      for (auto& cell : im2.cells) cell.cache->on_server_update(id);
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
        for (auto& cell : im2.cells) cell.cache->on_server_update(id);
        dir2->on_server_update(id);
        break;
    }
  });
  if (profiler_) {
    profiler_->add_cost(updates_this_tick_);
    profiler_->exit();
    profiler_->enter(cells_phase_);
  }

  const bool measured = t >= config_.warmup_ticks;
  for (std::size_t c = 0; c < im.cells.size(); ++c) {
    Impl::Cell& cell = im.cells[c];
    cell.requests->next_batch_into(cell.batch);
    if (profiler_) profiler_->add_cost(cell.batch.size());
    core::PolicyContext ctx;
    ctx.catalog = &im.catalog;
    ctx.cache = cell.cache.get();
    ctx.servers = &im.servers;
    ctx.scorer = &im.scorer;
    ctx.now = t;
    ctx.budget = config_.budget_per_cell;
    // The knapsack prices the peer tier only when the protocol is on and
    // peer fetches are allowed at all; kOriginOnly still runs the
    // protocol (sharer tracking, invalidations) without peer traffic.
    const bool peer_fetches_on =
        dir != nullptr && config_.mode == FetchMode::kNeighborFirst;
    ctx.peers = peer_fetches_on ? cell.view.get() : nullptr;

    cell.policy->select_into(cell.batch, ctx, cell.to_fetch);
    for (object::ObjectId id : cell.to_fetch) {
      if (dir) {
        // Coherent resolution: the same rule the candidate builder
        // priced — a serveable peer copy strictly fresher than our own.
        core::PeerCopy pc;
        if (peer_fetches_on) pc = cell.view->lookup(id, t);
        if (pc.valid && pc.recency > cell.cache->recency_or_zero(id)) {
          cell.cache->refresh(id, im.servers.fetch(id), t, pc.recency);
          cell.view->on_cache_fill(id, t, pc.recency);
          dir->record_peer_fetch(
              core::peer_cost(im.catalog.object_size(id), pc.cost_factor));
          if (measured) {
            result_.neighbor_units += im.catalog.object_size(id);
            ++result_.neighbor_fetches;
          }
        } else {
          cell.cache->refresh(id, im.servers.fetch(id), t);
          cell.view->on_cache_fill(id, t, 1.0);
          if (measured) {
            result_.origin_units += im.catalog.object_size(id);
            ++result_.origin_fetches;
          }
        }
        continue;
      }

      // Pre-coherence resolution, kept verbatim: best neighbor copy at
      // or above the threshold, else origin.
      double best_recency = 0.0;
      if (config_.mode == FetchMode::kNeighborFirst) {
        for (std::size_t other = 0; other < im.cells.size(); ++other) {
          if (other == c) continue;
          best_recency = std::max(best_recency,
                                  im.cells[other].cache->recency_or_zero(id));
        }
      }
      if (best_recency >= config_.neighbor_recency_threshold) {
        // The copied entry keeps the neighbor's recency; recency (not
        // the version counter) is what every policy here consults.
        cell.cache->refresh(id, im.servers.fetch(id), t, best_recency);
        if (measured) {
          result_.neighbor_units += im.catalog.object_size(id);
          ++result_.neighbor_fetches;
        }
      } else {
        cell.cache->refresh(id, im.servers.fetch(id), t);
        if (measured) {
          result_.origin_units += im.catalog.object_size(id);
          ++result_.origin_fetches;
        }
      }
    }

    if (measured) {
      for (const auto& request : cell.batch) {
        const double x = cell.cache->recency_or_zero(request.object);
        result_.recency_sum += x;
        result_.score_sum += im.scorer.score(x, request.target_recency);
        ++result_.requests;
      }
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
      result_.peer_hits = s.peer_hits - warmup_snapshot_.peer_hits;
      result_.peer_fetch_units =
          s.peer_fetch_units - warmup_snapshot_.peer_fetch_units;
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

namespace detail {

CoopResult run_cooperative_reference(const CoopConfig& config,
                                     std::vector<CoopResult>* per_tick) {
  if (config.coherence.enabled) {
    throw std::invalid_argument(
        "run_cooperative_reference: the oracle predates the coherence "
        "protocol; disable coherence");
  }
  validate(config);
  util::Rng rng(config.seed);
  const object::Catalog catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  server::ServerPool servers(catalog, 1);
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  core::ReciprocalScorer scorer;

  struct Cell {
    std::unique_ptr<cache::Cache> cache;
    std::unique_ptr<core::DownloadPolicy> policy;
    std::unique_ptr<workload::RequestGenerator> requests;
  };
  std::vector<Cell> cells(config.cell_count);
  for (std::size_t c = 0; c < config.cell_count; ++c) {
    cells[c].cache = std::make_unique<cache::Cache>(catalog.size(), decay);
    cells[c].policy = core::make_policy(config.policy);
    cells[c].requests = std::make_unique<workload::RequestGenerator>(
        make_access(config, rng, c), workload::ConstantTarget{1.0},
        config.requests_per_tick_per_cell, rng.split());
  }
  auto updates = workload::make_periodic_staggered(config.object_count,
                                                   config.update_period);

  CoopResult result;
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    updates->for_each_updated(t, [&](object::ObjectId id) {
      servers.apply_update(id, t);
      for (auto& cell : cells) cell.cache->on_server_update(id);
    });

    const bool measured = t >= config.warmup_ticks;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Cell& cell = cells[c];
      const auto batch = cell.requests->next_batch();
      core::PolicyContext ctx;
      ctx.catalog = &catalog;
      ctx.cache = cell.cache.get();
      ctx.servers = &servers;
      ctx.scorer = &scorer;
      ctx.now = t;
      ctx.budget = config.budget_per_cell;

      for (object::ObjectId id : cell.policy->select(batch, ctx)) {
        // Resolve: best neighbor copy above the threshold, else origin.
        double best_recency = 0.0;
        if (config.mode == FetchMode::kNeighborFirst) {
          for (std::size_t other = 0; other < cells.size(); ++other) {
            if (other == c) continue;
            best_recency = std::max(
                best_recency, cells[other].cache->recency_or_zero(id));
          }
        }
        if (best_recency >= config.neighbor_recency_threshold) {
          // The copied entry keeps the neighbor's recency; recency (not
          // the version counter) is what every policy here consults.
          cell.cache->refresh(id, servers.fetch(id), t, best_recency);
          if (measured) {
            result.neighbor_units += catalog.object_size(id);
            ++result.neighbor_fetches;
          }
        } else {
          cell.cache->refresh(id, servers.fetch(id), t);
          if (measured) {
            result.origin_units += catalog.object_size(id);
            ++result.origin_fetches;
          }
        }
      }

      if (measured) {
        for (const auto& request : batch) {
          const double x = cell.cache->recency_or_zero(request.object);
          result.recency_sum += x;
          result.score_sum += scorer.score(x, request.target_recency);
          ++result.requests;
        }
      }
    }

    if (per_tick) per_tick->push_back(result);
  }
  return result;
}

}  // namespace detail

}  // namespace mobi::coop
