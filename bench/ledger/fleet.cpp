// The three fleet topologies, each one exp::run_multi_cell call per
// repetition. fleet_sharded loads the cell tick loop, the retry path and
// the shard scheduler with small knapsacks; fleet_coop puts writes beside
// reads so the coherence directory and the peer tier work; fleet_mobility
// is bound by the single-threaded handoff barrier.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "exp/multi_cell.hpp"
#include "ledger.hpp"

namespace ledger {
namespace {

using namespace mobi;

enum class Kind { kSharded, kCoop, kMobility };

// Zipf(alpha) client counts per cell, largest first. Rank order on
// purpose: real hotspots cluster, so the heavy head sits in one contiguous
// run of shard indices — the imbalance LPT packing plus stealing exists
// for. The fleet total stays cells x clients_per_cell.
std::vector<std::size_t> zipf_client_counts(std::size_t cells,
                                            std::size_t clients_per_cell,
                                            double alpha) {
  const std::size_t total = cells * clients_per_cell;
  std::vector<double> weights(cells);
  double sum = 0.0;
  for (std::size_t r = 0; r < cells; ++r) {
    weights[r] = 1.0 / std::pow(double(r + 1), alpha);
    sum += weights[r];
  }
  std::vector<std::size_t> counts(cells);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < cells; ++r) {
    counts[r] = std::max<std::size_t>(
        1, std::size_t(std::llround(double(total) * weights[r] / sum)));
    assigned += counts[r];
  }
  if (assigned < total) {
    counts[0] += total - assigned;
  } else {
    std::size_t excess = assigned - total;
    for (std::size_t r = 0; r < cells && excess > 0; ++r) {
      const std::size_t take = std::min(excess, counts[r] - 1);
      counts[r] -= take;
      excess -= take;
    }
  }
  return counts;
}

exp::MultiCellConfig base_config(Kind kind, std::uint64_t seed) {
  exp::MultiCellConfig config;
  config.seed = seed;
  config.schedule = exp::ShardSchedule::kLptSteal;
  switch (kind) {
    case Kind::kSharded:
      config.cell_count = 32;
      config.cell.object_count = 200;
      config.cell.client_count = 40;
      config.cell_client_counts = zipf_client_counts(32, 40, 1.0);
      config.cell.base_budget = 60;
      config.cell.ticks = 3000;
      config.cell.faults.fetch_failure_rate = 0.05;
      config.cell.faults.downlink_drop_rate = 0.02;
      config.cell.fetch_retry_limit = 3;
      break;
    case Kind::kCoop:
      config.topology = exp::CellTopology::kCoopClusters;
      config.cell_count = 24;
      config.cells_per_cluster = 3;
      config.cluster.object_count = 400;
      config.cluster.requests_per_tick_per_cell = 60;
      config.cluster.budget_per_cell = 40;
      config.cluster.update_period = 2;
      config.cluster.coherence.enabled = true;
      config.cluster.coherence.mode = coop::ConsistencyMode::kInvalidate;
      config.cluster.warmup_ticks = 50;
      config.cluster.measure_ticks = 8000;
      break;
    case Kind::kMobility:
      config.cell_count = 16;
      config.cell.object_count = 200;
      config.cell.client_count = 40;
      config.cell.base_budget = 40;
      config.cell.ticks = 5000;
      config.mobility.mode = sim::MobilityMode::kRandomWaypoint;
      config.mobility.speed_lo = 0.05;
      config.mobility.speed_hi = 0.2;
      config.mobility.pause_lo = 0;
      config.mobility.pause_hi = 4;
      config.mobility.handoff_ticks = 6;
      config.mobility_delivery_ticks = 2;
      config.mobility_horizon = 10;
      config.mobility_predictive = true;
      break;
  }
  return config;
}

sim::Tick scaled(sim::Tick ticks, double scale, sim::Tick floor) {
  return std::max(floor, sim::Tick(std::lround(double(ticks) * scale)));
}

void digest_cell(Digest& digest, const client::CellResult& c) {
  for (std::uint64_t word :
       {std::uint64_t(c.requests), std::uint64_t(c.served_locally),
        std::uint64_t(c.served_by_base), std::uint64_t(c.base_downloaded),
        c.sleeper_drops, c.disconnect_ticks, c.failed_fetches, c.retries,
        c.retry_successes, c.degraded_serves, c.handoffs,
        std::uint64_t(c.downlink_dropped)}) {
    digest.add(word);
  }
  digest.add(c.score_sum);
}

void digest_cluster(Digest& digest, const coop::CoopResult& c) {
  for (std::uint64_t word :
       {std::uint64_t(c.requests), std::uint64_t(c.origin_units),
        std::uint64_t(c.neighbor_units), std::uint64_t(c.origin_fetches),
        std::uint64_t(c.neighbor_fetches), c.invalidations, c.propagations,
        c.lease_expiries, c.peer_hits, std::uint64_t(c.peer_fetch_units),
        std::uint64_t(c.coherence_units)}) {
    digest.add(word);
  }
  digest.add(c.score_sum);
  digest.add(c.recency_sum);
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const char* name, Kind kind, std::uint64_t seed)
      : name_(name), kind_(kind), full_(base_config(kind, seed)),
        config_(full_) {}

  bool pooled() const override { return true; }

  void set_scale(double scale) override {
    config_ = full_;
    if (kind_ == Kind::kCoop) {
      config_.cluster.warmup_ticks = scaled(full_.cluster.warmup_ticks, scale, 1);
      config_.cluster.measure_ticks =
          scaled(full_.cluster.measure_ticks, scale, 2);
    } else {
      config_.cell.ticks = scaled(full_.cell.ticks, scale, 2);
    }
  }

  double bring_up(util::ThreadPool* pool,
                  std::uint64_t* armed_allocs) override {
    exp::MultiCellConfig one_tick = config_;
    if (kind_ == Kind::kCoop) {
      one_tick.cluster.warmup_ticks = 0;
      one_tick.cluster.measure_ticks = 1;
    } else {
      one_tick.cell.ticks = 1;
    }
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    exp::run_multi_cell(one_tick, pool);
    const double seconds = seconds_since(start);
    if (armed_allocs != nullptr) *armed_allocs = allocations() - a0;
    return seconds;
  }

  Rep run(util::ThreadPool* pool, obs::PhaseProfiler* profiler,
          Gate& gate) override {
    exp::MultiCellObservers observers;
    observers.profiler = profiler;
    const obs::PhaseProfiler::PhaseId span_id =
        profiler != nullptr ? profiler->phase("exp.run_multi_cell") : 0;

    Rep rep;
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    exp::MultiCellResult r;
    {
      obs::ScopedPhase span(profiler, span_id);
      r = exp::run_multi_cell(config_, pool, observers);
    }
    rep.seconds = seconds_since(start);
    rep.allocations = allocations() - a0;
    rep.requests = r.total_requests;
    rep.counters = {{"steals", double(r.schedule_stats.steals)},
                    {"cells", double(r.cells)}};
    if (pool != nullptr) {
      // The LPT plan's busiest worker against a perfect split of the
      // estimated shard costs: 1 is perfect balance.
      const std::vector<std::uint64_t> costs =
          exp::shard_cost_estimates(config_);
      const double total =
          std::accumulate(costs.begin(), costs.end(), 0.0);
      const double makespan =
          double(util::lpt_plan(costs, pool->size()).makespan());
      rep.counters.push_back(
          {"makespan_ratio", makespan * double(pool->size()) / total});
    }

    Digest digest;
    if (kind_ == Kind::kCoop) {
      const coop::CoopResult& agg = r.coop_aggregate;
      rep.ticks = std::uint64_t(config_.cluster.warmup_ticks +
                                config_.cluster.measure_ticks);
      rep.avg_score = agg.average_score();
      rep.units_per_request = double(agg.origin_units) / double(agg.requests);
      rep.counters.push_back({"peer_fraction", agg.neighbor_fraction()});
      rep.counters.push_back({"invalidations", double(agg.invalidations)});
      gate.check(agg.requests ==
                     config_.cell_count *
                         config_.cluster.requests_per_tick_per_cell *
                         std::size_t(config_.cluster.measure_ticks),
                 std::string(name_) + ": every measured request is scored");
      for (const auto& cluster : r.per_cluster) digest_cluster(digest, cluster);
    } else {
      const client::CellResult& agg = r.aggregate;
      rep.ticks = std::uint64_t(config_.cell.ticks);
      rep.avg_score = agg.average_score();
      rep.units_per_request =
          double(agg.base_downloaded) / double(agg.requests);
      rep.counters.push_back({"local_hit_rate", agg.local_hit_rate()});
      rep.counters.push_back({"retries", double(agg.retries)});
      rep.counters.push_back({"retry_successes", double(agg.retry_successes)});
      rep.counters.push_back({"degraded_serves", double(agg.degraded_serves)});
      rep.counters.push_back({"served_by_base", double(agg.served_by_base)});
      bool conserved = true;
      for (const auto& cell : r.per_cell) {
        conserved = conserved &&
                    cell.requests == cell.served_locally + cell.served_by_base;
        digest_cell(digest, cell);
      }
      gate.check(conserved, std::string(name_) +
                                ": requests == served_locally + served_by_base");
      if (kind_ == Kind::kMobility) check_mobility(r, gate, rep, digest);
    }
    rep.digest = digest.value();
    return rep;
  }

  std::uint64_t reference_digest(Gate& gate) override {
    return run(nullptr, nullptr, gate).digest;
  }

  const exp::MultiCellConfig& config() const noexcept { return config_; }

 private:
  void check_mobility(const exp::MultiCellResult& r, Gate& gate, Rep& rep,
                      Digest& digest) const {
    const exp::MobilityRunStats& m = r.mobility;
    // Census: every client the fleet started with is resident in exactly
    // one valid cell at the end.
    bool placed = r.client_cells.size() ==
                  config_.cell_count * config_.cell.client_count;
    for (std::uint32_t cell : r.client_cells) {
      placed = placed && cell < config_.cell_count;
    }
    gate.check(placed, std::string(name_) + ": client census is conserved");
    gate.check(m.deliveries + m.lost_deliveries <= r.aggregate.served_by_base,
               std::string(name_) + ": deliveries + lost <= base serves");
    rep.lost = m.lost_deliveries;
    rep.counters.push_back({"crossings", double(m.crossings)});
    rep.counters.push_back({"deliveries", double(m.deliveries)});
    rep.counters.push_back({"lost_deliveries", double(m.lost_deliveries)});
    for (std::uint64_t word : {m.crossings, m.migrations, m.migrated_units,
                               m.deliveries, m.lost_deliveries}) {
      digest.add(word);
    }
    for (std::uint32_t cell : r.client_cells) digest.add(std::uint64_t(cell));
  }

  const char* name_;
  Kind kind_;
  exp::MultiCellConfig full_;
  exp::MultiCellConfig config_;
};

}  // namespace

coop::CoopConfig fleet_coop_cluster(std::uint64_t seed, double scale) {
  FleetWorkload fleet("fleet_coop", Kind::kCoop, seed);
  fleet.set_scale(scale);
  const exp::MultiCellConfig& config = fleet.config();
  coop::CoopConfig cluster = config.cluster;
  cluster.seed = exp::shard_seed(config.seed, 0);
  cluster.cell_count = config.cells_per_cluster;
  return cluster;
}

std::unique_ptr<Workload> make_fleet(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "fleet_sharded") {
    return std::make_unique<FleetWorkload>("fleet_sharded", Kind::kSharded,
                                           seed);
  }
  if (name == "fleet_coop") {
    return std::make_unique<FleetWorkload>("fleet_coop", Kind::kCoop, seed);
  }
  if (name == "fleet_mobility") {
    return std::make_unique<FleetWorkload>("fleet_mobility", Kind::kMobility,
                                           seed);
  }
  throw std::invalid_argument("unknown fleet workload '" + name + "'");
}

}  // namespace ledger
