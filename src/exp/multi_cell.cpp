#include "exp/multi_cell.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "exp/mobility_fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/window.hpp"
#include "util/rng.hpp"

namespace mobi::exp {

const char* cell_topology_name(CellTopology topology) noexcept {
  switch (topology) {
    case CellTopology::kSharded: return "sharded";
    case CellTopology::kCoopClusters: return "coop-clusters";
  }
  return "?";
}

const char* shard_schedule_name(ShardSchedule schedule) noexcept {
  switch (schedule) {
    case ShardSchedule::kStaticBlocked: return "static-blocked";
    case ShardSchedule::kQueue: return "queue";
    case ShardSchedule::kLptSteal: return "lpt-steal";
  }
  return "?";
}

std::uint64_t shard_seed(std::uint64_t master, std::size_t index) noexcept {
  // SplitMix64 advances its state by a fixed gamma per output, so seeding
  // at master + gamma * index and taking one output *is* output `index`
  // of the stream seeded at `master` — a random-access jump, no replay.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return util::SplitMix64(master + kGamma * std::uint64_t(index)).next();
}

std::vector<std::uint64_t> shard_cost_estimates(const MultiCellConfig& config) {
  std::vector<std::uint64_t> costs;
  if (config.topology == CellTopology::kSharded) {
    if (!config.cell_client_counts.empty() &&
        config.cell_client_counts.size() != config.cell_count) {
      throw std::invalid_argument(
          "shard_cost_estimates: cell_client_counts must match cell_count");
    }
    costs.resize(config.cell_count);
    for (std::size_t i = 0; i < config.cell_count; ++i) {
      const std::size_t clients = config.cell_client_counts.empty()
                                      ? config.cell.client_count
                                      : config.cell_client_counts[i];
      costs[i] = std::uint64_t(clients) * std::uint64_t(config.cell.ticks);
    }
    return costs;
  }
  const std::size_t width = config.cells_per_cluster;
  if (width == 0) {
    throw std::invalid_argument("shard_cost_estimates: need >= 1 cell/cluster");
  }
  const std::size_t shards = (config.cell_count + width - 1) / width;
  const std::uint64_t ticks = std::uint64_t(config.cluster.warmup_ticks) +
                              std::uint64_t(config.cluster.measure_ticks);
  costs.resize(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t cells = std::min(width, config.cell_count - i * width);
    costs[i] = std::uint64_t(cells) *
               std::uint64_t(config.cluster.requests_per_tick_per_cell) * ticks;
  }
  return costs;
}

namespace {

void accumulate(client::CellResult& into, const client::CellResult& from) {
  into.requests += from.requests;
  into.served_locally += from.served_locally;
  into.served_by_base += from.served_by_base;
  into.score_sum += from.score_sum;
  into.base_downloaded += from.base_downloaded;
  into.sleeper_drops += from.sleeper_drops;
  into.disconnect_ticks += from.disconnect_ticks;
  into.failed_fetches += from.failed_fetches;
  into.retries += from.retries;
  into.retry_successes += from.retry_successes;
  into.degraded_serves += from.degraded_serves;
  into.handoffs += from.handoffs;
  into.downlink_dropped += from.downlink_dropped;
}

void accumulate(coop::CoopResult& into, const coop::CoopResult& from) {
  into.requests += from.requests;
  into.score_sum += from.score_sum;
  into.recency_sum += from.recency_sum;
  into.origin_units += from.origin_units;
  into.neighbor_units += from.neighbor_units;
  into.origin_fetches += from.origin_fetches;
  into.neighbor_fetches += from.neighbor_fetches;
  into.invalidations += from.invalidations;
  into.propagations += from.propagations;
  into.lease_expiries += from.lease_expiries;
  into.peer_hits += from.peer_hits;
  into.peer_fetch_units += from.peer_fetch_units;
  into.coherence_units += from.coherence_units;
}

// Shard series are cumulative, so summing shard rows at tick t gives the
// fleet-wide cumulative state; counters advance by the per-tick delta.
// Everything runs after the shards have joined, in shard order — the
// recorder never observes scheduling.
//
// Accumulation is shard-major: each shard's series is walked once,
// sequentially, into per-tick accumulator rows, and the registry/sampling
// pass then reads the finished rows. The old shape
// re-walked every shard inside the tick loop, striding across all the
// shard series at once — same arithmetic, much worse locality, and the
// accumulator row was rebuilt from scratch per tick.
template <typename SeriesRows, typename Row>
void accumulate_rows(std::vector<Row>& acc, const SeriesRows& series) {
  const std::size_t ticks = series.empty() ? 0 : series.front().size();
  acc.resize(ticks);
  for (const auto& shard : series) {
    for (std::size_t t = 0; t < ticks; ++t) accumulate(acc[t], shard[t]);
  }
}

// `mobility` (row t = cumulative handoff totals through tick t) adds
// mc.mobility.* counters; nullptr — every mobility-off run — registers
// nothing, keeping the registry byte-identical to the pre-mobility path.
template <typename SeriesRows>
void record_sharded(obs::SeriesRecorder& recorder, const SeriesRows& series,
                    std::size_t cells,
                    const std::vector<MobilityRunStats>* mobility = nullptr,
                    obs::WindowAggregator* windows = nullptr) {
  obs::MetricsRegistry& registry = recorder.registry();
  obs::Counter& requests = registry.register_counter("mc.requests");
  obs::Counter& local_hits = registry.register_counter("mc.local_hits");
  obs::Counter& base_serves = registry.register_counter("mc.base_serves");
  obs::Counter& units = registry.register_counter("mc.units_downloaded");
  obs::Counter& drops = registry.register_counter("mc.sleeper_drops");
  obs::Counter& disconnects = registry.register_counter("mc.disconnect_ticks");
  obs::Counter& failed = registry.register_counter("mc.failed_fetches");
  obs::Counter& degraded = registry.register_counter("mc.degraded_serves");
  obs::Gauge& score_sum = registry.register_gauge("mc.score_sum");
  obs::Gauge& average_score = registry.register_gauge("mc.average_score");
  registry.register_gauge("mc.cells").set(double(cells));
  obs::Counter* mob_crossings = nullptr;
  obs::Counter* mob_migrations = nullptr;
  obs::Counter* mob_units = nullptr;
  obs::Counter* mob_deliveries = nullptr;
  obs::Counter* mob_lost = nullptr;
  if (mobility) {
    mob_crossings = &registry.register_counter("mc.mobility.crossings");
    mob_migrations = &registry.register_counter("mc.mobility.migrations");
    mob_units = &registry.register_counter("mc.mobility.migrated_units");
    mob_deliveries = &registry.register_counter("mc.mobility.deliveries");
    mob_lost = &registry.register_counter("mc.mobility.lost_deliveries");
  }

  std::vector<client::CellResult> acc;
  accumulate_rows(acc, series);
  recorder.reserve(recorder.samples() + acc.size());
  // Column snapshot must follow the last registration above (and any
  // slo.* / prof.phase.* counters the caller registered beforehand).
  if (windows) windows->begin();
  client::CellResult prev;
  MobilityRunStats mob_prev;
  for (std::size_t t = 0; t < acc.size(); ++t) {
    const client::CellResult& now = acc[t];
    requests.add(now.requests - prev.requests);
    local_hits.add(now.served_locally - prev.served_locally);
    base_serves.add(now.served_by_base - prev.served_by_base);
    units.add(std::uint64_t(now.base_downloaded - prev.base_downloaded));
    drops.add(now.sleeper_drops - prev.sleeper_drops);
    disconnects.add(now.disconnect_ticks - prev.disconnect_ticks);
    failed.add(now.failed_fetches - prev.failed_fetches);
    degraded.add(now.degraded_serves - prev.degraded_serves);
    score_sum.set(now.score_sum);
    average_score.set(now.average_score());
    if (mobility && t < mobility->size()) {
      const MobilityRunStats& mob_now = (*mobility)[t];
      mob_crossings->add(mob_now.crossings - mob_prev.crossings);
      mob_migrations->add(mob_now.migrations - mob_prev.migrations);
      mob_units->add(mob_now.migrated_units - mob_prev.migrated_units);
      mob_deliveries->add(mob_now.deliveries - mob_prev.deliveries);
      mob_lost->add(mob_now.lost_deliveries - mob_prev.lost_deliveries);
      mob_prev = mob_now;
    }
    recorder.sample(sim::Tick(t));
    if (windows) windows->on_tick(sim::Tick(t));
    prev = now;
  }
  if (windows) windows->finish();
}

void record_coop(obs::SeriesRecorder& recorder,
                 const std::vector<std::vector<coop::CoopResult>>& series,
                 std::size_t cells,
                 obs::WindowAggregator* windows = nullptr) {
  obs::MetricsRegistry& registry = recorder.registry();
  obs::Counter& requests = registry.register_counter("mc.requests");
  obs::Counter& origin_units = registry.register_counter("mc.origin_units");
  obs::Counter& neighbor_units =
      registry.register_counter("mc.neighbor_units");
  obs::Counter& origin_fetches =
      registry.register_counter("mc.origin_fetches");
  obs::Counter& neighbor_fetches =
      registry.register_counter("mc.neighbor_fetches");
  obs::Counter& invalidations =
      registry.register_counter("mc.coop.coherence.invalidations");
  obs::Counter& propagations =
      registry.register_counter("mc.coop.coherence.propagations");
  obs::Counter& lease_expiries =
      registry.register_counter("mc.coop.coherence.lease_expiries");
  obs::Counter& peer_hits =
      registry.register_counter("mc.coop.coherence.peer_hits");
  obs::Counter& peer_fetch_units =
      registry.register_counter("mc.coop.coherence.peer_fetch_units");
  obs::Counter& wire_units =
      registry.register_counter("mc.coop.coherence.wire_units");
  obs::Gauge& score_sum = registry.register_gauge("mc.score_sum");
  obs::Gauge& average_score = registry.register_gauge("mc.average_score");
  registry.register_gauge("mc.cells").set(double(cells));

  std::vector<coop::CoopResult> acc;
  accumulate_rows(acc, series);
  recorder.reserve(recorder.samples() + acc.size());
  if (windows) windows->begin();
  coop::CoopResult prev;
  for (std::size_t t = 0; t < acc.size(); ++t) {
    const coop::CoopResult& now = acc[t];
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
    recorder.sample(sim::Tick(t));
    if (windows) windows->on_tick(sim::Tick(t));
    prev = now;
  }
  if (windows) windows->finish();
}

// Folds every shard's private lat.* histograms (and event/drop totals)
// into the recorder's registry as mc.lat.* / mc.trace.*. Runs after the
// join, iterating shards in index order, so the merged distributions are
// bit-identical for every pool size — same contract as record_sharded.
void merge_shard_traces(
    obs::SeriesRecorder& recorder,
    const std::vector<std::unique_ptr<obs::RequestTracer>>& tracers,
    const std::vector<std::unique_ptr<obs::MetricsRegistry>>& shard_regs) {
  obs::MetricsRegistry& registry = recorder.registry();
  obs::Counter& events = registry.register_counter("mc.trace.events");
  obs::Counter& dropped = registry.register_counter("mc.trace.dropped");
  obs::Counter& arrivals = registry.register_counter("mc.trace.arrivals");
  obs::Counter& streamed = registry.register_counter("mc.trace.streamed_events");
  obs::Counter& flushed = registry.register_counter("mc.trace.flushed_events");
  obs::Counter& blocks = registry.register_counter("mc.trace.flush_blocks");
  for (const auto& tracer : tracers) {
    events.add(tracer->log().size());
    dropped.add(tracer->log().dropped());
    arrivals.add(tracer->arrivals());
    // Per-shard sinks are inline-flush and closed before the merge, so
    // these are deterministic (flushed == streamed) for every pool size.
    if (const obs::EventSink* sink = tracer->log().sink()) {
      streamed.add(sink->streamed_events());
      flushed.add(sink->flushed_events());
      blocks.add(sink->flush_blocks());
    }
  }
  if (shard_regs.empty()) return;
  for (const std::string& name : shard_regs.front()->names()) {
    const obs::FixedHistogram* shape = shard_regs.front()->find_histogram(name);
    if (!shape) continue;
    obs::FixedHistogram& merged = registry.register_histogram(
        "mc." + name, shape->lo(), shape->hi(), shape->bucket_count());
    for (const auto& reg : shard_regs) {
      merged.merge(*reg->find_histogram(name));
    }
  }
}

// Runs every shard exactly once under the configured schedule and fills
// `stats` with the modeled makespan of the plan actually used (sum of all
// costs when serial, busiest block for static, busiest LPT queue for
// lpt-steal — the shared-queue legacy schedule has no static plan).
void dispatch_shards(util::ThreadPool* pool, ShardSchedule schedule,
                     const std::vector<std::uint64_t>& costs,
                     const std::function<void(std::size_t)>& run_one,
                     util::WeightedForStats* stats) {
  const std::size_t shards = costs.size();
  if (stats) *stats = util::WeightedForStats{};
  const auto charged = [](std::uint64_t cost) {
    return std::max<std::uint64_t>(1, cost);
  };
  if (!pool) {
    for (std::size_t i = 0; i < shards; ++i) run_one(i);
    if (stats) {
      stats->workers = 1;
      for (const std::uint64_t cost : costs) {
        stats->planned_makespan += charged(cost);
      }
    }
    return;
  }
  switch (schedule) {
    case ShardSchedule::kQueue:
      util::parallel_for(pool, 0, shards, run_one, 1);
      if (stats) stats->workers = pool->size();
      break;
    case ShardSchedule::kStaticBlocked: {
      const std::size_t workers = std::max<std::size_t>(1, pool->size());
      const std::size_t grain = (shards + workers - 1) / workers;
      util::parallel_for(pool, 0, shards, run_one, grain);
      if (stats) {
        stats->workers = workers;
        for (std::size_t block = 0; block < shards; block += grain) {
          std::uint64_t load = 0;
          const std::size_t end = std::min(shards, block + grain);
          for (std::size_t i = block; i < end; ++i) load += charged(costs[i]);
          stats->planned_makespan = std::max(stats->planned_makespan, load);
        }
      }
      break;
    }
    case ShardSchedule::kLptSteal:
      util::weighted_parallel_for(*pool, costs, run_one, stats);
      break;
  }
}

}  // namespace

MultiCellResult run_multi_cell(const MultiCellConfig& config,
                               util::ThreadPool* pool,
                               const MultiCellObservers& observers) {
  obs::SeriesRecorder* recorder = observers.recorder;
  if (config.cell_count == 0) {
    throw std::invalid_argument("run_multi_cell: need >= 1 cell");
  }
  if (config.topology == CellTopology::kSharded && config.cell.ticks < 0) {
    throw std::invalid_argument("run_multi_cell: cell.ticks must be >= 0");
  }
  if (config.topology != CellTopology::kSharded) {
    if (config.cluster.warmup_ticks < 0 || config.cluster.measure_ticks < 0) {
      throw std::invalid_argument(
          "run_multi_cell: cluster.warmup_ticks and cluster.measure_ticks "
          "must be >= 0");
    }
    if (!config.mobility.empty()) {
      throw std::invalid_argument(
          "run_multi_cell: mobility requires sharded topology");
    }
    if (config.trace_sample_every > 0 || !config.trace_jsonl_dir.empty() ||
        !config.cell_client_counts.empty()) {
      throw std::invalid_argument(
          "run_multi_cell: trace_sample_every, trace_jsonl_dir and "
          "cell_client_counts require sharded topology");
    }
  }
  if (observers.windows != nullptr && recorder == nullptr) {
    throw std::invalid_argument(
        "run_multi_cell: windows require a recorder (the aggregator reads "
        "the recorder's registry)");
  }
  // Driver-side phases only: shard workers never see the profiler (it is
  // single-threaded by contract); the mobility fleet nests its own
  // fleet.* spans under mc.dispatch from the driver thread.
  obs::PhaseProfiler* profiler = observers.profiler;
  std::uint32_t dispatch_phase = 0;
  std::uint32_t record_phase = 0;
  if (profiler) {
    dispatch_phase = profiler->phase("mc.dispatch");
    record_phase = profiler->phase("mc.record");
  }
  MultiCellResult result;
  result.cells = config.cell_count;
  const bool want_series = config.keep_series || recorder != nullptr;
  const std::vector<std::uint64_t> costs = shard_cost_estimates(config);

  if (config.topology == CellTopology::kSharded) {
    const std::size_t shards = config.cell_count;
    result.shards = shards;
    result.per_cell.resize(shards);
    // Each shard's series is reserved to its exact final size (run_cell
    // appends one snapshot per tick) before dispatch, so workers only
    // fill memory that is already there.
    std::vector<client::CellSeries> series(want_series ? shards : 0);
    for (auto& shard : series) shard.reserve(config.cell.ticks);
    // Tracing state is strictly per shard — a tracer and a private
    // histogram registry each — so traced shards stay share-nothing and
    // the pool-size determinism contract holds untouched.
    const bool want_trace = config.trace_sample_every > 0;
    std::vector<std::unique_ptr<obs::RequestTracer>> tracers;
    std::vector<std::unique_ptr<obs::MetricsRegistry>> shard_regs;
    std::vector<std::unique_ptr<obs::JsonlTraceSink>> sinks;
    if (want_trace) {
      tracers.reserve(shards);
      shard_regs.reserve(shards);
      if (!config.trace_jsonl_dir.empty()) sinks.reserve(shards);
      for (std::size_t i = 0; i < shards; ++i) {
        shard_regs.push_back(std::make_unique<obs::MetricsRegistry>());
        tracers.push_back(std::make_unique<obs::RequestTracer>(
            obs::RequestTracer::Config{config.trace_sample_every,
                                       config.trace_event_capacity}));
        tracers.back()->register_histograms(shard_regs.back().get());
        if (!config.trace_jsonl_dir.empty()) {
          // Inline flush: one sink per shard, written only by whichever
          // worker runs the shard; a fleet of cells must not spawn a
          // fleet of flusher threads.
          obs::JsonlTraceSink::Config sink_config;
          sink_config.buffer_events = 1 << 12;
          sink_config.background_flush = false;
          sinks.push_back(std::make_unique<obs::JsonlTraceSink>(
              config.trace_jsonl_dir + "/trace_cell" + std::to_string(i) +
                  ".jsonl",
              sink_config));
          tracers.back()->log().set_sink(sinks.back().get());
        }
      }
    }
    std::vector<MobilityRunStats> mobility_rows;
    if (config.mobility.empty()) {
      obs::ScopedPhase dispatch_span(profiler, dispatch_phase);
      dispatch_span.add_cost(std::uint64_t(shards));
      dispatch_shards(
          pool, config.schedule, costs,
          [&](std::size_t i) {
            client::CellConfig cell = config.cell;
            cell.seed = shard_seed(config.seed, i);
            if (!config.cell_client_counts.empty()) {
              cell.client_count = config.cell_client_counts[i];
            }
            result.per_cell[i] =
                client::run_cell(cell, want_series ? &series[i] : nullptr,
                                 want_trace ? tracers[i].get() : nullptr);
          },
          &result.schedule_stats);
    } else {
      // Mobile clients: cells can no longer run start-to-finish as
      // independent shards — every tick ends at the fleet's handoff
      // barrier, so parallelism is per-tick across cells instead of
      // per-run across shards (the schedule knob does not apply).
      MobilityFleet fleet(config);
      for (std::size_t i = 0; i < shards; ++i) {
        if (want_series) fleet.attach_series(i, &series[i]);
        if (want_trace) fleet.set_tracer(i, tracers[i].get());
      }
      fleet.set_profiler(profiler);
      {
        obs::ScopedPhase dispatch_span(profiler, dispatch_phase);
        dispatch_span.add_cost(std::uint64_t(fleet.ticks()));
        while (!fleet.done()) fleet.step(pool);
      }
      for (std::size_t i = 0; i < shards; ++i) {
        result.per_cell[i] = fleet.cell_result(i);
      }
      result.schedule_stats.workers = pool ? pool->size() : 1;
      result.mobility = fleet.stats();
      mobility_rows = fleet.mobility_series();
      result.client_cells.resize(fleet.client_count());
      for (std::size_t c = 0; c < fleet.client_count(); ++c) {
        result.client_cells[c] = fleet.cell_of_client(std::uint32_t(c));
      }
    }
    // Close the streamed traces (footer + fclose) before merging so the
    // exported flushed_events equals streamed_events deterministically.
    // A trace that lost bytes fails the run rather than merge counters
    // that no longer describe the file.
    for (auto& sink : sinks) sink->close();
    for (const auto& sink : sinks) {
      if (!sink->ok()) {
        throw std::runtime_error("run_multi_cell: failed writing trace " +
                                 sink->path());
      }
    }
    for (const auto& cell : result.per_cell) {
      accumulate(result.aggregate, cell);
    }
    result.total_requests = result.aggregate.requests;
    if (recorder) {
      obs::ScopedPhase record_span(profiler, record_phase);
      record_span.add_cost(std::uint64_t(config.cell.ticks));
      if (want_trace) merge_shard_traces(*recorder, tracers, shard_regs);
      record_sharded(*recorder, series, config.cell_count,
                     config.mobility.empty() ? nullptr : &mobility_rows,
                     observers.windows);
    }
    if (config.keep_series) result.cell_series = std::move(series);
    if (want_trace && config.keep_trace) {
      result.shard_traces.reserve(shards);
      for (auto& tracer : tracers) {
        // Detach the per-run sink first: the returned logs must not
        // carry pointers into this frame.
        tracer->log().set_sink(nullptr);
        result.shard_traces.push_back(std::move(tracer->log()));
      }
    }
    return result;
  }

  const std::size_t width = config.cells_per_cluster;
  const std::size_t shards = costs.size();
  result.shards = shards;
  result.per_cluster.resize(shards);
  std::vector<std::vector<coop::CoopResult>> series(want_series ? shards : 0);
  {
    obs::ScopedPhase dispatch_span(profiler, dispatch_phase);
    dispatch_span.add_cost(std::uint64_t(shards));
    dispatch_shards(
        pool, config.schedule, costs,
        [&](std::size_t i) {
          coop::CoopConfig cluster = config.cluster;
          cluster.seed = shard_seed(config.seed, i);
          cluster.cell_count = std::min(width, config.cell_count - i * width);
          result.per_cluster[i] = coop::run_cooperative(
              cluster, want_series ? &series[i] : nullptr);
        },
        &result.schedule_stats);
  }
  for (const auto& cluster : result.per_cluster) {
    accumulate(result.coop_aggregate, cluster);
  }
  result.total_requests = result.coop_aggregate.requests;
  if (recorder) {
    obs::ScopedPhase record_span(profiler, record_phase);
    record_span.add_cost(std::uint64_t(config.cluster.warmup_ticks) +
                         std::uint64_t(config.cluster.measure_ticks));
    record_coop(*recorder, series, config.cell_count, observers.windows);
  }
  if (config.keep_series) result.cluster_series = std::move(series);
  return result;
}

}  // namespace mobi::exp
