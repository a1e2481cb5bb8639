#include "exp/policy_sim.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "net/fault_injector.hpp"

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/fairness.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/window.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/updates.hpp"

namespace mobi::exp {

PolicySimResult run_policy_sim(const PolicySimConfig& config,
                               const SimObservers& observers) {
  obs::SeriesRecorder* recorder = observers.recorder;
  obs::RequestTracer* tracer = observers.tracer;
  if (config.object_count == 0) {
    throw std::invalid_argument("run_policy_sim: object_count must be >= 1");
  }
  if (config.warmup_ticks < 0 || config.measure_ticks < 0) {
    throw std::invalid_argument(
        "run_policy_sim: warmup_ticks and measure_ticks must be >= 0");
  }
  if (observers.windows != nullptr && recorder == nullptr) {
    throw std::invalid_argument(
        "run_policy_sim: windows require a recorder (the aggregator reads "
        "the recorder's registry)");
  }
  util::Rng rng(config.seed);
  const object::Catalog catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  server::ServerPool servers(catalog, config.server_count);

  core::BaseStationConfig bs_config;
  bs_config.download_budget = config.budget;
  bs_config.fetch_retry_limit = config.fetch_retry_limit;
  // Size the downlink for the average response volume so utilization is a
  // meaningful signal rather than saturated at 1.
  const double mean_size = double(catalog.total_size()) / double(catalog.size());
  bs_config.downlink_capacity = std::max<object::Units>(
      1, object::Units(double(config.requests_per_tick) * mean_size));
  core::BaseStation station(catalog, servers,
                            cache::make_harmonic_decay(config.decay_c),
                            core::make_scorer(config.scorer),
                            core::make_policy(config.policy), bs_config);
  // Nonzero fault plan: one injector per run, reseeded from the run's
  // own seed. An empty plan attaches nothing — fault-free path, bit for
  // bit (the differential suite enforces this).
  std::optional<net::FaultInjector> injector;
  if (!config.faults.empty()) {
    sim::FaultPlan plan = config.faults;
    plan.seed = util::SplitMix64(plan.seed ^ config.seed).next();
    injector.emplace(plan, servers.server_count());
    station.set_fault_injector(&*injector);
    servers.set_fault_injector(&*injector);
  }
  if (recorder) {
    station.set_metrics(&recorder->registry());
    servers.set_metrics(&recorder->registry());
    if (injector) injector->set_metrics(&recorder->registry());
  }
  if (tracer) station.set_request_tracer(tracer);
  obs::PhaseProfiler* profiler = observers.profiler;
  std::uint32_t tick_phase = 0;
  std::uint32_t updates_phase = 0;
  if (profiler) {
    tick_phase = profiler->phase("sim.tick");
    updates_phase = profiler->phase("sim.updates");
    station.set_profiler(profiler);
  }

  workload::RequestGenerator generator(
      make_access(config.access, config.object_count, config.zipf_alpha),
      config.targets, config.requests_per_tick, rng.split());
  auto updates =
      config.staggered_updates
          ? workload::make_periodic_staggered(config.object_count,
                                              config.update_period)
          : workload::make_periodic_synchronized(config.object_count,
                                                 config.update_period);

  PolicySimResult result;
  util::Summary latency;
  double score_sum = 0.0;
  double recency_sum = 0.0;
  std::vector<double> per_request_scores;
  // Windowed aggregation snapshots its column set at begin(), so it must
  // run after the last registration above (station, servers, injector —
  // and anything the caller registered before handing us the hooks,
  // e.g. SLO counters or live profiler counters).
  if (observers.windows) observers.windows->begin();
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    obs::ScopedPhase tick_span(profiler, tick_phase);
    {
      obs::ScopedPhase updates_span(profiler, updates_phase);
      station.apply_updates(*updates, t);
    }
    const auto batch = generator.next_batch();
    const auto tick = station.process_batch(batch, t);
    if (recorder) recorder->sample(t);
    if (observers.windows) observers.windows->on_tick(t);
    if (t < config.warmup_ticks) continue;
    score_sum += tick.score_sum;
    recency_sum += tick.recency_sum;
    result.units_downloaded += tick.units_downloaded;
    result.objects_downloaded += tick.objects_downloaded;
    result.requests += tick.requests;
    result.failed_fetches += tick.failed_fetches;
    result.retries += tick.retries;
    result.retry_successes += tick.retry_successes;
    result.degraded_serves += tick.degraded_serves;
    if (tick.objects_downloaded > 0) latency.add(tick.fetch_latency);
    // Per-request scores for the fairness metrics (post-refresh state).
    for (const auto& request : batch) {
      per_request_scores.push_back(
          station.scorer().score(station.cache().recency_or_zero(request.object),
                                 request.target_recency));
    }
  }
  if (observers.windows) observers.windows->finish();
  if (result.requests > 0) {
    result.average_score = score_sum / double(result.requests);
    result.average_recency = recency_sum / double(result.requests);
  }
  result.downlink_utilization = station.downlink().utilization();
  result.downlink_dropped = station.downlink().dropped_total();
  result.mean_fetch_latency = latency.mean();
  result.jain_fairness = core::jain_index(per_request_scores);
  result.score_p10 = core::score_quantile(per_request_scores, 0.10);
  result.min_score = core::min_score(per_request_scores);
  return result;
}

}  // namespace mobi::exp
