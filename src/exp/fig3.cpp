#include "exp/fig3.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "obs/recorder.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/trace.hpp"
#include "workload/updates.hpp"

namespace mobi::exp {

namespace {

void require_tick_counts(const Fig3Config& config, const char* who) {
  if (config.warmup_ticks < 0 || config.measure_ticks < 0) {
    throw std::invalid_argument(
        std::string(who) + ": warmup_ticks and measure_ticks must be >= 0");
  }
}

/// Builds the shared trace both policies replay ("both simulations used
/// the same set of randomly generated client requests").
workload::Trace build_trace(const Fig3Config& config) {
  util::Rng rng(config.seed);
  workload::RequestGenerator generator(
      workload::make_uniform_access(config.object_count),
      workload::ConstantTarget{1.0}, config.requests_per_tick, rng.split());
  return workload::generate_trace(generator,
                                  config.warmup_ticks + config.measure_ticks);
}

double run_trace(const Fig3Config& config, const workload::Trace& trace,
                 object::Units budget, bool on_demand,
                 obs::SeriesRecorder* recorder = nullptr) {
  const object::Catalog catalog =
      object::make_uniform_catalog(config.object_count, 1);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig bs_config;
  bs_config.download_budget = budget;
  bs_config.downlink_capacity =
      object::Units(std::max<std::size_t>(1, config.requests_per_tick));
  std::unique_ptr<core::DownloadPolicy> policy;
  if (on_demand) {
    policy = std::make_unique<core::OnDemandLowestRecencyPolicy>();
  } else {
    policy = std::make_unique<core::AsyncRoundRobinPolicy>();
  }
  core::BaseStation station(catalog, servers,
                            cache::make_harmonic_decay(config.decay_c),
                            std::make_unique<core::ReciprocalScorer>(),
                            std::move(policy), bs_config);
  if (recorder) {
    station.set_metrics(&recorder->registry());
    servers.set_metrics(&recorder->registry());
  }
  auto updates = workload::make_periodic_synchronized(config.object_count,
                                                      config.update_period);
  double recency_sum = 0.0;
  std::size_t measured_requests = 0;
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    station.apply_updates(*updates, t);
    const auto result = station.process_batch(trace.batch_at(t), t);
    if (recorder) recorder->sample(t);
    if (t >= config.warmup_ticks) {
      recency_sum += result.recency_sum;
      measured_requests += result.requests;
    }
  }
  return measured_requests ? recency_sum / double(measured_requests) : 0.0;
}

}  // namespace

double run_fig3_once(const Fig3Config& config, object::Units budget,
                     bool on_demand, obs::SeriesRecorder* recorder) {
  require_tick_counts(config, "run_fig3_once");
  const workload::Trace trace = build_trace(config);
  return run_trace(config, trace, budget, on_demand, recorder);
}

Fig3Result run_fig3(const Fig3Config& config, util::ThreadPool* pool) {
  require_tick_counts(config, "run_fig3");
  Fig3Result result;
  result.config = config;
  const workload::Trace trace = build_trace(config);
  result.points.resize(config.budgets.size());
  util::parallel_for(pool, 0, config.budgets.size(), [&](std::size_t i) {
    const object::Units budget = config.budgets[i];
    Fig3Point point;
    point.budget = budget;
    point.on_demand_recency = run_trace(config, trace, budget, true);
    point.async_recency = run_trace(config, trace, budget, false);
    result.points[i] = point;
  });
  return result;
}

}  // namespace mobi::exp
