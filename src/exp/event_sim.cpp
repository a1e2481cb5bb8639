#include "exp/event_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/access.hpp"

namespace mobi::exp {

EventSimResult run_event_sim(const EventSimConfig& config) {
  if (config.request_rate <= 0.0 || config.update_rate < 0.0) {
    throw std::invalid_argument("run_event_sim: bad rates");
  }
  if (config.batching_window <= 0.0) {
    throw std::invalid_argument("run_event_sim: batching_window must be > 0");
  }
  if (config.warmup < 0.0 || config.warmup >= config.horizon) {
    throw std::invalid_argument("run_event_sim: warmup outside horizon");
  }
  util::Rng rng(config.seed);
  const object::Catalog catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig station_config;
  station_config.download_budget = config.budget_per_batch;
  // Room for the responses of a batch of the mean size, so the downlink
  // (which nothing here reads) keeps a small backlog.
  station_config.downlink_capacity = std::max<object::Units>(
      1, object::Units(std::ceil(config.request_rate * config.batching_window)) *
             config.size_hi);
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(config.policy), station_config);
  const auto access =
      workload::make_zipf_access(config.object_count, config.zipf_alpha);

  sim::Simulator simulator;
  util::Rng arrival_rng = rng.split();
  util::Rng update_rng = rng.split();

  // The requests waiting for the next batch run, and when each arrived.
  workload::RequestBatch batch;
  std::vector<sim::SimTime> arrived;
  EventSimResult result;
  double score_sum = 0.0;
  util::Summary delays;

  // Self-rescheduling closures capture raw pointers into this keepalive
  // (a shared_ptr self-capture would leak via the reference cycle).
  std::vector<std::shared_ptr<std::function<void()>>> recurring;

  // Poisson request arrivals: each arrival schedules the next.
  workload::ClientId next_client = 0;
  {
    auto arrival = std::make_shared<std::function<void()>>();
    *arrival = [&, raw = arrival.get()] {
      batch.push_back(
          workload::Request{access->sample(arrival_rng), 1.0, next_client++});
      arrived.push_back(simulator.now());
      simulator.schedule_in(arrival_rng.exponential(config.request_rate),
                            *raw);
    };
    recurring.push_back(arrival);
    simulator.schedule_at(arrival_rng.exponential(config.request_rate),
                          *arrival);
  }

  // Per-object Poisson updates (skipped entirely at rate 0).
  if (config.update_rate > 0.0) {
    for (object::ObjectId id = 0; id < config.object_count; ++id) {
      auto update = std::make_shared<std::function<void()>>();
      *update = [&, id, raw = update.get()] {
        station.on_server_update(id, sim::Tick(simulator.now()));
        ++result.updates;
        simulator.schedule_in(update_rng.exponential(config.update_rate),
                              *raw);
      };
      recurring.push_back(update);
      simulator.schedule_at(update_rng.exponential(config.update_rate),
                            *update);
    }
  }

  // Periodic batch service: the station selects, fetches and serves the
  // whole batch at the current time.
  simulator.schedule_every(config.batching_window, config.batching_window, [&] {
    ++result.batches;
    if (batch.empty()) return;
    const core::TickResult served =
        station.process_batch(batch, sim::Tick(simulator.now()));
    if (simulator.now() >= config.warmup) {
      result.requests += served.requests;
      result.units_downloaded += served.units_downloaded;
      score_sum += served.score_sum;
      for (const sim::SimTime t : arrived) delays.add(simulator.now() - t);
    }
    batch.clear();
    arrived.clear();
  });

  simulator.run_until(config.horizon);

  if (result.requests > 0) {
    result.average_score = score_sum / double(result.requests);
  }
  result.mean_service_delay = delays.mean();
  result.max_service_delay = delays.max();
  return result;
}

}  // namespace mobi::exp
