// Continuous-time experiment: Poisson arrivals on the event kernel.
//
// The paper's tick model serves each time unit's requests instantly at
// the tick boundary. In continuous time, requests arrive as a Poisson
// process and the base station *batches* them: every `batching_window`
// time units one core::BaseStation::process_batch call selects, fetches
// and serves the accumulated batch, so this run shares the tick model's
// select / fetch / serve path. Updates arrive as independent per-object
// Poisson processes. The new trade-off this exposes: a longer window
// aggregates more requests per knapsack run (better budget use, higher
// scores per downloaded unit) but every request waits longer for service.
#pragma once

#include <cstdint>
#include <string>

#include "object/object.hpp"

namespace mobi::exp {

struct EventSimConfig {
  std::size_t object_count = 200;
  object::Units size_lo = 1;
  object::Units size_hi = 6;
  /// Poisson request arrival rate (requests per time unit).
  double request_rate = 60.0;
  /// Per-object Poisson update rate (updates per time unit per object).
  double update_rate = 0.05;
  /// Base station service period (time units between batch runs).
  double batching_window = 1.0;
  /// Download budget per batch run, in units.
  object::Units budget_per_batch = 40;
  std::string policy = "on-demand-knapsack";
  double horizon = 200.0;  // total simulated time
  double warmup = 40.0;    // measurement starts here
  double zipf_alpha = 1.0;
  std::uint64_t seed = 42;
};

struct EventSimResult {
  std::size_t requests = 0;
  double average_score = 0.0;
  /// Mean time a request waits from arrival to its batch being served.
  double mean_service_delay = 0.0;
  double max_service_delay = 0.0;
  object::Units units_downloaded = 0;
  std::uint64_t batches = 0;
  std::uint64_t updates = 0;
};

EventSimResult run_event_sim(const EventSimConfig& config);

}  // namespace mobi::exp
