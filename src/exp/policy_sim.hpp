// A general policy-comparison simulation: one base station, a configurable
// workload, any DownloadPolicy/RecencyScorer by name. Used by the ablation
// benches (scorer choice, solver choice, policy head-to-heads) and by the
// integration tests; also the easiest entry point for library users who
// want "run my policy on this workload and tell me how it did".
#pragma once

#include <cstdint>
#include <string>

#include "exp/fig2.hpp"
#include "object/object.hpp"
#include "sim/fault_plan.hpp"
#include "sim/tick.hpp"
#include "workload/requests.hpp"

namespace mobi::obs {
class SeriesRecorder;
class RequestTracer;
class WindowAggregator;
class PhaseProfiler;
}  // namespace mobi::obs

namespace mobi::exp {

struct PolicySimConfig {
  std::size_t object_count = 200;
  object::Units size_lo = 1;
  object::Units size_hi = 10;
  std::size_t requests_per_tick = 50;
  AccessPattern access = AccessPattern::kZipf;
  double zipf_alpha = 1.0;
  sim::Tick update_period = 5;
  bool staggered_updates = false;
  sim::Tick warmup_ticks = 50;
  sim::Tick measure_ticks = 200;
  object::Units budget = 100;  // per tick; negative = unlimited
  std::string policy = "on-demand-knapsack";
  std::string scorer = "reciprocal";
  workload::TargetDistribution targets = workload::UniformTarget{0.5, 1.0};
  double decay_c = 1.0;
  std::uint64_t seed = 42;
  /// Servers behind the fixed network; > 1 makes per-server outage
  /// faults partial rather than total.
  std::size_t server_count = 1;
  /// Retry budget handed to the base station (0 = seed behavior).
  std::size_t fetch_retry_limit = 0;
  /// Fault schedule; the default (empty) plan attaches no injector and
  /// is bit-identical to the fault-free code path. A nonzero plan is
  /// reseeded with `seed` mixed in, so sweeps over seeds get
  /// independent fault streams.
  sim::FaultPlan faults;
};

struct PolicySimResult {
  double average_score = 0.0;     // mean per-client recency score (scored)
  double average_recency = 0.0;   // mean raw recency of copies served
  object::Units units_downloaded = 0;  // measure window
  std::size_t objects_downloaded = 0;
  double downlink_utilization = 0.0;
  double mean_fetch_latency = 0.0;
  std::size_t requests = 0;
  /// Distribution of per-request scores (averages can hide starvation).
  double jain_fairness = 1.0;   // 1 = perfectly equal
  double score_p10 = 1.0;       // 10th percentile per-request score
  double min_score = 1.0;
  /// Resilience accounting over the measure window (all zero when
  /// PolicySimConfig::faults is empty).
  std::size_t failed_fetches = 0;
  std::size_t retries = 0;
  std::size_t retry_successes = 0;
  std::size_t degraded_serves = 0;
  object::Units downlink_dropped = 0;
};

/// The observability hookup for one simulation run. Everything is
/// optional, owned by the caller and observation-only: any combination
/// of hooks produces results bit-identical to the bare run (the
/// determinism suite enforces this).
struct SimObservers {
  /// The base station, its cache/downlink, the server pool and any fault
  /// injector register their metrics in the recorder's registry, and the
  /// recorder snapshots them once per tick (warmup included — series
  /// carry the tick index, so consumers can crop).
  obs::SeriesRecorder* recorder = nullptr;
  /// Request-lifecycle tracing, attached to the base station (and through
  /// it the downlink and fixed network) for the whole run. The caller
  /// decides whether to register its `lat.*` histograms in a registry —
  /// run_policy_sim does not, so one tracer can be reused across runs.
  obs::RequestTracer* tracer = nullptr;
  /// Windowed aggregation: begin() is called after every component has
  /// registered its metrics (so the column set is complete), on_tick()
  /// after each tick's sample, finish() after the last tick. Requires
  /// `recorder` (the aggregator reads the recorder's registry; throws
  /// std::invalid_argument without one).
  obs::WindowAggregator* windows = nullptr;
  /// Phase profiling: attached to the station; each tick runs under a
  /// root `sim.tick` span with a `sim.updates` child around the update
  /// process and the station's `bs.*` phases nested inside.
  obs::PhaseProfiler* profiler = nullptr;
};

/// Runs one simulation. Throws std::invalid_argument for an empty
/// catalog, a negative warm-up or measure tick count, an unknown policy
/// or scorer, or windows without a recorder.
PolicySimResult run_policy_sim(const PolicySimConfig& config,
                               const SimObservers& observers = {});

}  // namespace mobi::exp
