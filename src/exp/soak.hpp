// Long-horizon soak harness: many consecutive measurement windows, each a
// fresh deterministic run at a fault rate ramped from `fault_rate_lo` to
// `fault_rate_hi`, trending the resilience (`fault.*`), scale-out
// (`mc.*`) and sim-time latency (`lat.*`) series window over window.
//
// Each window runs two legs:
//   - a single-station policy simulation with the full fault cocktail and
//     a RequestTracer attached (lat.* histograms, trace event counts),
//   - a sharded multi-cell run with per-shard tracing merged into mc.lat.*.
// Every extracted series is simulation-time only — the profiler's
// wall-clock prof.phase.*.wall_ns columns are deliberately excluded — so
// the soak output is bit-reproducible and a checked-in golden artifact
// can gate CI via tools/metrics_diff. Window seeds derive from
// shard_seed(seed, ...), so windows are independent streams and the ramp
// can be resharded.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/multi_cell.hpp"
#include "exp/policy_sim.hpp"
#include "obs/slo.hpp"
#include "util/thread_pool.hpp"

namespace mobi::exp {

struct SoakConfig {
  /// Windowed horizon: `windows` independent runs, each measuring
  /// `window_ticks` ticks after `window_warmup` warmup ticks.
  std::size_t windows = 8;
  sim::Tick window_ticks = 150;
  sim::Tick window_warmup = 30;

  /// Headline fault-rate ramp across the horizon: window w runs at
  /// fault_plan_at(lerp(lo, hi, w / (windows - 1))), the fault sweep's
  /// mapping. Equal lo/hi soaks at a constant rate; the default ramp
  /// exercises graceful degradation end to end.
  double fault_rate_lo = 0.0;
  double fault_rate_hi = 0.3;

  /// Station-leg template; `faults`, `seed` and the tick counts are
  /// overridden per window.
  PolicySimConfig base;
  /// Multi-cell leg: `cell_count` sharded cells from this template
  /// (`faults`, `seed`, `ticks` overridden per window). 0 skips the leg.
  std::size_t cell_count = 4;
  client::CellConfig cell;

  /// Request-lifecycle tracing for both legs (1-in-N arrivals).
  std::size_t trace_sample_every = 8;
  std::size_t trace_event_capacity = 1 << 15;

  /// When non-empty, the station leg streams every traced event across
  /// all windows to this JSONL file through one background-flush
  /// JsonlTraceSink. Streaming is dual-write — the in-memory logs (and
  /// therefore every exported soak series) are bit-identical with or
  /// without it — so a streamed soak still diffs clean against a golden
  /// produced buffered.
  std::string trace_jsonl;

  /// Online observability (all read-only over the simulation — every
  /// exported sim-time series is bit-identical with these on or off).
  /// obs_window_ticks > 0 attaches a tumbling WindowAggregator of that
  /// width to each leg's registry; the closed frames concatenate — in
  /// run order, zero-backfilled where the two legs' column sets differ —
  /// into SoakResult::window_series (`mobicache.windows.v1`).
  sim::Tick obs_window_ticks = 0;
  /// Attach one driver-thread PhaseProfiler across every leg of every
  /// window (live `prof.phase.*` counters per leg registry); the
  /// collapsed flamegraph lands in SoakResult::flamegraph.
  bool profile = false;
  /// Objectives evaluated on every closed station-leg window (needs
  /// obs_window_ticks > 0; ignored otherwise). Alerts stream as
  /// kSloAlert events to the trace_jsonl sink when one is attached.
  std::vector<obs::SloObjective> slos;

  std::uint64_t seed = 42;

  SoakConfig() {
    base.server_count = 4;
    base.fetch_retry_limit = 3;
    cell.server_count = 4;
    cell.fetch_retry_limit = 3;
  }
};

/// The fault plan window `w` runs at (exposed so tests can pin the ramp).
sim::FaultPlan soak_plan_at(const SoakConfig& config, std::size_t window);

/// The objective set bench/soak --slo attaches: served-latency p99
/// ("lat.ticks_to_serve.p99" <= 16), hit rate ("bs.hits.rate" /
/// "bs.requests.rate" >= 0.5), and a fault ceiling ("bs.fault.retries
/// .rate" <= 0 — any retry in a window breaches, so the ramped-fault
/// phase of the default soak deterministically burns through the
/// fast+slow pair and fires at least one alert).
std::vector<obs::SloObjective> default_soak_slos();

struct SoakResult {
  /// One value per window for every trended series, keyed by name
  /// (sorted map, so export order is deterministic). Series families:
  /// `fault_rate`, `score.avg` / `recency.avg` / request totals,
  /// `fault.injected.*`, `lat.*.mean`, `trace.*`, and — when the
  /// multi-cell leg runs — `mc.*` and `mc.lat.ticks_to_serve.mean`.
  std::map<std::string, std::vector<double>> series;
  std::size_t windows = 0;
  sim::Tick window_ticks = 0;

  const std::vector<double>& at(const std::string& name) const;

  /// Windowed-aggregate export, schema `mobicache.soak.v1`:
  /// {"schema":...,"windows":[0..N-1],"window_ticks":T,"series":{...}}.
  /// Consumable by obs::diff_metrics / tools/metrics_diff (the axis is
  /// the window index).
  std::string to_json() const;

  /// Online-observability outputs (populated only when the matching
  /// SoakConfig switch was on). window_series holds every closed
  /// WindowAggregator frame across all legs and soak windows, in run
  /// order (station leg frames, then multi-cell leg frames, per soak
  /// window), zero-backfilled where a column exists in only one leg.
  /// All columns except `prof.phase.*.wall_ns` are sim-time
  /// deterministic; the wall columns are masked in the CI gate.
  std::map<std::string, std::vector<double>> window_series;
  std::size_t window_frames = 0;
  sim::Tick obs_window_ticks = 0;
  std::uint64_t slo_evaluations = 0;
  std::uint64_t slo_breaches = 0;
  std::uint64_t slo_alerts = 0;
  /// flamegraph.pl collapsed stacks (empty when profiling was off).
  std::string flamegraph;

  /// `mobicache.windows.v1` export of window_series (same shape as
  /// WindowAggregator::to_json, axis = frame ordinal), accepted by
  /// obs::diff_metrics / tools/metrics_diff / tools/metrics_query.
  std::string windows_to_json() const;
};

/// Runs the soak. The pool (optional) parallelizes the multi-cell leg's
/// shards; results are bit-identical for every pool size. Throws
/// std::invalid_argument for an invalid configuration, such as no
/// windows, a negative window tick count or a rate outside [0, 1].
SoakResult run_soak(const SoakConfig& config,
                    util::ThreadPool* pool = nullptr);

}  // namespace mobi::exp
