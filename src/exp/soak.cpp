#include "exp/soak.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include <optional>

#include "exp/fault_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/window.hpp"

namespace mobi::exp {

sim::FaultPlan soak_plan_at(const SoakConfig& config, std::size_t window) {
  if (window >= config.windows) {
    throw std::out_of_range("soak_plan_at: window index out of range");
  }
  const double span = config.fault_rate_hi - config.fault_rate_lo;
  const double frac = config.windows > 1
                          ? double(window) / double(config.windows - 1)
                          : 0.0;
  return fault_plan_at(config.fault_rate_lo + span * frac);
}

std::vector<obs::SloObjective> default_soak_slos() {
  std::vector<obs::SloObjective> slos(3);
  slos[0].name = "serve-latency";
  slos[0].column = "lat.ticks_to_serve.p99";
  slos[0].cmp = obs::SloObjective::Cmp::kLe;
  slos[0].threshold = 16.0;
  slos[1].name = "hit-rate";
  slos[1].column = "bs.hits.rate";
  slos[1].denominator = "bs.requests.rate";
  slos[1].cmp = obs::SloObjective::Cmp::kGe;
  slos[1].threshold = 0.5;
  // Any fault retry in a window breaches; with the default ramp the
  // high-rate windows breach every frame, so the fast+slow burn pair is
  // guaranteed to fire — the deterministic-alert acceptance check.
  slos[2].name = "fault-ceiling";
  slos[2].column = "bs.fault.retries.rate";
  slos[2].cmp = obs::SloObjective::Cmp::kLe;
  slos[2].threshold = 0.0;
  for (auto& slo : slos) {
    slo.fast_windows = 3;
    slo.fast_burn = 1.0;
    slo.slow_windows = 6;
    slo.slow_burn = 0.5;
  }
  return slos;
}

const std::vector<double>& SoakResult::at(const std::string& name) const {
  const auto it = series.find(name);
  if (it == series.end()) {
    throw std::out_of_range("SoakResult: no series '" + name + "'");
  }
  return it->second;
}

std::string SoakResult::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"mobicache.soak.v1\",\"windows\":[";
  for (std::size_t w = 0; w < windows; ++w) {
    if (w) out << ',';
    out << w;
  }
  out << "],\"window_ticks\":" << window_ticks << ",\"series\":{";
  bool first = true;
  for (const auto& [name, values] : series) {
    if (!first) out << ',';
    first = false;
    out << '"' << obs::json::escape(name) << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out << ',';
      out << obs::json::number(values[i]);
    }
    out << ']';
  }
  out << "}}";
  return out.str();
}

std::string SoakResult::windows_to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"mobicache.windows.v1\",\"window_ticks\":"
      << obs_window_ticks << ",\"stride_ticks\":" << obs_window_ticks
      << ",\"windows_closed\":" << window_frames
      << ",\"dropped_frames\":0,\"windows\":[";
  for (std::size_t f = 0; f < window_frames; ++f) {
    if (f) out << ',';
    out << f;
  }
  out << "],\"series\":{";
  bool first = true;
  for (const auto& [name, values] : window_series) {
    if (!first) out << ',';
    first = false;
    out << '"' << obs::json::escape(name) << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out << ',';
      out << obs::json::number(values[i]);
    }
    out << ']';
  }
  out << "}}";
  return out.str();
}

namespace {

constexpr const char* kInjectedCounters[] = {
    "fault.injected.fetch_failures", "fault.injected.fetch_slowdowns",
    "fault.injected.downlink_drops", "fault.injected.server_outages",
    "fault.injected.handoffs"};

constexpr const char* kLatHistograms[] = {
    "lat.ticks_to_serve", "lat.retry_delay", "lat.queue_wait",
    "lat.served_recency_gap"};

double scalar_or_zero(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  // Absent is a real state, not an error: at fault rate 0 the plan is
  // empty, no injector attaches, and fault.injected.* never registers —
  // the series must still stay rectangular across windows.
  return registry.contains(name) ? registry.scalar_value(name) : 0.0;
}

double histogram_mean(const obs::MetricsRegistry& registry,
                      const std::string& name) {
  const obs::FixedHistogram* h = registry.find_histogram(name);
  return h ? h->mean() : 0.0;
}

}  // namespace

SoakResult run_soak(const SoakConfig& config, util::ThreadPool* pool) {
  if (config.windows == 0) {
    throw std::invalid_argument("run_soak: need >= 1 window");
  }
  if (config.window_ticks < 0 || config.window_warmup < 0) {
    throw std::invalid_argument(
        "run_soak: window_ticks and window_warmup must be >= 0");
  }
  if (config.fault_rate_lo < 0.0 || config.fault_rate_lo > 1.0 ||
      config.fault_rate_hi < 0.0 || config.fault_rate_hi > 1.0) {
    throw std::invalid_argument("run_soak: fault rates must be in [0, 1]");
  }
  if (config.trace_sample_every == 0) {
    throw std::invalid_argument("run_soak: trace_sample_every must be >= 1");
  }

  if (config.obs_window_ticks < 0) {
    throw std::invalid_argument("run_soak: obs_window_ticks must be >= 0");
  }
  if (!config.slos.empty() && config.obs_window_ticks == 0) {
    throw std::invalid_argument(
        "run_soak: SLOs need obs_window_ticks > 0 (objectives evaluate on "
        "closed windows)");
  }

  SoakResult result;
  result.windows = config.windows;
  result.window_ticks = config.window_ticks;
  result.obs_window_ticks = config.obs_window_ticks;
  const auto push = [&result](const std::string& name, double value) {
    result.series[name].push_back(value);
  };

  // Concatenates one leg's closed frames onto the cross-leg window
  // series: columns new to this leg are zero-backfilled over the frames
  // already collected, and columns absent from this leg get zeros for
  // its frames — the document stays rectangular whatever each leg's
  // registry happened to contain.
  const auto append_frames = [&result](const obs::WindowAggregator& agg) {
    const std::size_t have = result.window_frames;
    const std::size_t frames = agg.frames();
    if (frames == 0) return;
    for (std::size_t c = 0; c < agg.column_count(); ++c) {
      result.window_series[agg.column_name(c)].resize(have, 0.0);
    }
    for (auto& [name, column] : result.window_series) {
      const std::size_t c = agg.column_index(name);
      for (std::size_t f = 0; f < frames; ++f) {
        column.push_back(c == obs::WindowAggregator::npos ? 0.0
                                                          : agg.value(f, c));
      }
    }
    result.window_frames += frames;
  };
  const auto frame_capacity = [&config](sim::Tick ticks) {
    const sim::Tick w = config.obs_window_ticks;
    return std::size_t((ticks + w - 1) / w) + 1;
  };

  // One profiler for the whole horizon (driver thread only); each leg
  // re-attaches its live counters to that leg's fresh registry.
  std::optional<obs::PhaseProfiler> profiler;
  if (config.profile) profiler.emplace();

  // One streaming sink for the whole horizon: each window's tracer is
  // attached in turn, so the file carries every window's events while
  // the per-window buffer accounting stays bit-identical to a sinkless
  // run (see EventLog dual-write).
  std::unique_ptr<obs::JsonlTraceSink> sink;
  if (!config.trace_jsonl.empty()) {
    sink = std::make_unique<obs::JsonlTraceSink>(config.trace_jsonl);
  }

  for (std::size_t w = 0; w < config.windows; ++w) {
    const sim::FaultPlan plan = soak_plan_at(config, w);
    push("fault_rate", plan.fetch_failure_rate);

    // Station leg: the full fault cocktail against one base station, with
    // per-tick metrics and a request tracer for the lat.* histograms.
    {
      PolicySimConfig sim = config.base;
      sim.faults = plan;
      sim.warmup_ticks = config.window_warmup;
      sim.measure_ticks = config.window_ticks;
      sim.seed = shard_seed(config.seed, 2 * w);

      obs::MetricsRegistry registry;
      obs::SeriesRecorder recorder(registry);
      obs::RequestTracer tracer(obs::RequestTracer::Config{
          config.trace_sample_every, config.trace_event_capacity});
      tracer.register_histograms(&registry);
      if (sink) tracer.log().set_sink(sink.get());
      // Observability attachments. Registration order matters only for
      // the window column snapshot: slo.* and prof.phase.* counters must
      // exist before run_policy_sim calls windows->begin().
      if (profiler) profiler->attach_registry(&registry);
      std::optional<obs::SloMonitor> monitor;
      if (!config.slos.empty()) {
        monitor.emplace(&registry, config.slos);
        if (sink) monitor->set_sink(sink.get());
      }
      std::optional<obs::WindowAggregator> windows;
      if (config.obs_window_ticks > 0) {
        obs::WindowAggregator::Config wcfg;
        wcfg.window_ticks = config.obs_window_ticks;
        wcfg.frame_capacity =
            frame_capacity(config.window_warmup + config.window_ticks);
        windows.emplace(registry, wcfg);
        if (monitor) windows->set_listener(&*monitor);
      }
      SimObservers observers;
      observers.recorder = &recorder;
      observers.tracer = &tracer;
      observers.windows = windows ? &*windows : nullptr;
      observers.profiler = profiler ? &*profiler : nullptr;
      const PolicySimResult r = run_policy_sim(sim, observers);
      if (windows) append_frames(*windows);
      if (monitor) {
        result.slo_evaluations += monitor->evaluations();
        result.slo_breaches += monitor->breaches();
        result.slo_alerts += monitor->alerts();
      }
      // Surface drop/flush accounting as ordinary registry metrics
      // (trace.events/dropped/arrivals/streamed_events/flushed_events/
      // flush_blocks). Registered after the run, so they are not in the
      // recorder's per-tick series and not in the golden-gated output.
      obs::export_trace_metrics(registry, tracer);

      push("score.avg", r.average_score);
      push("recency.avg", r.average_recency);
      push("requests", double(r.requests));
      push("failed_fetches", double(r.failed_fetches));
      push("retries", double(r.retries));
      push("retry_successes", double(r.retry_successes));
      push("degraded_serves", double(r.degraded_serves));
      push("downlink_dropped", double(r.downlink_dropped));
      for (const char* name : kInjectedCounters) {
        push(name, scalar_or_zero(registry, name));
      }
      for (const char* name : kLatHistograms) {
        push(std::string(name) + ".mean", histogram_mean(registry, name));
      }
      push("trace.events", double(tracer.log().size()));
      push("trace.dropped", double(tracer.log().dropped()));
      push("trace.arrivals", double(tracer.arrivals()));
    }

    // Multi-cell leg: sharded cells under the same plan, per-shard traces
    // merged into mc.lat.* after the join.
    if (config.cell_count > 0) {
      MultiCellConfig mc;
      mc.cell_count = config.cell_count;
      mc.topology = CellTopology::kSharded;
      mc.cell = config.cell;
      mc.cell.faults = plan;
      mc.cell.ticks = config.window_warmup + config.window_ticks;
      mc.trace_sample_every = config.trace_sample_every;
      mc.trace_event_capacity = config.trace_event_capacity;
      mc.seed = shard_seed(config.seed, 2 * w + 1);

      obs::MetricsRegistry registry;
      obs::SeriesRecorder recorder(registry);
      if (profiler) profiler->attach_registry(&registry);
      std::optional<obs::WindowAggregator> windows;
      if (config.obs_window_ticks > 0) {
        obs::WindowAggregator::Config wcfg;
        wcfg.window_ticks = config.obs_window_ticks;
        wcfg.frame_capacity = frame_capacity(mc.cell.ticks);
        windows.emplace(registry, wcfg);
      }
      MultiCellObservers observers;
      observers.recorder = &recorder;
      observers.windows = windows ? &*windows : nullptr;
      observers.profiler = profiler ? &*profiler : nullptr;
      const MultiCellResult m = run_multi_cell(mc, pool, observers);
      if (windows) append_frames(*windows);

      push("mc.requests", double(m.aggregate.requests));
      push("mc.average_score", m.aggregate.average_score());
      push("mc.local_hit_rate", m.aggregate.local_hit_rate());
      push("mc.failed_fetches", double(m.aggregate.failed_fetches));
      push("mc.retries", double(m.aggregate.retries));
      push("mc.degraded_serves", double(m.aggregate.degraded_serves));
      push("mc.handoffs", double(m.aggregate.handoffs));
      push("mc.downlink_dropped", double(m.aggregate.downlink_dropped));
      push("mc.trace.events", scalar_or_zero(registry, "mc.trace.events"));
      push("mc.trace.dropped", scalar_or_zero(registry, "mc.trace.dropped"));
      push("mc.lat.ticks_to_serve.mean",
           histogram_mean(registry, "mc.lat.ticks_to_serve"));
      push("mc.lat.queue_wait.mean",
           histogram_mean(registry, "mc.lat.queue_wait"));
    }
  }
  if (sink) sink->close();
  if (profiler) {
    // Detach before the profiler dies with this frame; the flamegraph is
    // the horizon-wide path profile (wall-clock — never golden-gated).
    profiler->attach_registry(nullptr);
    result.flamegraph = profiler->flamegraph_collapsed();
  }
  if (sink && !sink->ok()) {
    throw std::runtime_error("run_soak: failed writing trace " + sink->path());
  }
  return result;
}

}  // namespace mobi::exp
