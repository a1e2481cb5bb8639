// The paper workload: one base station answering zipf batches under the
// staggered update process, so every tick has stale copies to price and
// the knapsack solves a real instance. `station_observed` runs the same
// inputs with every observer attached through its public hook; the ladder
// probe turns them on one rung at a time.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/scoring.hpp"
#include "exp/soak.hpp"
#include "ledger.hpp"
#include "object/builders.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "obs/window.hpp"
#include "server/remote_server.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace ledger {
namespace {

using namespace mobi;

constexpr std::size_t kObjects = 512;
constexpr object::Units kSizeLo = 1;
constexpr object::Units kSizeHi = 10;
constexpr std::size_t kPerTick = 256;
constexpr object::Units kBudget = 128;
constexpr sim::Tick kUpdatePeriod = 5;
constexpr sim::Tick kWarmupTicks = 500;
constexpr sim::Tick kTicks = 20'000;
constexpr sim::Tick kWindowTicks = 100;
constexpr std::size_t kTraceSampleEvery = 16;

core::BaseStationConfig station_config() {
  core::BaseStationConfig config;
  config.download_budget = kBudget;
  // Room for the largest possible batch, so the downlink drains every
  // tick: a backlog would grow with the horizon and make peak memory a
  // random walk of the seed.
  config.downlink_capacity = object::Units(kPerTick) * kSizeHi;
  return config;
}

// One repetition's inputs and station, in construction order.
struct StationSim {
  util::Rng rng;
  object::Catalog catalog;
  server::ServerPool servers;
  core::BaseStation station;
  workload::RequestGenerator generator;
  std::unique_ptr<workload::UpdateProcess> updates;
  workload::RequestBatch batch;

  explicit StationSim(std::uint64_t seed)
      : rng(seed),
        catalog(object::make_random_catalog(kObjects, kSizeLo, kSizeHi, rng)),
        servers(catalog, 1),
        station(catalog, servers, cache::make_harmonic_decay(),
                std::make_unique<core::ReciprocalScorer>(),
                core::make_policy("on-demand-knapsack"),
                station_config()),
        generator(workload::make_zipf_access(kObjects, 1.0),
                  workload::UniformTarget{0.5, 1.0}, kPerTick, rng.split()),
        updates(workload::make_periodic_staggered(kObjects, kUpdatePeriod)) {
    batch.reserve(kPerTick);
  }
};

// The observers enabled up to `rung`, each attached through its public
// hook. Registration happens before windows->begin(), which snapshots the
// column set the SLO monitor evaluates.
class Observers {
 public:
  Observers(int rung, StationSim& sim, sim::Tick total_ticks,
            obs::PhaseProfiler* external_profiler)
      : profiler_(external_profiler) {
    if (rung >= 1) {
      sim.station.set_metrics(&registry_);
      sim.servers.set_metrics(&registry_);
      recorder_.emplace(registry_);
      recorder_->reserve(std::size_t(total_ticks));
    }
    if (rung >= 2) {
      tracer_.emplace(obs::RequestTracer::Config{kTraceSampleEvery, 1 << 16});
      tracer_->register_histograms(&registry_);
      sim.station.set_request_tracer(&*tracer_);
    }
    if (rung >= 3) {
      // Inline flush: serialization runs on the tick thread, so the rung
      // measures its full cost rather than whether a second core was idle.
      obs::JsonlTraceSink::Config sink_config;
      sink_config.background_flush = false;
      sink_.emplace("/dev/null", sink_config);
      tracer_->log().set_sink(&*sink_);
    }
    if (rung >= 5) {
      if (profiler_ == nullptr) profiler_ = &own_profiler_.emplace();
      profiler_->attach_registry(&registry_);
      registry_attached_ = true;
    }
    if (rung >= 6) {
      slo_.emplace(&registry_, exp::default_soak_slos());
      slo_->set_sink(&*sink_);
    }
    if (rung >= 4) {
      obs::WindowAggregator::Config config;
      config.window_ticks = kWindowTicks;
      config.frame_capacity = std::size_t(total_ticks / kWindowTicks) + 2;
      windows_.emplace(registry_, config);
      if (slo_) windows_->set_listener(&*slo_);
      windows_->begin();
    }
    if (profiler_ != nullptr) sim.station.set_profiler(profiler_);
  }
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;
  ~Observers() {
    if (registry_attached_) profiler_->attach_registry(nullptr);
  }

  void on_tick(sim::Tick t) {
    if (recorder_) recorder_->sample(t);
    if (windows_) windows_->on_tick(t);
  }

  void finish() {
    if (windows_) windows_->finish();
    if (sink_) sink_->close();
  }

  std::uint64_t trace_dropped() const {
    return tracer_ ? tracer_->log().dropped() : 0;
  }

 private:
  obs::MetricsRegistry registry_;
  std::optional<obs::SeriesRecorder> recorder_;
  std::optional<obs::RequestTracer> tracer_;
  std::optional<obs::JsonlTraceSink> sink_;
  std::optional<obs::PhaseProfiler> own_profiler_;
  obs::PhaseProfiler* profiler_ = nullptr;
  bool registry_attached_ = false;
  std::optional<obs::SloMonitor> slo_;
  std::optional<obs::WindowAggregator> windows_;
};

// The ledger's spans around each layer call of a tick; the station's own
// bs.* phases nest inside bs.process.
struct Spans {
  obs::PhaseProfiler* profiler = nullptr;
  obs::PhaseProfiler::PhaseId tick = 0, batch = 0, updates = 0, process = 0;

  explicit Spans(obs::PhaseProfiler* p) : profiler(p) {
    if (p == nullptr) return;
    tick = p->phase("station.tick");
    batch = p->phase("workload.batch");
    updates = p->phase("bs.updates");
    process = p->phase("bs.process");
  }
};

core::TickResult step(StationSim& sim, const Spans& spans, sim::Tick t) {
  obs::ScopedPhase tick_span(spans.profiler, spans.tick);
  {
    obs::ScopedPhase span(spans.profiler, spans.batch);
    sim.generator.next_batch_into(sim.batch);
  }
  {
    obs::ScopedPhase span(spans.profiler, spans.updates);
    sim.station.apply_updates(*sim.updates, t);
  }
  obs::ScopedPhase span(spans.profiler, spans.process);
  return sim.station.process_batch(sim.batch, t);
}

class StationWorkload final : public Workload {
 public:
  StationWorkload(std::uint64_t seed, int rung) : seed_(seed), rung_(rung) {}

  bool pooled() const override { return false; }

  void set_scale(double scale) override {
    warmup_ = std::max<sim::Tick>(1, sim::Tick(std::lround(kWarmupTicks * scale)));
    ticks_ = std::max<sim::Tick>(1, sim::Tick(std::lround(kTicks * scale)));
  }

  double bring_up(util::ThreadPool*, std::uint64_t* armed_allocs) override {
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    StationSim sim(seed_);
    Observers observers(rung_, sim, warmup_ + ticks_, nullptr);
    warm_up(sim, observers, Spans(nullptr));
    const double seconds = seconds_since(start);
    if (armed_allocs != nullptr) *armed_allocs = allocations() - a0;
    return seconds;
  }

  Rep run(util::ThreadPool*, obs::PhaseProfiler* profiler,
          Gate& gate) override {
    StationSim sim(seed_);
    Observers observers(rung_, sim, warmup_ + ticks_, profiler);
    const Spans spans(profiler);
    warm_up(sim, observers, spans);

    Rep rep;
    core::RunTotals timed;
    const bool per_tick = profiler != nullptr;
    if (per_tick) rep.tick_us.reserve(std::size_t(ticks_));
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    for (sim::Tick t = warmup_; t < warmup_ + ticks_; ++t) {
      const auto tick_start = per_tick ? Clock::now() : Clock::time_point{};
      timed.add(step(sim, spans, t));
      observers.on_tick(t);
      if (per_tick) rep.tick_us.push_back(1e6 * seconds_since(tick_start));
    }
    rep.seconds = seconds_since(start);
    rep.allocations = allocations() - a0;
    observers.finish();

    rep.requests = timed.requests;
    rep.ticks = std::uint64_t(ticks_);
    rep.avg_score = timed.average_score();
    rep.units_per_request =
        double(timed.units_downloaded) / double(timed.requests);
    rep.counters = {{"fetches", double(timed.objects_downloaded)},
                    {"trace_dropped", double(observers.trace_dropped())}};

    const core::RunTotals& all = sim.station.totals();
    const net::WirelessDownlink& downlink = sim.station.downlink();
    gate.check(all.requests ==
                   std::size_t(warmup_ + ticks_) * kPerTick,
               std::string(name()) + ": every request is served");
    gate.check(downlink.enqueued_total() ==
                   downlink.delivered_total() + downlink.queued() +
                       downlink.dropped_total(),
               std::string(name()) +
                   ": downlink enqueued == delivered + queued + dropped");

    Digest digest;
    for (std::uint64_t word :
         {std::uint64_t(all.requests), std::uint64_t(all.objects_downloaded),
          std::uint64_t(all.units_downloaded), std::uint64_t(all.peer_fetches),
          std::uint64_t(all.failed_fetches), std::uint64_t(all.retries),
          std::uint64_t(all.degraded_serves),
          std::uint64_t(downlink.enqueued_total()),
          std::uint64_t(downlink.delivered_total()),
          std::uint64_t(downlink.queued()),
          std::uint64_t(downlink.dropped_total())}) {
      digest.add(word);
    }
    digest.add(all.score_sum);
    digest.add(all.recency_sum);
    rep.digest = digest.value();
    return rep;
  }

  std::uint64_t reference_digest(Gate& gate) override {
    StationWorkload bare(seed_, 0);
    bare.warmup_ = warmup_;
    bare.ticks_ = ticks_;
    return bare.run(nullptr, nullptr, gate).digest;
  }

 private:
  const char* name() const {
    return rung_ == 0 ? "station" : "station_observed";
  }

  void warm_up(StationSim& sim, Observers& observers, const Spans& spans) {
    for (sim::Tick t = 0; t < warmup_; ++t) {
      step(sim, spans, t);
      observers.on_tick(t);
    }
  }

  std::uint64_t seed_;
  int rung_;
  sim::Tick warmup_ = kWarmupTicks;
  sim::Tick ticks_ = kTicks;
};

}  // namespace

std::unique_ptr<Workload> make_station(std::uint64_t seed, int rung) {
  if (rung < 0 || rung > kObserverRungs) {
    throw std::invalid_argument("make_station: rung out of range");
  }
  return std::make_unique<StationWorkload>(seed, rung);
}

const char* rung_name(int rung) {
  static const char* const kNames[] = {"bare",    "recorder", "tracer",
                                       "sink",    "windows",  "profiler",
                                       "slo"};
  return kNames[rung];
}

}  // namespace ledger
