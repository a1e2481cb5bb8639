// Google-benchmark microbenchmarks for the simulation substrate: access
// sampling, cache decay, base-station tick processing, and the event
// kernel — the per-tick costs that bound how large a scenario the
// simulator can run.
//
// The binary also always runs the steady-state tick hot-path measurement
// (docs/performance.md): the BM_BaseStationTick workload timed in plain
// wall-clock rounds, with ticks/sec recorded per round. --quick runs only
// that measurement; --out=<dir> writes it as mobicache.metrics.v1 JSON
// (<dir>/micro_simulation_metrics.json) for BENCH_hotpath.json trending.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include "bench_common.hpp"

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

void BM_ZipfSampling(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto access = workload::make_zipf_access(n, 1.0);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(access->sample(rng));
  }
}
BENCHMARK(BM_ZipfSampling)->Range(64, 65536);

void BM_CacheDecaySweep(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::Cache cache(n, cache::make_harmonic_decay());
  for (object::ObjectId id = 0; id < n; ++id) {
    cache.refresh(id, server::FetchResult{1, 0, 1}, 0);
  }
  for (auto _ : state) {
    for (object::ObjectId id = 0; id < n; ++id) cache.on_server_update(id);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_CacheDecaySweep)->Range(128, 8192);

void BM_BaseStationTick(benchmark::State& state) {
  const auto objects = std::size_t(state.range(0));
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(objects, 1, 10, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(objects) / 4;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  workload::RequestGenerator generator(
      workload::make_zipf_access(objects, 1.0), workload::ConstantTarget{1.0},
      objects / 2, rng.split());
  sim::Tick t = 0;
  for (auto _ : state) {
    station.process_batch(generator.next_batch(), t++);
  }
}
BENCHMARK(BM_BaseStationTick)->Range(64, 1024);

// Same tick loop with the full observability stack attached (registry on
// station + cache + downlink + servers, recorder sampling every tick).
// Compare against BM_BaseStationTick to measure instrumentation overhead;
// the null-registry path of that benchmark is the <5% regression budget.
void BM_BaseStationTickInstrumented(benchmark::State& state) {
  const auto objects = std::size_t(state.range(0));
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(objects, 1, 10, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(objects) / 4;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  station.set_metrics(&registry);
  servers.set_metrics(&registry);
  workload::RequestGenerator generator(
      workload::make_zipf_access(objects, 1.0), workload::ConstantTarget{1.0},
      objects / 2, rng.split());
  sim::Tick t = 0;
  for (auto _ : state) {
    station.process_batch(generator.next_batch(), t);
    recorder.sample(t);
    ++t;
  }
  state.counters["series"] = double(recorder.series_names().size());
}
BENCHMARK(BM_BaseStationTickInstrumented)->Range(64, 1024);

// The instrumented tick traced as the ledger's station_observed traces
// it: a 1-in-16 RequestTracer with its latency histograms and an
// inline-flush JsonlTraceSink to /dev/null, so formatting runs on the
// tick thread. Staggered updates every 5 ticks keep stale copies, and so
// fetch events, flowing (BM_BaseStationTick applies no updates). The
// downlink has room for the largest batch, as in the ledger: a backlog
// would grow with the iteration count and time its own compaction.
void BM_BaseStationTickInstrumentedTraced(benchmark::State& state) {
  const auto objects = std::size_t(state.range(0));
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(objects, 1, 10, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(objects) / 4;
  config.downlink_capacity = object::Units(objects / 2) * 10;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  station.set_metrics(&registry);
  servers.set_metrics(&registry);
  obs::RequestTracer tracer(obs::RequestTracer::Config{16, 1 << 16});
  tracer.register_histograms(&registry);
  station.set_request_tracer(&tracer);
  obs::JsonlTraceSink::Config sink_config;
  sink_config.background_flush = false;
  obs::JsonlTraceSink sink("/dev/null", sink_config);
  tracer.log().set_sink(&sink);
  const auto updates = workload::make_periodic_staggered(objects, 5);
  workload::RequestGenerator generator(
      workload::make_zipf_access(objects, 1.0), workload::ConstantTarget{1.0},
      objects / 2, rng.split());
  sim::Tick t = 0;
  for (auto _ : state) {
    station.apply_updates(*updates, t);
    station.process_batch(generator.next_batch(), t);
    recorder.sample(t);
    ++t;
  }
  tracer.log().set_sink(nullptr);
  state.counters["events_per_tick"] =
      t > 0 ? double(sink.streamed_events()) / double(t) : 0.0;
}
BENCHMARK(BM_BaseStationTickInstrumentedTraced)->Range(64, 1024);

void BM_EventKernel(benchmark::State& state) {
  const auto events = std::size_t(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::size_t i = 0; i < events; ++i) {
      simulator.schedule_at(double(i % 97), [] {});
    }
    simulator.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(events));
}
BENCHMARK(BM_EventKernel)->Range(1024, 65536);

// Wall-clock rounds of the default BM_BaseStationTick workload (512
// objects, budget 128, zipf(1.0) batches of 256, exact-DP policy) — the
// number BENCH_hotpath.json trends across PRs.
void run_hotpath(const util::Flags& flags) {
  using Clock = std::chrono::steady_clock;
  const bool quick = flags.get_bool("quick", false);
  const auto objects = std::size_t(flags.get_int("hot_objects", 512));
  const int rounds = int(flags.get_int("hot_rounds", quick ? 3 : 12));
  const int ticks = int(flags.get_int("hot_ticks", quick ? 200 : 2000));

  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(objects, 1, 10, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = object::Units(objects) / 4;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);
  workload::RequestGenerator generator(
      workload::make_zipf_access(objects, 1.0), workload::ConstantTarget{1.0},
      objects / 2, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 64; ++b) batches.push_back(generator.next_batch());

  obs::MetricsRegistry registry;
  auto& ns_gauge = registry.register_gauge("hotpath.ns_per_tick");
  auto& tps_gauge = registry.register_gauge("hotpath.ticks_per_sec");
  obs::SeriesRecorder recorder(registry);

  sim::Tick t = 0;
  // Warm-up: one pass over the batch pool fills caches and scratch
  // buffers so the measured rounds see the steady state.
  for (const auto& batch : batches) station.process_batch(batch, t++);
  double total_ns = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < ticks; ++i) {
      station.process_batch(batches[std::size_t(i) % batches.size()], t++);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        ticks;
    total_ns += ns;
    ns_gauge.set(ns);
    tps_gauge.set(1e9 / ns);
    recorder.sample(sim::Tick(r));
  }
  const double mean_ns = total_ns / rounds;
  std::printf(
      "== micro_simulation hotpath (steady-state tick, %zu objects) ==\n"
      "%.0f ns/tick (%.0f ticks/sec)\n\n",
      objects, mean_ns, 1e9 / mean_ns);
  bench::emit_metrics(flags, "micro_simulation", recorder);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  run_hotpath(flags);
  if (flags.get_bool("quick", false)) return 0;
  // Strip our flags before handing argv to google-benchmark (it rejects
  // unknown --flags).
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick" || arg.rfind("--out", 0) == 0 ||
        arg.rfind("--hot_", 0) == 0) {
      if ((arg == "--out" || arg.rfind("--hot_", 0) == 0) &&
          arg.find('=') == std::string_view::npos && i + 1 < argc) {
        ++i;  // skip the detached value token
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = int(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
