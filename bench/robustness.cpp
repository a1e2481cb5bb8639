// Robustness: the on-demand policy vs the asynchronous baseline when the
// world is unkind — (a) non-stationary popularity (the hot set rotates
// mid-run) and (b) transient fixed-network faults. Request-driven
// selection follows the requests wherever they move and retries failed
// objects while they are still wanted; the request-oblivious round-robin
// does neither.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "net/fault_injector.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/hotspot.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

double run(const std::string& policy_name, sim::Tick hot_shift_period,
           double failure_rate, std::uint64_t seed) {
  const std::size_t n = 200;
  const object::Catalog catalog = object::make_uniform_catalog(n, 1);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = 15;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(policy_name), config);
  sim::FaultPlan plan;
  plan.fetch_failure_rate = failure_rate;
  plan.seed = seed ^ 0x7777ULL;
  net::FaultInjector faults(plan);
  station.set_fault_injector(&faults);
  auto updates = workload::make_periodic_staggered(n, 4);
  const workload::ShiftingHotspot hotspot(workload::make_zipf_access(n, 1.0),
                                          hot_shift_period, n / 4);
  util::Rng rng(seed);

  double score = 0.0;
  std::size_t requests = 0;
  const sim::Tick warmup = 30, ticks = 230;
  for (sim::Tick t = 0; t < ticks; ++t) {
    station.apply_updates(*updates, t);
    workload::RequestBatch batch;
    for (int i = 0; i < 80; ++i) {
      batch.push_back(workload::Request{hotspot.sample(rng, t), 1.0,
                                        workload::ClientId(i)});
    }
    const auto result = station.process_batch(batch, t);
    if (t >= warmup) {
      score += result.score_sum;
      requests += result.requests;
    }
  }
  return requests ? score / double(requests) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  util::Table shifting({"hot-set shift period", "on-demand knapsack",
                        "async round-robin", "gap"});
  for (sim::Tick period : {1000000, 100, 50, 25}) {
    const double on_demand = run("on-demand-knapsack", period, 0.0, seed);
    const double async = run("async-round-robin", period, 0.0, seed);
    shifting.add_row(
        {period >= 1000000 ? std::string("static") : std::to_string(period),
         on_demand, async, on_demand - async});
  }
  mobi::bench::emit(flags, "Robustness: shifting hotspot (no faults)",
                    "robustness_hotspot", shifting);

  util::Table faults({"fetch failure rate", "on-demand knapsack",
                      "async round-robin", "gap"});
  for (double rate : {0.0, 0.1, 0.25, 0.5}) {
    const double on_demand = run("on-demand-knapsack", 1000000, rate, seed);
    const double async = run("async-round-robin", 1000000, rate, seed);
    faults.add_row({rate, on_demand, async, on_demand - async});
  }
  mobi::bench::emit(flags, "Robustness: transient fetch faults (static zipf)",
                    "robustness_faults", faults);
  return 0;
}
