// Coherent cooperative caching sweep: consistency mode x download policy.
// Each row runs one cluster configuration through run_cooperative —
// origin-only and coherence-off neighbor-first (full-cost neighbor copies)
// are the baselines without the protocol; invalidate / propagate / lease
// run the directory protocol with the discounted peer tier engaged.
// Expected shape: the peer tier absorbs origin bandwidth wherever
// interests overlap; propagate buys the highest recency at continuous
// wire cost, invalidate trades refetch storms for zero staleness, lease
// lands in between with bounded staleness and no per-update traffic. The
// async-round-robin rows show the same protocol under a non-knapsack
// policy for scale.
//
// With --out=<dir> the propagate run additionally ships its per-tick
// coop.* / coop.coherence.* series as <dir>/coop_metrics.json (schema
// mobicache.metrics.v1); tools/metrics_diff compares that artifact
// against results/golden_coop.json as the CI gate.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "coop/cooperative.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace {

mobi::coop::CoopConfig base_config(const mobi::util::Flags& flags) {
  mobi::coop::CoopConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.cell_count = 4;
  config.coherence.lease_ticks = 6;
  if (flags.get_bool("quick", false)) {
    config.cell_count = 3;
    config.object_count = 80;
    config.requests_per_tick_per_cell = 20;
    config.warmup_ticks = 10;
    config.measure_ticks = 60;
    config.budget_per_cell = 30;
    config.coherence.lease_ticks = 4;
  }
  return config;
}

struct Variant {
  const char* name;
  mobi::coop::FetchMode mode;
  bool coherent;
  mobi::coop::ConsistencyMode consistency;
};

constexpr Variant kVariants[] = {
    {"origin-only", mobi::coop::FetchMode::kOriginOnly, false,
     mobi::coop::ConsistencyMode::kInvalidate},
    {"neighbor-first", mobi::coop::FetchMode::kNeighborFirst, false,
     mobi::coop::ConsistencyMode::kInvalidate},
    {"invalidate", mobi::coop::FetchMode::kNeighborFirst, true,
     mobi::coop::ConsistencyMode::kInvalidate},
    {"propagate", mobi::coop::FetchMode::kNeighborFirst, true,
     mobi::coop::ConsistencyMode::kPropagate},
    {"lease", mobi::coop::FetchMode::kNeighborFirst, true,
     mobi::coop::ConsistencyMode::kLease},
};

mobi::coop::CoopConfig variant_config(const mobi::coop::CoopConfig& base,
                                      const Variant& variant,
                                      const std::string& policy) {
  mobi::coop::CoopConfig config = base;
  config.mode = variant.mode;
  config.policy = policy;
  config.coherence.enabled = variant.coherent;
  config.coherence.mode = variant.consistency;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const coop::CoopConfig base = base_config(flags);

  util::Table table({"policy", "variant", "avg score", "avg recency",
                     "origin units", "neighbor units", "peer hits",
                     "peer units", "proto units", "invalidations",
                     "propagations", "lease expiries"});
  for (const std::string& policy :
       {std::string("on-demand-knapsack"), std::string("async-round-robin")}) {
    for (const Variant& variant : kVariants) {
      const auto result =
          coop::run_cooperative(variant_config(base, variant, policy));
      table.add_row({policy, std::string(variant.name),
                     result.average_score(), result.average_recency(),
                     (long long)(result.origin_units),
                     (long long)(result.neighbor_units),
                     (long long)(result.peer_hits),
                     (long long)(result.peer_fetch_units),
                     (long long)(result.coherence_units),
                     (long long)(result.invalidations),
                     (long long)(result.propagations),
                     (long long)(result.lease_expiries)});
    }
  }
  bench::emit(flags,
              "Coherent cooperative caching: consistency mode x policy "
              "(shared zipf interests)",
              "coop_sweep", table);

  // The metrics artifact for the golden gate: one recorded propagate run
  // (peer tier + protocol traffic + wire cost all nonzero).
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  coop::run_cooperative(
      variant_config(base, kVariants[3], "on-demand-knapsack"), nullptr,
      &recorder);
  bench::emit_metrics(flags, "coop", recorder);
  return 0;
}
