// Mobility sweep: churn ramp x {predictive, residence-blind} knapsack.
// Each row runs one MobilityFleet configuration through run_multi_cell —
// random-waypoint clients over the cell grid, trajectory handoffs, and a
// downlink delivery latency that loses payloads to departed clients.
// Expected shape: as churn climbs, crossings and lost deliveries rise
// and mean recency falls for both variants; the predictive knapsack
// (per-client benefit scaled by predicted residency, the MobiCacher
// term) spends its budget on clients that will still be there when the
// payload lands, so its served-recency-per-unit stays ahead of the
// residence-blind twin wherever churn is material.
//
// With --out=<dir> the commute-churn predictive run additionally ships
// its per-tick mc.* / mc.mobility.* series as <dir>/mobility_metrics.json
// (schema mobicache.metrics.v1); tools/metrics_diff compares that
// artifact against results/golden_mobility.json as the CI gate.
#include <algorithm>
#include <string>

#include "bench_common.hpp"
#include "exp/multi_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace {

mobi::exp::MultiCellConfig base_config(const mobi::util::Flags& flags) {
  mobi::exp::MultiCellConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.cell_count = 9;
  config.cell.client_count = 8;
  config.cell.object_count = 40;
  config.cell.ticks = 400;
  config.cell.base_budget = 12;
  config.mobility.mode = mobi::sim::MobilityMode::kRandomWaypoint;
  config.mobility.pause_lo = 0;
  config.mobility.pause_hi = 4;
  config.mobility.handoff_ticks = config.cell.report_period + 1;
  config.mobility_horizon = 10;
  if (flags.get_bool("quick", false)) {
    config.cell_count = 6;
    config.cell.object_count = 30;
    config.cell.ticks = 150;
  }
  return config;
}

struct Churn {
  const char* name;
  double speed_lo;
  double speed_hi;
};

constexpr Churn kChurns[] = {
    {"calm", 0.02, 0.08},
    {"drift", 0.05, 0.2},
    {"commute", 0.1, 0.4},
    {"storm", 0.3, 0.9},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  util::Table table({"churn", "knapsack", "avg score", "score/unit",
                     "crossings", "migrations", "deliveries", "lost",
                     "units"});
  for (const Churn& churn : kChurns) {
    for (const bool predictive : {true, false}) {
      exp::MultiCellConfig config = base_config(flags);
      config.mobility.speed_lo = churn.speed_lo;
      config.mobility.speed_hi = churn.speed_hi;
      config.mobility_predictive = predictive;
      const exp::MultiCellResult result = exp::run_multi_cell(config);
      const double units = double(
          std::max<object::Units>(1, result.aggregate.base_downloaded));
      table.add_row({std::string(churn.name),
                     std::string(predictive ? "predictive" : "blind"),
                     result.aggregate.average_score(),
                     result.aggregate.score_sum / units,
                     (long long)(result.mobility.crossings),
                     (long long)(result.mobility.migrations),
                     (long long)(result.mobility.deliveries),
                     (long long)(result.mobility.lost_deliveries),
                     (long long)(result.aggregate.base_downloaded)});
    }
  }
  bench::emit(flags,
              "Mobility: churn ramp x {predictive, residence-blind} "
              "knapsack (random-waypoint trajectories)",
              "mobility_sweep", table);

  // The metrics artifact for the golden gate: one recorded predictive
  // run at commute churn (crossings, migrations, deliveries and losses
  // all nonzero).
  exp::MultiCellConfig config = base_config(flags);
  config.mobility.speed_lo = kChurns[2].speed_lo;
  config.mobility.speed_hi = kChurns[2].speed_hi;
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  exp::run_multi_cell(config, nullptr, {.recorder = &recorder});
  bench::emit_metrics(flags, "mobility", recorder);
  return 0;
}
