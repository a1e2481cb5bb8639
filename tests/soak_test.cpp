// Long-horizon soak harness: the fault ramp is pinned, two runs of the
// same seed produce bit-identical windowed series for every pool size,
// the trend shows graceful degradation (faults climb, quality declines,
// nothing cliffs to zero), and the exported document round-trips through
// the metrics-diff gate cleanly — the properties the CI golden gate
// depends on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/multi_cell.hpp"
#include "exp/soak.hpp"
#include "obs/metrics_diff.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace mobi::exp {
namespace {

// Small enough to run in a test, large enough that every series family
// (fault.*, lat.*, trace.*, mc.*) carries nonzero mass by the last window.
SoakConfig quick_config() {
  SoakConfig config;
  config.windows = 3;
  config.window_ticks = 40;
  config.window_warmup = 10;
  config.base.object_count = 60;
  config.base.requests_per_tick = 20;
  config.cell_count = 2;
  config.cell.object_count = 50;
  config.cell.client_count = 16;
  config.cell.ticks = 40;
  config.trace_sample_every = 4;
  return config;
}

TEST(Soak, FaultRampIsPinnedAndLinear) {
  SoakConfig config = quick_config();
  config.fault_rate_lo = 0.0;
  config.fault_rate_hi = 0.3;
  EXPECT_DOUBLE_EQ(soak_plan_at(config, 0).fetch_failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(soak_plan_at(config, 1).fetch_failure_rate, 0.15);
  EXPECT_DOUBLE_EQ(soak_plan_at(config, 2).fetch_failure_rate, 0.3);
  // Secondary categories scale off the headline rate, as in the sweep.
  const sim::FaultPlan last = soak_plan_at(config, 2);
  EXPECT_DOUBLE_EQ(last.fetch_slowdown_rate, 0.15);
  EXPECT_DOUBLE_EQ(last.downlink_drop_rate, 0.15);
  EXPECT_DOUBLE_EQ(last.server_outage_rate, 0.06);
  // A flat soak holds the rate constant.
  config.fault_rate_hi = config.fault_rate_lo = 0.1;
  EXPECT_DOUBLE_EQ(soak_plan_at(config, 0).fetch_failure_rate, 0.1);
  EXPECT_DOUBLE_EQ(soak_plan_at(config, 2).fetch_failure_rate, 0.1);
}

TEST(Soak, RejectsBadConfiguration) {
  SoakConfig zero = quick_config();
  zero.windows = 0;
  EXPECT_THROW(run_soak(zero), std::invalid_argument);
  SoakConfig rate = quick_config();
  rate.fault_rate_hi = 1.5;
  EXPECT_THROW(run_soak(rate), std::invalid_argument);
  SoakConfig sample = quick_config();
  sample.trace_sample_every = 0;
  EXPECT_THROW(run_soak(sample), std::invalid_argument);
  SoakConfig ticks = quick_config();
  ticks.window_ticks = -5;
  EXPECT_THROW(run_soak(ticks), std::invalid_argument);
  SoakConfig warmup = quick_config();
  warmup.window_warmup = -1;
  EXPECT_THROW(run_soak(warmup), std::invalid_argument);
}

// A trace file that cannot be written fails the run, naming the file,
// instead of leaving a silently truncated trace behind.
TEST(Soak, TraceWriteFailureThrowsNamingTheFile) {
  SoakConfig config = quick_config();
  config.trace_jsonl = "/dev/full";
  try {
    run_soak(config);
    ADD_FAILURE() << "run_soak finished despite a failed trace sink";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(Soak, BitIdenticalAcrossRunsAndPoolSizes) {
  const SoakConfig config = quick_config();
  const SoakResult serial = run_soak(config);
  ASSERT_EQ(serial.windows, config.windows);
  ASSERT_FALSE(serial.series.empty());

  // Re-run: identical map, series by series, value by value (EXPECT_EQ
  // on doubles is deliberate — the contract is bit-identical).
  const SoakResult again = run_soak(config);
  EXPECT_EQ(serial.series, again.series);

  for (std::size_t pool_size : {1u, 2u, 8u}) {
    util::ThreadPool pool(pool_size);
    const SoakResult pooled = run_soak(config, &pool);
    EXPECT_EQ(serial.series, pooled.series) << "pool size " << pool_size;
  }
  // And the JSON export is byte-stable, so golden artifacts diff clean.
  EXPECT_EQ(serial.to_json(), again.to_json());
}

TEST(Soak, TrendsShowGracefulDegradationUnderTheRamp) {
  const SoakResult result = run_soak(quick_config());
  const std::size_t last = result.windows - 1;

  // The ramp itself is monotone.
  const auto& rate = result.at("fault_rate");
  for (std::size_t w = 1; w < result.windows; ++w) {
    EXPECT_GE(rate[w], rate[w - 1]);
  }
  // Resilience series wake up as the rate climbs: nothing injected at
  // rate 0, real failure mass by the end.
  EXPECT_EQ(result.at("failed_fetches")[0], 0.0);
  EXPECT_GT(result.at("failed_fetches")[last], 0.0);
  EXPECT_GT(result.at("fault.injected.fetch_failures")[last], 0.0);
  EXPECT_GT(result.at("retries")[last], 0.0);
  EXPECT_GT(result.at("degraded_serves")[last], 0.0);

  // Quality degrades but does not collapse: the last window still
  // serves every request, at a lower score than the clean window.
  EXPECT_LT(result.at("score.avg")[last], result.at("score.avg")[0]);
  EXPECT_GT(result.at("score.avg")[last], 0.0);
  EXPECT_LT(result.at("recency.avg")[last], result.at("recency.avg")[0]);
  EXPECT_EQ(result.at("requests")[0], result.at("requests")[last]);

  // Latency mass appears once retries resolve fetches late.
  EXPECT_EQ(result.at("lat.ticks_to_serve.mean")[0], 0.0);
  EXPECT_GT(result.at("lat.ticks_to_serve.mean")[last], 0.0);

  // Both legs traced: the station leg's sampled events and the merged
  // multi-cell trace counters are live.
  EXPECT_GT(result.at("trace.events")[0], 0.0);
  EXPECT_GT(result.at("mc.trace.events")[0], 0.0);
  EXPECT_GT(result.at("mc.requests")[0], 0.0);

  // Unknown series stay a hard error (typo guard for gate configs).
  EXPECT_THROW(result.at("no.such.series"), std::out_of_range);
}

TEST(Soak, HandoffStormDegradesMeanRecencyGracefully) {
  // Mobility chaos leg: the same fleet under a calm window (slow walkers,
  // long pauses) and a handoff-storm window (~10x the boundary-crossing
  // churn: everyone sprints, nobody pauses). A storm costs real recency —
  // every crossing opens an off-air handoff window and in-flight payloads
  // land on departed clients — but the degradation must stay graceful: a
  // bounded ratio of the calm window's mean score, not a cliff to zero.
  MultiCellConfig config;
  config.cell_count = 6;
  config.cell.client_count = 8;
  config.cell.object_count = 40;
  config.cell.ticks = 150;
  config.cell.base_budget = 16;
  config.mobility.mode = sim::MobilityMode::kRandomWaypoint;
  config.mobility.speed_lo = 0.02;
  config.mobility.speed_hi = 0.06;
  config.mobility.pause_lo = 2;
  config.mobility.pause_hi = 6;
  config.mobility.handoff_ticks = 2;
  config.seed = 97;
  const MultiCellResult calm = run_multi_cell(config);

  config.mobility.speed_lo *= 10.0;
  config.mobility.speed_hi *= 10.0;
  config.mobility.pause_lo = 0;
  config.mobility.pause_hi = 0;
  const MultiCellResult storm = run_multi_cell(config);

  // The storm is a real storm: several-fold the calm crossing rate, and
  // payloads actually die in flight.
  EXPECT_GE(storm.mobility.crossings, 7 * calm.mobility.crossings);
  EXPECT_GT(storm.mobility.lost_deliveries, calm.mobility.lost_deliveries);

  const double calm_score = calm.aggregate.average_score();
  const double storm_score = storm.aggregate.average_score();
  EXPECT_LT(storm_score, calm_score);         // churn costs recency...
  EXPECT_GT(storm_score, 0.4 * calm_score);   // ...but degrades gracefully
}

TEST(Soak, ExportFeedsTheMetricsDiffGate) {
  SoakConfig config = quick_config();
  config.cell_count = 0;  // station leg only: mc.* series absent
  const SoakResult result = run_soak(config);
  EXPECT_EQ(result.series.count("mc.requests"), 0u);

  const std::string text = result.to_json();
  // Parses as soak.v1 with the window-index axis.
  const util::json::Value root = util::json::parse(text);
  EXPECT_EQ(root.at("schema").str(), "mobicache.soak.v1");
  ASSERT_EQ(root.at("windows").arr().size(), config.windows);
  EXPECT_EQ(root.at("windows").arr()[2].num(), 2.0);

  // Self-diff through the real gate path is clean; a perturbed copy of
  // one value is caught.
  EXPECT_TRUE(obs::diff_metrics_text(text, text).ok());
  std::string perturbed = text;
  const std::string needle = "\"score.avg\":[";
  const std::size_t at = perturbed.find(needle);
  ASSERT_NE(at, std::string::npos);
  perturbed.insert(at + needle.size(), "42,");
  // One extra value shifts the series length — a regression, loudly.
  EXPECT_FALSE(obs::diff_metrics_text(text, perturbed).ok());
}

}  // namespace
}  // namespace mobi::exp
