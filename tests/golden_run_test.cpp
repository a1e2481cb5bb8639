// Golden-run regression suite: small fixed-seed end-to-end runs of the
// fig2 / fig3 / policy-sim experiments with their headline numbers pinned.
// Any change to workload generation, cache decay, policy selection, or the
// metrics plumbing that shifts these values must be deliberate — update
// the constants in the same commit and say why.
//
// Integer metrics are pinned exactly; derived doubles use a 1e-12
// tolerance (they are sums of well-conditioned terms, so anything beyond
// that is a real behaviour change, not float noise). Wall-clock metrics
// (solve time, trace durations) are deliberately never pinned.
#include <gtest/gtest.h>

#include "exp/fig2.hpp"
#include "exp/fig3.hpp"
#include "exp/multi_cell.hpp"
#include "exp/policy_sim.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace mobi {
namespace {

exp::Fig2Config golden_fig2_config() {
  exp::Fig2Config config;
  config.object_count = 60;
  config.warmup_ticks = 20;
  config.measure_ticks = 100;
  config.seed = 42;
  return config;
}

TEST(GoldenRun, Fig2DownloadVolume) {
  const exp::Fig2Config config = golden_fig2_config();
  EXPECT_EQ(exp::run_fig2_once(config, exp::AccessPattern::kUniform, 50), 1185);
  EXPECT_EQ(exp::run_fig2_once(config, exp::AccessPattern::kZipf, 50), 982);
  EXPECT_EQ(exp::run_fig2_once(config, exp::AccessPattern::kRankLinear, 50),
            1065);
}

TEST(GoldenRun, Fig2InstrumentedMetrics) {
  const exp::Fig2Config config = golden_fig2_config();
  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const object::Units downloaded =
      exp::run_fig2_once(config, exp::AccessPattern::kZipf, 50, &recorder);

  // The station's own counters (warmup + measure) must line up with the
  // measure-window return value and with each other.
  EXPECT_EQ(registry.find_counter("bs.requests")->value(), 6000u);
  EXPECT_EQ(registry.find_counter("bs.fetches")->value(), 1171u);
  EXPECT_EQ(registry.find_counter("bs.units_downloaded")->value(), 1171u);
  EXPECT_EQ(registry.find_counter("servers.fetches")->value(),
            registry.find_counter("bs.fetches")->value());
  EXPECT_GE(registry.find_counter("bs.units_downloaded")->value(),
            std::uint64_t(downloaded));

  // Per-tick series cover the whole run and end at the final totals.
  ASSERT_EQ(recorder.samples(),
            std::size_t(config.warmup_ticks + config.measure_ticks));
  EXPECT_EQ(recorder.series("bs.fetches").back(),
            double(registry.find_counter("bs.fetches")->value()));
}

TEST(GoldenRun, Fig3Recency) {
  exp::Fig3Config config;
  config.object_count = 50;
  config.requests_per_tick = 25;
  config.warmup_ticks = 10;
  config.measure_ticks = 30;
  config.seed = 42;

  EXPECT_NEAR(exp::run_fig3_once(config, 5, true), 0.83733333333333337, 1e-12);
  EXPECT_NEAR(exp::run_fig3_once(config, 5, false), 0.77133333333333332, 1e-12);
  // With budget 20 on-demand keeps every served copy fully fresh.
  EXPECT_DOUBLE_EQ(exp::run_fig3_once(config, 20, true), 1.0);
  EXPECT_NEAR(exp::run_fig3_once(config, 20, false), 0.95733333333333337, 1e-12);
}

TEST(GoldenRun, PolicySimEndToEnd) {
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 10;
  config.measure_ticks = 50;
  config.budget = 10;
  config.update_period = 3;
  config.seed = 42;

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const exp::PolicySimResult result =
      exp::run_policy_sim(config, {.recorder = &recorder});

  // Headline results (measure window).
  EXPECT_EQ(result.requests, 1000u);
  EXPECT_EQ(result.objects_downloaded, 136u);
  EXPECT_EQ(result.units_downloaded, 474);
  EXPECT_NEAR(result.average_score, 0.839606412546541, 1e-12);
  EXPECT_NEAR(result.average_recency, 0.67717036564226973, 1e-12);
  EXPECT_NEAR(result.jain_fairness, 0.94515082641098813, 1e-12);

  // Observability counters (whole run, warmup included).
  EXPECT_EQ(registry.find_counter("bs.requests")->value(), 1200u);
  EXPECT_EQ(registry.find_counter("bs.hits")->value(), 1022u);
  EXPECT_EQ(registry.find_counter("bs.fetches")->value(), 166u);
  EXPECT_EQ(registry.find_counter("bs.units_downloaded")->value(), 570u);
  EXPECT_EQ(registry.find_counter("bs.cache.refreshes")->value(), 166u);
  EXPECT_EQ(registry.find_counter("servers.updates")->value(), 800u);
}

// The same run as PolicySimEndToEnd with request-lifecycle tracing
// attached: every pinned headline number must hold bit for bit (tracing
// is read-only observation), and the trace totals themselves are pinned
// against the counters so the event stream can't silently thin out.
TEST(GoldenRun, PolicySimTracedMatchesPinnedNumbers) {
  exp::PolicySimConfig config;
  config.object_count = 40;
  config.requests_per_tick = 20;
  config.warmup_ticks = 10;
  config.measure_ticks = 50;
  config.budget = 10;
  config.update_period = 3;
  config.seed = 42;

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  obs::RequestTracer tracer;
  tracer.register_histograms(&registry);
  const exp::PolicySimResult result =
      exp::run_policy_sim(config, {.recorder = &recorder, .tracer = &tracer});

  EXPECT_EQ(result.requests, 1000u);
  EXPECT_EQ(result.objects_downloaded, 136u);
  EXPECT_EQ(result.units_downloaded, 474);
  EXPECT_NEAR(result.average_score, 0.839606412546541, 1e-12);
  EXPECT_NEAR(result.average_recency, 0.67717036564226973, 1e-12);
  EXPECT_NEAR(result.jain_fairness, 0.94515082641098813, 1e-12);

  // Trace accounting lines up with the registry's whole-run counters.
  EXPECT_EQ(tracer.arrivals(), 1200u);
  EXPECT_EQ(tracer.log().count(obs::EventKind::kArrival), 1200u);
  EXPECT_EQ(tracer.log().count(obs::EventKind::kDelivery), 1200u);
  EXPECT_EQ(tracer.log().count(obs::EventKind::kFetchDone),
            registry.find_counter("bs.fetches")->value());
  EXPECT_EQ(tracer.log().dropped(), 0u);
  EXPECT_EQ(registry.find_histogram("lat.served_recency_gap")->total(), 1200u);
  EXPECT_EQ(registry.find_histogram("lat.ticks_to_serve")->total(),
            registry.find_counter("bs.fetches")->value());
}

TEST(GoldenRun, MultiCellAggregates) {
  exp::MultiCellConfig config;
  config.cell_count = 4;
  config.cell.object_count = 40;
  config.cell.client_count = 10;
  config.cell.ticks = 60;
  config.cell.base_budget = 25;
  config.seed = 42;

  const exp::MultiCellResult result = exp::run_multi_cell(config);
  EXPECT_EQ(result.aggregate.requests, 2340u);
  EXPECT_EQ(result.aggregate.served_locally, 342u);
  EXPECT_EQ(result.aggregate.served_by_base, 1998u);
  EXPECT_EQ(result.aggregate.base_downloaded, 4706);
  EXPECT_EQ(result.aggregate.sleeper_drops, 6u);
  EXPECT_EQ(result.aggregate.disconnect_ticks, 60u);
  EXPECT_NEAR(result.aggregate.score_sum, 2299.5749694749693, 1e-12);
  EXPECT_NEAR(result.aggregate.average_score(), 0.98272434592947411, 1e-12);

  // Shards draw from distinct seed-stream positions: same template
  // config, different (pinned) per-cell outcomes.
  ASSERT_EQ(result.per_cell.size(), 4u);
  EXPECT_EQ(result.per_cell[0].requests, 588u);
  EXPECT_EQ(result.per_cell[1].requests, 578u);
  EXPECT_EQ(result.per_cell[2].requests, 587u);
  EXPECT_EQ(result.per_cell[3].requests, 587u);
  EXPECT_NEAR(result.per_cell[1].score_sum, 563.96984126984125, 1e-12);
}

}  // namespace
}  // namespace mobi
