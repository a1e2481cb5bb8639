#include "exp/fig2.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/thread_pool.hpp"

namespace mobi::exp {
namespace {

Fig2Config small_config() {
  Fig2Config config;
  config.object_count = 100;
  config.update_period = 5;
  config.warmup_ticks = 20;
  config.measure_ticks = 100;
  config.request_rates = {0, 10, 25, 50, 100};
  config.seed = 7;
  return config;
}

TEST(Fig2, AsyncBoundIsAnalytic) {
  const auto result = run_fig2(small_config());
  // 100 objects * (100 / 5) updates = 2000 units.
  EXPECT_EQ(result.async_downloaded, 2000);
}

TEST(Fig2, OnDemandNeverExceedsAsync) {
  const auto result = run_fig2(small_config());
  for (const auto& curve : result.curves) {
    for (const auto& point : curve.points) {
      EXPECT_LE(point.on_demand_downloaded, result.async_downloaded)
          << access_pattern_name(curve.pattern) << " rate "
          << point.request_rate;
    }
  }
}

TEST(Fig2, ZeroRequestRateDownloadsNothing) {
  const auto result = run_fig2(small_config());
  for (const auto& curve : result.curves) {
    EXPECT_EQ(curve.points.front().on_demand_downloaded, 0);
  }
}

TEST(Fig2, DownloadsGrowWithRequestRate) {
  const auto result = run_fig2(small_config());
  for (const auto& curve : result.curves) {
    for (std::size_t i = 1; i < curve.points.size(); ++i) {
      EXPECT_GE(curve.points[i].on_demand_downloaded,
                curve.points[i - 1].on_demand_downloaded)
          << access_pattern_name(curve.pattern);
    }
  }
}

TEST(Fig2, SkewIncreasesSavings) {
  // At a moderate request rate the paper's ordering holds:
  // zipf < rank-linear < uniform in units downloaded.
  const auto config = small_config();
  const auto uniform =
      run_fig2_once(config, AccessPattern::kUniform, 50);
  const auto linear =
      run_fig2_once(config, AccessPattern::kRankLinear, 50);
  const auto zipf = run_fig2_once(config, AccessPattern::kZipf, 50);
  EXPECT_LT(zipf, linear);
  EXPECT_LT(linear, uniform);
}

TEST(Fig2, UniformApproachesAsyncAtHighRates) {
  const auto config = small_config();
  const auto heavy = run_fig2_once(config, AccessPattern::kUniform, 400);
  // 400 uniform requests/tick over 100 objects: nearly every object is
  // requested between updates, so on-demand ~ async.
  EXPECT_GT(double(heavy), 0.95 * 2000.0);
}

TEST(Fig2, DeterministicUnderSeed) {
  const auto config = small_config();
  EXPECT_EQ(run_fig2_once(config, AccessPattern::kZipf, 25),
            run_fig2_once(config, AccessPattern::kZipf, 25));
}

TEST(Fig2, CurvesCoverAllPatterns) {
  const auto result = run_fig2(small_config());
  ASSERT_EQ(result.curves.size(), 3u);
  EXPECT_EQ(result.curves[0].pattern, AccessPattern::kUniform);
  EXPECT_EQ(result.curves[1].pattern, AccessPattern::kRankLinear);
  EXPECT_EQ(result.curves[2].pattern, AccessPattern::kZipf);
  for (const auto& curve : result.curves) {
    EXPECT_EQ(curve.points.size(), small_config().request_rates.size());
  }
}

TEST(Fig2, ParallelSweepMatchesSerial) {
  auto config = small_config();
  config.request_rates = {0, 25, 50};
  const auto serial = run_fig2(config);
  util::ThreadPool pool(3);
  const auto parallel = run_fig2(config, &pool);
  ASSERT_EQ(parallel.curves.size(), serial.curves.size());
  EXPECT_EQ(parallel.async_downloaded, serial.async_downloaded);
  for (std::size_t c = 0; c < serial.curves.size(); ++c) {
    for (std::size_t i = 0; i < serial.curves[c].points.size(); ++i) {
      EXPECT_EQ(parallel.curves[c].points[i].on_demand_downloaded,
                serial.curves[c].points[i].on_demand_downloaded);
      EXPECT_EQ(parallel.curves[c].points[i].request_rate,
                serial.curves[c].points[i].request_rate);
    }
  }
}

// The analytic async bound divides by the period, so a non-positive one
// must be rejected up front rather than crash the sweep.
TEST(Fig2, RejectsNonPositiveUpdatePeriod) {
  for (const sim::Tick period : {sim::Tick(0), sim::Tick(-5)}) {
    auto config = small_config();
    config.request_rates = {10};
    config.update_period = period;
    EXPECT_THROW(run_fig2(config), std::invalid_argument);
  }
}

// A negative measure window would turn the analytic async bound negative
// and the on-demand volume into zero, so both entry points reject a
// negative tick count up front.
TEST(Fig2, RejectsNegativeTickCounts) {
  auto warmup = small_config();
  warmup.request_rates = {10};
  warmup.warmup_ticks = -1;
  auto measure = small_config();
  measure.request_rates = {10};
  measure.measure_ticks = -50;
  for (const Fig2Config& config : {warmup, measure}) {
    EXPECT_THROW(run_fig2(config), std::invalid_argument);
    EXPECT_THROW(run_fig2_once(config, AccessPattern::kZipf, 10),
                 std::invalid_argument);
  }
}

TEST(Fig2, PatternNames) {
  EXPECT_STREQ(access_pattern_name(AccessPattern::kUniform), "uniform");
  EXPECT_STREQ(access_pattern_name(AccessPattern::kRankLinear), "rank-linear");
  EXPECT_STREQ(access_pattern_name(AccessPattern::kZipf), "zipf");
}

}  // namespace
}  // namespace mobi::exp
