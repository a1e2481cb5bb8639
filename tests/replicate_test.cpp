#include "exp/replicate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace mobi::exp {
namespace {

TEST(SeedLadder, ConsecutiveSeeds) {
  const auto seeds = seed_ladder(100, 4);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102, 103}));
  EXPECT_TRUE(seed_ladder(5, 0).empty());
}

TEST(Replicate, ConstantMetricHasZeroSpread) {
  const auto result = replicate([](std::uint64_t) { return 7.5; },
                                seed_ladder(1, 5));
  EXPECT_EQ(result.runs, 5u);
  EXPECT_DOUBLE_EQ(result.mean, 7.5);
  EXPECT_DOUBLE_EQ(result.stddev, 0.0);
  EXPECT_DOUBLE_EQ(result.ci95_halfwidth, 0.0);
  EXPECT_DOUBLE_EQ(result.min, 7.5);
  EXPECT_DOUBLE_EQ(result.max, 7.5);
}

TEST(Replicate, KnownValues) {
  const auto result = replicate(
      [](std::uint64_t seed) { return double(seed); }, {2, 4, 6});
  EXPECT_DOUBLE_EQ(result.mean, 4.0);
  EXPECT_DOUBLE_EQ(result.min, 2.0);
  EXPECT_DOUBLE_EQ(result.max, 6.0);
  EXPECT_NEAR(result.stddev, 2.0, 1e-12);
  EXPECT_NEAR(result.ci95_halfwidth, 1.96 * 2.0 / std::sqrt(3.0), 1e-12);
}

TEST(Replicate, SingleRunHasNoInterval) {
  const auto result = replicate([](std::uint64_t) { return 1.0; }, {42});
  EXPECT_EQ(result.runs, 1u);
  EXPECT_DOUBLE_EQ(result.ci95_halfwidth, 0.0);
}

TEST(Replicate, NullMetricThrows) {
  EXPECT_THROW(replicate(nullptr, {1}), std::invalid_argument);
  util::ThreadPool pool(2);
  EXPECT_THROW(replicate(nullptr, {1}, &pool), std::invalid_argument);
}

TEST(Replicate, ParallelMatchesSerial) {
  const auto metric = [](std::uint64_t seed) {
    util::Rng rng(seed);
    double total = 0.0;
    for (int i = 0; i < 100; ++i) total += rng.uniform();
    return total;
  };
  const auto seeds = seed_ladder(7, 8);
  const auto serial = replicate(metric, seeds);
  util::ThreadPool pool(3);
  const auto parallel = replicate(metric, seeds, &pool);
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_NEAR(parallel.mean, serial.mean, 1e-12);
  EXPECT_NEAR(parallel.stddev, serial.stddev, 1e-12);
}

TEST(Replicate, CiShrinksWithMoreRuns) {
  const auto metric = [](std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.uniform();
  };
  const auto few = replicate(metric, seed_ladder(1, 8));
  const auto many = replicate(metric, seed_ladder(1, 64));
  // More runs: tighter interval (stddev of uniform is roughly stable).
  EXPECT_LT(many.ci95_halfwidth, few.ci95_halfwidth);
}

}  // namespace
}  // namespace mobi::exp
