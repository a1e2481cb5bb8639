// Figure 3: average recency of data delivered to clients as the per-tick
// download budget grows, on-demand vs asynchronous, at low and high server
// update frequency (paper §3.2).
//
// Setup: 500 unit-size objects, uniform access, 100 requests per time
// unit; budget k = 1..100 objects per tick; cache warmed 50 ticks,
// measured 100; recency decays by x' = C/(1/x + 1) per missed update.
// On-demand downloads the k requested objects with the lowest cached
// recency; asynchronous downloads the next k objects in a fixed circular
// order. Both run against the *same* pre-generated request trace.
#pragma once

#include <cstdint>
#include <vector>

#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {
class SeriesRecorder;
}  // namespace mobi::obs

namespace mobi::util {
class ThreadPool;
}  // namespace mobi::util

namespace mobi::exp {

struct Fig3Config {
  std::size_t object_count = 500;
  std::size_t requests_per_tick = 100;
  sim::Tick warmup_ticks = 50;
  sim::Tick measure_ticks = 100;
  sim::Tick update_period = 10;  // 10 = the paper's "low", 1 = "high"
  double decay_c = 1.0;
  std::uint64_t seed = 42;
  /// Budgets (objects per tick, unit sizes) to sweep.
  std::vector<object::Units> budgets = {1,  5,  10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100};
};

struct Fig3Point {
  object::Units budget = 0;
  double on_demand_recency = 0.0;
  double async_recency = 0.0;
};

struct Fig3Result {
  Fig3Config config;
  std::vector<Fig3Point> points;
};

/// One (policy, budget) simulation; returns the mean recency of all copies
/// delivered during the measure window. `on_demand` false = round robin.
/// A non-null `recorder` snapshots per-tick metrics; observation never
/// changes the result. Throws std::invalid_argument for a negative tick
/// count.
double run_fig3_once(const Fig3Config& config, object::Units budget,
                     bool on_demand, obs::SeriesRecorder* recorder = nullptr);

/// Budget sweep. A non-null `pool` runs the budgets on it; all points
/// replay the same pre-generated trace, so the result is the same either
/// way. Throws std::invalid_argument for a negative tick count.
Fig3Result run_fig3(const Fig3Config& config,
                    util::ThreadPool* pool = nullptr);

}  // namespace mobi::exp
