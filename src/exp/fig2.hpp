// Figure 2: amount of data downloaded to provide the most recent data to
// all clients, asynchronous vs on-demand, as the request rate and the skew
// in requests vary (paper §3.1).
//
// Setup: 500 objects of uniform size, all updated simultaneously every 5
// time units; cache warmed for 100 time units, then measured for 500.
// On-demand downloads an object only when it is requested and its cached
// copy is stale. The asynchronous bound is analytic: every object is
// re-downloaded on every update, independent of requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {
class SeriesRecorder;
}  // namespace mobi::obs

namespace mobi::workload {
class AccessDistribution;
}  // namespace mobi::workload

namespace mobi::util {
class ThreadPool;
}  // namespace mobi::util

namespace mobi::exp {

enum class AccessPattern { kUniform, kRankLinear, kZipf };

const char* access_pattern_name(AccessPattern pattern) noexcept;

/// The request distribution `pattern` names over `n` objects.
std::shared_ptr<const workload::AccessDistribution> make_access(
    AccessPattern pattern, std::size_t n, double zipf_alpha);

struct Fig2Config {
  std::size_t object_count = 500;
  object::Units object_size = 1;
  sim::Tick update_period = 5;
  sim::Tick warmup_ticks = 100;
  sim::Tick measure_ticks = 500;
  double zipf_alpha = 1.0;
  std::uint64_t seed = 42;
  /// Request rates (requests per time unit) to sweep.
  std::vector<std::size_t> request_rates = {0,  25,  50,  75,  100, 150, 200,
                                            250, 300, 350, 400, 450, 500};
};

struct Fig2Point {
  std::size_t request_rate = 0;
  object::Units on_demand_downloaded = 0;  // units, measure window only
};

struct Fig2Curve {
  AccessPattern pattern = AccessPattern::kUniform;
  std::vector<Fig2Point> points;
};

struct Fig2Result {
  Fig2Config config;
  /// Units the asynchronous strategy downloads in the measure window
  /// (independent of requests): objects * (measure/period) * size.
  object::Units async_downloaded = 0;
  std::vector<Fig2Curve> curves;  // one per access pattern
};

/// Runs one simulation: returns units downloaded by the on-demand
/// stale-only policy during the measure window. A non-null `recorder`
/// snapshots per-tick metrics (base station + cache + downlink +
/// servers); observation never changes the result. Throws
/// std::invalid_argument for a negative tick count.
object::Units run_fig2_once(const Fig2Config& config, AccessPattern pattern,
                            std::size_t request_rate,
                            obs::SeriesRecorder* recorder = nullptr);

/// Full sweep over request rates and the three access patterns. A
/// non-null `pool` runs the (pattern, rate) simulations on it; each is
/// independent with its own seed-derived RNG, so the result is the same
/// either way. Throws std::invalid_argument unless update_period > 0 and
/// both tick counts are >= 0.
Fig2Result run_fig2(const Fig2Config& config,
                    util::ThreadPool* pool = nullptr);

}  // namespace mobi::exp
