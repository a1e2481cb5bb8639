#include "exp/fig2.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "obs/recorder.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace mobi::exp {

const char* access_pattern_name(AccessPattern pattern) noexcept {
  switch (pattern) {
    case AccessPattern::kUniform: return "uniform";
    case AccessPattern::kRankLinear: return "rank-linear";
    case AccessPattern::kZipf: return "zipf";
  }
  return "?";
}

std::shared_ptr<const workload::AccessDistribution> make_access(
    AccessPattern pattern, std::size_t n, double zipf_alpha) {
  switch (pattern) {
    case AccessPattern::kUniform: return workload::make_uniform_access(n);
    case AccessPattern::kRankLinear: return workload::make_rank_linear_access(n);
    case AccessPattern::kZipf: return workload::make_zipf_access(n, zipf_alpha);
  }
  throw std::invalid_argument("make_access: bad pattern");
}

namespace {

void require_tick_counts(const Fig2Config& config, const char* who) {
  if (config.warmup_ticks < 0 || config.measure_ticks < 0) {
    throw std::invalid_argument(
        std::string(who) + ": warmup_ticks and measure_ticks must be >= 0");
  }
}

}  // namespace

object::Units run_fig2_once(const Fig2Config& config, AccessPattern pattern,
                            std::size_t request_rate,
                            obs::SeriesRecorder* recorder) {
  require_tick_counts(config, "run_fig2_once");
  const object::Catalog catalog =
      object::make_uniform_catalog(config.object_count, config.object_size);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig bs_config;
  bs_config.download_budget = -1;  // Fig 2 imposes no download limit
  bs_config.downlink_capacity =
      object::Units(std::max<std::size_t>(1, request_rate)) *
      config.object_size;
  core::BaseStation station(
      catalog, servers, cache::make_harmonic_decay(),
      std::make_unique<core::ReciprocalScorer>(),
      std::make_unique<core::OnDemandStaleOnlyPolicy>(), bs_config);
  if (recorder) {
    station.set_metrics(&recorder->registry());
    servers.set_metrics(&recorder->registry());
  }

  auto updates = workload::make_periodic_synchronized(config.object_count,
                                                      config.update_period);
  util::Rng rng(config.seed ^ (std::uint64_t(request_rate) << 20) ^
                std::uint64_t(pattern));
  workload::RequestGenerator generator(
      make_access(pattern, config.object_count, config.zipf_alpha),
      workload::ConstantTarget{1.0}, request_rate, rng.split());

  object::Units measured = 0;
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    station.apply_updates(*updates, t);
    const auto result = station.process_batch(generator.next_batch(), t);
    if (recorder) recorder->sample(t);
    if (t >= config.warmup_ticks) measured += result.units_downloaded;
  }
  return measured;
}

Fig2Result run_fig2(const Fig2Config& config, util::ThreadPool* pool) {
  if (config.update_period <= 0) {
    throw std::invalid_argument("run_fig2: update_period must be positive");
  }
  require_tick_counts(config, "run_fig2");
  Fig2Result result;
  result.config = config;
  result.async_downloaded = object::Units(config.object_count) *
                            config.object_size *
                            (config.measure_ticks / config.update_period);
  const AccessPattern patterns[] = {AccessPattern::kUniform,
                                    AccessPattern::kRankLinear,
                                    AccessPattern::kZipf};
  const std::size_t rates = config.request_rates.size();
  for (AccessPattern pattern : patterns) {
    Fig2Curve curve;
    curve.pattern = pattern;
    curve.points.resize(rates);
    result.curves.push_back(std::move(curve));
  }
  util::parallel_for(pool, 0, 3 * rates, [&](std::size_t index) {
    const std::size_t p = index / rates;
    const std::size_t r = index % rates;
    const std::size_t rate = config.request_rates[r];
    result.curves[p].points[r] =
        Fig2Point{rate, run_fig2_once(config, patterns[p], rate)};
  });
  return result;
}

}  // namespace mobi::exp
