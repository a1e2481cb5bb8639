#include "exp/fault_sweep.hpp"

#include <stdexcept>

namespace mobi::exp {
namespace {

// Secondary-category scales of the headline rate.
constexpr double kSlowdownScale = 0.5;
constexpr double kDropScale = 0.5;
constexpr double kOutageScale = 0.2;

}  // namespace

sim::FaultPlan fault_plan_at(double rate) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("fault_plan_at: rate must be in [0, 1]");
  }
  sim::FaultPlan plan;
  plan.fetch_failure_rate = rate;
  plan.fetch_slowdown_rate = rate * kSlowdownScale;
  plan.downlink_drop_rate = rate * kDropScale;
  plan.server_outage_rate = rate * kOutageScale;
  return plan;
}

FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                 obs::SeriesRecorder* recorder) {
  FaultSweepResult result;
  result.points.reserve(config.fault_rates.size());
  for (std::size_t i = 0; i < config.fault_rates.size(); ++i) {
    const double rate = config.fault_rates[i];
    const bool record = recorder && i + 1 == config.fault_rates.size();
    FaultSweepPoint point;
    point.fault_rate = rate;
    PolicySimConfig sim = config.base;
    sim.faults = fault_plan_at(rate);
    sim.policy = config.on_demand_policy;
    point.on_demand =
        run_policy_sim(sim, {.recorder = record ? recorder : nullptr});
    sim.policy = config.async_policy;
    point.async_baseline = run_policy_sim(sim);
    result.points.push_back(point);
  }
  return result;
}

}  // namespace mobi::exp
