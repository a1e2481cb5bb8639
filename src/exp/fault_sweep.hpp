// Resilience sweep: average recency/score delivered to clients as the
// injected fault rate grows, the request-driven knapsack policy vs the
// asynchronous round-robin baseline.
//
// One headline `fault_rate` drives every fault category through fixed
// scales (fault_plan_at: fetch failures at the full rate; congestion
// slowdowns, downlink drops and per-server outages at fractions of it),
// so each sweep point is a progressively harsher world rather than a
// single failure mode. The soak ramp (exp/soak.hpp) uses the same mapping.
// The expected shape — the acceptance bar for the chaos suite — is
// graceful degradation: recency falls monotonically-ish with the fault
// rate but the run never stalls, and the request-driven policy, which
// retries exactly the objects clients still want, degrades more slowly
// than the request-oblivious baseline.
#pragma once

#include <string>
#include <vector>

#include "exp/policy_sim.hpp"
#include "sim/fault_plan.hpp"

namespace mobi::obs {
class SeriesRecorder;
}  // namespace mobi::obs

namespace mobi::exp {

struct FaultSweepConfig {
  /// Workload shared by every point; `faults` and `policy` are
  /// overwritten per point. Defaults to a 4-server backend with a
  /// 3-attempt retry budget so every resilience path is exercised.
  PolicySimConfig base;
  /// Headline fault rates to sweep (each point's plan is
  /// fault_plan_at(rate)).
  std::vector<double> fault_rates = {0.0, 0.05, 0.1, 0.2, 0.3};
  std::string on_demand_policy = "on-demand-knapsack";
  std::string async_policy = "async-round-robin";

  FaultSweepConfig() {
    base.server_count = 4;
    base.fetch_retry_limit = 3;
  }
};

/// The fault plan at headline rate r in [0, 1]: fetch failures at r,
/// congestion slowdowns at r/2, downlink drops at r/2 and per-server
/// outages at r/5. Throws std::invalid_argument outside [0, 1]. Shared by
/// the sweep and the soak ramp, and exposed so tests can pin the mapping.
sim::FaultPlan fault_plan_at(double rate);

struct FaultSweepPoint {
  double fault_rate = 0.0;
  PolicySimResult on_demand;
  PolicySimResult async_baseline;
};

struct FaultSweepResult {
  std::vector<FaultSweepPoint> points;
};

/// Runs the sweep. A non-null `recorder` snapshots per-tick metrics of
/// one representative run — the on-demand policy at the harshest fault
/// rate — (fault.injected.*, bs.fault.*, bs.downlink.* and friends).
/// Instrumentation is read-only, so results are bit-identical either way.
FaultSweepResult run_fault_sweep(const FaultSweepConfig& config,
                                 obs::SeriesRecorder* recorder = nullptr);

}  // namespace mobi::exp
