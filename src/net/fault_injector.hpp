// FaultInjector: the runtime instantiation of a sim::FaultPlan.
//
// One injector is shared by every component of a station's pipeline —
// BaseStation (fetch failures and slowdowns), WirelessDownlink (mid-flight
// drops), ServerPool (outage windows) and the cell driver (client
// handoffs) — each consulting the draw for its own fault
// category. Categories draw from independent SplitMix64-derived streams,
// so the schedule of one fault class is a pure function of (plan seed,
// class, draw index) and never shifts when another class is toggled.
//
// Contract with the zero-allocation hot path: every draw on a category
// whose rate is zero returns "no fault" without touching its RNG, so an
// attached-but-idle injector (empty plan) is free, allocation-less, and
// leaves every stream untouched — runs are bit-identical to having no
// injector at all (tests/fault_plan_test.cpp, alloc_regression_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/tick.hpp"
#include "util/rng.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
}  // namespace mobi::obs

namespace mobi::net {

/// Always-on plain counters of injected events (available without a
/// metrics registry; mirrored into `fault.injected.*` obs counters when
/// set_metrics is attached).
struct FaultCounters {
  std::uint64_t fetch_failures = 0;
  std::uint64_t fetch_slowdowns = 0;
  std::uint64_t downlink_drops = 0;
  std::uint64_t server_outages = 0;  // outage windows opened
  std::uint64_t handoffs = 0;
};

class FaultInjector {
 public:
  /// Validates and captures the plan. `server_count` sizes the outage
  /// window table; 0 disables server outages regardless of the rate.
  explicit FaultInjector(const sim::FaultPlan& plan,
                         std::size_t server_count = 0);

  const sim::FaultPlan& plan() const noexcept { return plan_; }
  /// All rates zero: components may treat the injector as absent.
  bool idle() const noexcept { return plan_.empty(); }
  std::size_t server_count() const noexcept { return outage_until_.size(); }

  /// Advances per-tick fault state (server outage windows open here).
  /// Idempotent within a tick, so the cell driver and the station may
  /// both call it for the same `now` without double-drawing.
  void begin_tick(sim::Tick now);

  /// One fetch-failure draw; true = the fetch faults.
  bool draw_fetch_failure();

  /// One per-batch congestion draw; returns the latency multiplier to
  /// apply to the whole batch (1.0 = healthy).
  double draw_fetch_slowdown();

  /// One per-chunk downlink draw; true = the transfer drops mid-flight.
  bool draw_downlink_drop();

  /// One per-client handoff draw; true = the client leaves the cell for
  /// plan().handoff_ticks ticks.
  bool draw_handoff();

  /// Whether `server` is inside an outage window at the last begun tick.
  bool server_down(std::size_t server) const noexcept;

  const FaultCounters& counters() const noexcept { return counters_; }

  /// Registers `<prefix>.injected.{fetch_failures,fetch_slowdowns,
  /// downlink_drops,server_outages,handoffs}` counters and keeps them in
  /// step with counters(); nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "fault");

 private:
  struct Instruments {
    obs::Counter* fetch_failures = nullptr;
    obs::Counter* fetch_slowdowns = nullptr;
    obs::Counter* downlink_drops = nullptr;
    obs::Counter* server_outages = nullptr;
    obs::Counter* handoffs = nullptr;
  };

  sim::FaultPlan plan_;
  // Independent per-category streams (see header comment).
  util::Rng fetch_rng_;
  util::Rng slowdown_rng_;
  util::Rng downlink_rng_;
  util::Rng server_rng_;
  util::Rng handoff_rng_;
  std::vector<sim::Tick> outage_until_;
  sim::Tick last_tick_ = 0;
  bool ticked_ = false;
  FaultCounters counters_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments inst_;
};

}  // namespace mobi::net
