// Event-driven processor-sharing link.
//
// The base station charges a fetch batch analytically (latency + total
// units / bandwidth, BaseStation::process_batch); this class models
// contention dynamically on the event kernel: all in-flight transfers
// share the link's bandwidth equally (processor sharing — the standard
// fluid model of TCP-fair links), so a transfer's completion time depends
// on exactly which other transfers overlap it and for how long.
// bench/baseline_ps_link checks the station's batch completion against
// it; the paper's experiment harnesses keep the budget abstraction.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>

#include "object/object.hpp"
#include "sim/simulator.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace mobi::obs

namespace mobi::net {

class PsLink {
 public:
  /// `bandwidth`: units per time unit across all transfers (> 0).
  PsLink(sim::Simulator& simulator, double bandwidth);

  PsLink(const PsLink&) = delete;
  PsLink& operator=(const PsLink&) = delete;

  /// Starts a transfer of `size` units now. `on_done(start, finish)` runs
  /// when the last byte clears the link.
  void submit(object::Units size,
              std::function<void(double start, double finish)> on_done = {});

  std::size_t active() const noexcept { return transfers_.size(); }
  double bandwidth() const noexcept { return bandwidth_; }
  std::uint64_t completed() const noexcept { return completed_; }

  /// Registers submitted/completed counters, a units-moved counter and an
  /// in-flight gauge under `prefix`; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "ps_link");

 private:
  struct Transfer {
    double remaining = 0.0;
    double start = 0.0;
    std::function<void(double, double)> on_done;
  };

  /// Advances every in-flight transfer to the current time and completes
  /// the finished ones, then schedules the next completion event.
  void advance_and_reschedule();

  sim::Simulator* simulator_;
  double bandwidth_;
  std::list<Transfer> transfers_;
  double last_progress_time_ = 0.0;
  // Guards stale completion events: only the latest scheduled event acts.
  std::uint64_t schedule_generation_ = 0;
  std::uint64_t completed_ = 0;

  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* units_moved = nullptr;
    obs::Gauge* in_flight = nullptr;
  };
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments inst_;
};

}  // namespace mobi::net
