// Discrete-event simulation kernel.
//
// The paper's experiments use a synchronous tick model (requests arrive per
// time unit, updates fire every k time units). This kernel supports
// arbitrary event times; ties are broken by insertion order so runs are
// fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <vector>

namespace mobi::sim {

/// Simulation time. The experiment harnesses use whole numbers ("time
/// units" in the paper) but the kernel accepts any non-decreasing double.
using SimTime = double;

/// An event: a time plus an action. Events at equal times execute in the
/// order they were scheduled (FIFO tie-break via sequence numbers).
class Simulator {
 public:
  using Action = std::function<void()>;

  SimTime now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return queue_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

  /// Schedules `action` at absolute time `when`. Scheduling in the past
  /// (before now()) is a logic error and throws.
  void schedule_at(SimTime when, Action action);

  /// Schedules `action` `delay` time units from now (delay >= 0).
  void schedule_in(SimTime delay, Action action);

  /// Schedules `action` every `period` time units, starting at
  /// `first` (absolute). The action keeps recurring until the simulator is
  /// destroyed or the run horizon passes; use run_until to bound the run.
  void schedule_every(SimTime first, SimTime period, Action action);

  /// Executes events until the queue is empty. Returns the number executed.
  std::uint64_t run();

  /// Executes events with time <= horizon; leaves later events pending and
  /// advances now() to min(horizon, last executed time... ) — precisely:
  /// now() ends at the time of the last executed event, or horizon if no
  /// event beyond it was touched. Returns the number executed.
  std::uint64_t run_until(SimTime horizon);

  /// Executes exactly one event if any is pending; returns whether one ran.
  bool step();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    // shared_ptr so Entry is copyable inside priority_queue.
    std::shared_ptr<Action> action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  void execute(Entry entry);

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  // Recurring actions registered by schedule_every: owned here so their
  // self-rescheduling closures can capture a raw pointer (a shared_ptr
  // self-capture would be a leak-inducing reference cycle).
  std::vector<std::shared_ptr<Action>> recurring_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace mobi::sim
