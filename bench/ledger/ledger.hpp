// Perf ledger: the pieces shared by the workloads (station.cpp,
// fleet.cpp), the per-layer probes (probes.cpp) and the driver
// (main.cpp). Every layer is timed from outside, through its public entry
// points, so the same ledger builds unchanged against any commit.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "util/thread_pool.hpp"

namespace mobi::coop {
struct CoopConfig;
}  // namespace mobi::coop

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);

// --- allocation counter (alloc_counter.cpp) ---------------------------
// Counts every global operator new while armed. Only --trace arms it:
// disarmed, an allocation pays one relaxed load and nothing else.
void arm_allocation_counter(bool armed) noexcept;
std::uint64_t allocations() noexcept;

// --- correctness ------------------------------------------------------

/// FNV-1a over 64-bit words; doubles enter as their bit patterns, so two
/// runs digest equal only when every counter and sum is bit-identical.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Collects failed checks. A failure fails the run: the repetition's
/// requests count as failed and the process exits 1.
class Gate {
 public:
  bool check(bool ok, const std::string& what);
  bool ok() const noexcept { return failures_.empty(); }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// --- workloads ----------------------------------------------------------

/// One repetition of a workload over its fixed simulated horizon.
struct Rep {
  double seconds = 0.0;        // host wall time of the timed part
  std::uint64_t requests = 0;  // simulated requests in the timed part
  std::uint64_t ticks = 0;     // simulated ticks in the timed part
  double avg_score = 0.0;
  double units_per_request = 0.0;  // origin units per request
  std::uint64_t lost = 0;          // payloads lost to moving clients
  std::uint64_t allocations = 0;   // counted only while armed
  std::uint64_t digest = 0;
  // Workload-specific counters the probes read.
  std::vector<std::pair<std::string, double>> counters;
  // Host time of each timed tick (traced station runs only).
  std::vector<double> tick_us;

  double requests_per_s() const { return double(requests) / seconds; }
  double counter(const std::string& name) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// True for the fleets, which run on the thread pool.
  virtual bool pooled() const = 0;
  /// The horizon multiplier: 1 is the full workload, --smoke uses 0.01,
  /// the per-layer probes a tenth.
  virtual void set_scale(double scale) = 0;
  /// Builds the workload's inputs and brings it to the point where a
  /// timed repetition starts; returns host seconds. With `armed_allocs`
  /// set, stores the allocations it made.
  virtual double bring_up(mobi::util::ThreadPool* pool,
                          std::uint64_t* armed_allocs = nullptr) = 0;
  /// One repetition. `profiler` (may be null) receives the ledger's
  /// spans around each layer call. Conservation checks go to `gate`.
  virtual Rep run(mobi::util::ThreadPool* pool,
                  mobi::obs::PhaseProfiler* profiler, Gate& gate) = 0;
  /// The digest every repetition must reproduce, from an untimed
  /// reference run (serial for fleets, unobserved for stations).
  virtual std::uint64_t reference_digest(Gate& gate) = 0;
};

/// The station with observers attached up to `rung`: 0 is the bare
/// `station`, then recorder, tracer, sink, windows, profiler and SLO; the
/// top rung is `station_observed`.
std::unique_ptr<Workload> make_station(std::uint64_t seed, int rung);
constexpr int kObserverRungs = 6;
const char* rung_name(int rung);

std::unique_ptr<Workload> make_fleet(const std::string& name,
                                     std::uint64_t seed);
/// One cluster of fleet_coop, for driving a CoopCluster directly.
mobi::coop::CoopConfig fleet_coop_cluster(std::uint64_t seed, double scale);

/// Any of the five workloads by name; throws std::invalid_argument
/// otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// --- per-layer metrics -------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// Share of the profile's root wall time spent in `phase` itself.
double self_share(const mobi::obs::PhaseProfiler& profiler,
                  const std::string& phase);

struct ProbeContext {
  std::uint64_t seed = 42;
  std::string workload;  // the run's workload
  double scale = 0.1;    // probe horizon multiplier
  mobi::util::ThreadPool* pool = nullptr;
  Gate* gate = nullptr;
};

/// Each probe appends its layer group's metrics (probes.cpp).
void probe_station_tick(const ProbeContext& ctx, Metrics& out);
void probe_knapsack(const ProbeContext& ctx, Metrics& out);
void probe_observer_ladder(const ProbeContext& ctx, Metrics& out);
void probe_pool(const ProbeContext& ctx, Metrics& out);
void probe_cell_loop(const ProbeContext& ctx, Metrics& out);
void probe_coop(const ProbeContext& ctx, Metrics& out);
void probe_mobility(const ProbeContext& ctx, Metrics& out);

/// The run's own workload, traced against untraced at probe scale:
/// bench.alloc_per_tick, bench.trace_overhead_pct, the collapsed-stack
/// flame graph, and the simulated requests it ran.
struct TracedWorkload {
  std::string flame;
  std::uint64_t requests = 0;
};
TracedWorkload probe_workload(const ProbeContext& ctx, Metrics& out);

}  // namespace ledger
