// SeriesRecorder: per-tick snapshots of every scalar metric (counter or
// gauge) in a registry, accumulated into aligned time series. Counters are
// recorded cumulatively — downstream tooling diffs adjacent samples for
// per-tick rates. Histograms are not sampled per tick; their final state
// is exported once alongside the series.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/tick.hpp"
#include "util/table.hpp"

namespace mobi::obs {

class SeriesRecorder {
 public:
  using Series = std::vector<double>;

  /// The registry must outlive the recorder.
  explicit SeriesRecorder(MetricsRegistry& registry) : registry_(&registry) {}

  MetricsRegistry& registry() noexcept { return *registry_; }
  const MetricsRegistry& registry() const noexcept { return *registry_; }

  /// Capacity hint: total samples this run will take. Reserves the tick
  /// series and every known value series now, and sizes series that join
  /// later, so steady-state sampling never reallocates.
  void reserve(std::size_t samples);

  /// Snapshots every counter and gauge currently registered, through
  /// pointers bound once and rebound only when the registry has grown
  /// since (it never unregisters). A metric registered after the first
  /// sample joins with zeros backfilled for the ticks it missed, so every
  /// series stays aligned with ticks().
  void sample(sim::Tick tick);

  std::size_t samples() const noexcept { return ticks_.size(); }
  const std::vector<sim::Tick>& ticks() const noexcept { return ticks_; }
  /// Throws std::out_of_range for a name never sampled.
  const Series& series(const std::string& name) const;
  std::vector<std::string> series_names() const;

  /// {"schema":"mobicache.metrics.v1","ticks":[...],
  ///  "series":{name:[...]},"histograms":{name:{...final state...}}}
  std::string to_json() const;
  /// One row per tick, one column per series (plus the tick column).
  util::Table to_table() const;

 private:
  // One scalar metric's live value and its series; exactly one of
  // counter and gauge is set.
  struct Binding {
    const Counter* counter;
    const Gauge* gauge;
    Series* values;
  };

  // Rebuilds bindings_ from the registry's scalars, in name order.
  void bind();

  MetricsRegistry* registry_;
  std::size_t reserve_hint_ = 0;
  std::vector<sim::Tick> ticks_;
  std::map<std::string, Series> series_;
  std::vector<Binding> bindings_;
  std::size_t bound_size_ = 0;  // registry size() at the last bind()
};

}  // namespace mobi::obs
