// Online sim-time window aggregation over a MetricsRegistry: tumbling
// windows whose frames materialize *during* the run (counter deltas ->
// per-tick rates, histogram bucket diffs -> per-window p50/p90/p99/mean,
// gauges -> last value), so controllers and SLO monitors can react to the
// last W ticks instead of parsing a cumulative dump after the fact.
//
// Contracts, same as the rest of the obs layer:
//   - Observation is read-only: the aggregator only *reads* the registry,
//     never feeds back into simulation state.
//   - Zero steady-state allocations: begin() preallocates the open
//     window's baseline and the frame ring; on_tick()/finish() touch only
//     that storage. to_json() is post-run and may allocate freely.
//   - Pool-size independence: windows are keyed on sim ticks (the caller
//     invokes on_tick once per completed tick), so a sharded run produces
//     bit-identical frames for any pool size, exactly like SeriesRecorder.
//
// Windows are half-open in tick *count*: with window_ticks=W, window k
// covers the ticks delivered by on_tick calls [k*W, (k+1)*W). One window
// is open at a time; it closes after its W-th tick and the next one opens
// from the same registry values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {

/// Tumbling window aggregator. Construct, begin() once every
/// metric the run will touch is registered (registration order is the
/// column order via MetricsRegistry::names()), then on_tick() once per
/// completed tick and finish() at end of run.
class WindowAggregator {
 public:
  struct Config {
    sim::Tick window_ticks = 50;
    /// Closed frames retained in the ring; older frames are overwritten
    /// (counted in dropped_frames()) once the ring wraps.
    std::size_t frame_capacity = 256;
  };

  /// Closed-frame callback. `frame` is the retained index (pass to
  /// frame()/value()); fired inside on_tick()/finish() right after the
  /// frame lands in the ring, on the simulation thread. Implementations
  /// must not mutate the aggregator and should not allocate if the run
  /// is under the zero-alloc contract.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_window(const WindowAggregator& agg, std::size_t frame) = 0;
  };

  /// One closed window's metadata. start/end ticks are the labels of the
  /// first and last on_tick call the window covered (inclusive).
  struct FrameView {
    std::uint64_t index = 0;  // global window ordinal (0-based)
    sim::Tick start_tick = 0;
    sim::Tick end_tick = 0;
    sim::Tick ticks = 0;  // ticks actually covered (< window for partial)
    bool partial = false;
  };

  WindowAggregator(const MetricsRegistry& registry, const Config& config);

  void set_listener(Listener* listener) noexcept { listener_ = listener; }

  /// Snapshots the column set and the baseline, resets all frames.
  /// Call after the last metric registration and before the first
  /// on_tick; calling again restarts aggregation from fresh baselines
  /// (the counter-reset story: deltas never go negative, they restart).
  void begin();

  /// Ingest one completed tick. `now` is a label only — window geometry
  /// counts on_tick calls, so gaps in tick numbering cannot skew rates.
  void on_tick(sim::Tick now);

  /// Closes the open window as a partial frame if it covered at least
  /// one tick. on_tick after finish throws; begin() re-arms.
  void finish();

  // --- column / frame accessors (valid after begin()).
  std::size_t column_count() const noexcept { return columns_.size(); }
  const std::string& column_name(std::size_t column) const {
    return columns_.at(column);
  }
  /// Index of a column by full name, or npos when absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t column_index(const std::string& name) const noexcept;

  /// Retained closed frames (<= frame_capacity).
  std::size_t frames() const noexcept;
  std::uint64_t windows_closed() const noexcept { return windows_closed_; }
  std::uint64_t dropped_frames() const noexcept { return dropped_frames_; }
  FrameView frame(std::size_t frame) const;
  double value(std::size_t frame, std::size_t column) const;
  double value(std::size_t frame, const std::string& column) const;

  sim::Tick window_ticks() const noexcept { return window_ticks_; }

  /// `mobicache.windows.v1` document: {"schema","window_ticks",
  /// "stride_ticks" (always window_ticks: windows tumble),
  /// "windows_closed","dropped_frames","windows":[ordinal per retained
  /// frame],"series":{column:[value per frame]}}.
  std::string to_json() const;

 private:
  struct HistShape {
    const FixedHistogram* hist = nullptr;
    double lo = 0.0;
    double hi = 0.0;
    double width = 0.0;
    std::size_t buckets = 0;
    std::size_t offset = 0;  // into a hist baseline/delta block
  };

  void build_columns(const MetricsRegistry& registry);
  void open_window();
  void close_window(sim::Tick end_tick, bool partial);
  double* frame_values(std::size_t ring) noexcept {
    return values_.data() + ring * columns_.size();
  }
  const double* frame_values(std::size_t ring) const noexcept {
    return values_.data() + ring * columns_.size();
  }
  std::size_t ring_of(std::size_t frame) const;

  // Per-histogram delta block layout: buckets, then underflow, overflow,
  // NaN — kHistExtra trailing slots.
  static constexpr std::size_t kHistExtra = 3;

  sim::Tick window_ticks_;
  std::size_t frame_capacity_;
  const MetricsRegistry& registry_;
  Listener* listener_ = nullptr;

  bool begun_ = false;
  bool finished_ = false;
  std::int64_t ticks_seen_ = 0;
  sim::Tick last_tick_ = 0;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t dropped_frames_ = 0;

  // Column names: window.start_tick/end_tick/ticks, then per metric in
  // registry order .rate (counter: delta / ticks), .last (gauge value at
  // close) or .p50/.p90/.p99/.mean/.count (histogram bucket deltas;
  // mean excludes NaN, count includes it).
  std::vector<std::string> columns_;
  std::vector<const Counter*> counters_;
  std::vector<std::size_t> counter_cols_;  // column of each counter's rate
  std::vector<const Gauge*> gauges_;
  std::vector<std::size_t> gauge_cols_;
  std::vector<HistShape> hists_;
  std::vector<std::size_t> hist_cols_;  // first of each hist's 5 columns
  std::size_t hist_slots_total_ = 0;

  // The open window: its first on_tick-call count, that call's tick
  // label, and the registry's values when it opened.
  std::int64_t open_start_n_ = 0;
  sim::Tick open_start_tick_ = 0;
  std::vector<std::uint64_t> counter_base_;  // per counter
  std::vector<std::uint64_t> hist_base_;     // hist_slots_total_
  std::vector<double> hist_sum_base_;        // per histogram
  std::vector<std::uint64_t> hist_delta_;    // hist_slots_total_, scratch

  // Closed-frame ring, ring-slot-major.
  std::vector<FrameView> meta_;
  std::vector<double> values_;  // capacity x columns
};

}  // namespace mobi::obs
