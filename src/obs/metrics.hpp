// Metrics registry: named counters, gauges, and fixed-bucket histograms
// that instrumented components (BaseStation, Cache, links, servers) update
// on their hot paths. Components hold raw pointers into a registry that
// default to null, so the disabled path costs one predictable branch — no
// virtual call, no allocation, no lock (the simulator is single-threaded
// per station; parallel sweeps give each replica its own registry).
//
// Naming convention: dotted lowercase paths, `<component>.<metric>`,
// nested via the prefix each component is registered under — e.g.
// `bs.fetches`, `bs.cache.hits`, `bs.downlink.queue_depth`. See
// docs/observability.md for the full schema.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace mobi::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level; deltas may be negative.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Equal-width buckets over [lo, hi); samples outside the range land in
/// dedicated underflow/overflow buckets rather than being clamped, so the
/// tails stay visible (util::Histogram clamps; this one must not, because
/// an unexpected tail is exactly what observability is for).
///
/// NaN contract: a NaN sample lands in a dedicated slot (`nan_count`) and
/// counts toward `total`, but touches no bucket and is excluded from
/// `sum`/`mean` — it can neither corrupt a bucket nor poison the running
/// sum, and the slot keeps the anomaly visible in every export.
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::size_t buckets);

  /// Inline: the tracer observes a histogram for every request it sees.
  void observe(double x) noexcept {
    ++total_;
    if (std::isnan(x)) {
      // Dedicated slot: a NaN must neither pick a bucket (the cast would
      // be UB-adjacent garbage) nor poison the running sum.
      ++nan_;
      return;
    }
    sum_ += x;
    if (x < lo_) {
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    auto index = std::size_t((x - lo_) / width_);
    // Floating-point rounding at the upper edge can land exactly on size().
    if (index >= counts_.size()) index = counts_.size() - 1;
    ++counts_[index];
  }

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t index) const { return counts_.at(index); }
  double bucket_lo(std::size_t index) const;
  double bucket_hi(std::size_t index) const;
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  /// NaN samples observed (the dedicated slot; see class comment).
  std::uint64_t nan_count() const noexcept { return nan_; }
  /// Total samples including underflow/overflow/NaN.
  std::uint64_t total() const noexcept { return total_; }
  /// Sum over the non-NaN samples.
  double sum() const noexcept { return sum_; }
  /// Mean over the non-NaN samples (0 when there are none).
  double mean() const noexcept {
    const std::uint64_t finite = total_ - nan_;
    return finite ? sum_ / double(finite) : 0.0;
  }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }

  /// Adds another histogram's counts and sum into this one. Both must
  /// share lo/hi/bucket_count exactly (throws std::invalid_argument
  /// otherwise) — used to fold per-shard sim-time histograms into one
  /// fleet-wide distribution after a multi-cell join.
  void merge(const FixedHistogram& other);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t nan_ = 0;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* metric_kind_name(MetricKind kind) noexcept;

/// Owns every metric registered under it. Registration is strict: a name
/// may be registered exactly once, whatever its kind — duplicates throw.
/// Returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& register_counter(const std::string& name);
  Gauge& register_gauge(const std::string& name);
  FixedHistogram& register_histogram(const std::string& name, double lo,
                                     double hi, std::size_t buckets);

  bool contains(const std::string& name) const;
  std::size_t size() const noexcept { return kinds_.size(); }
  /// Kind of a registered metric; throws std::out_of_range when unknown.
  MetricKind kind(const std::string& name) const;

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const FixedHistogram* find_histogram(const std::string& name) const;

  /// All metric names, sorted — the deterministic export order.
  std::vector<std::string> names() const;
  /// Counter and gauge names, sorted (the scalar metrics a SeriesRecorder
  /// binds its series to).
  std::vector<std::string> scalar_names() const;
  /// Current value of a counter (as double) or gauge; throws for
  /// histograms and unknown names.
  double scalar_value(const std::string& name) const;

  /// Point-in-time snapshot of every metric as a JSON object. Counters
  /// and gauges map to numbers; histograms to
  /// {"lo","hi","buckets","underflow","overflow","nan","total","sum"}.
  std::string to_json() const;
  /// name / kind / value summary (histograms show total and mean).
  util::Table to_table() const;

 private:
  void reserve_name(const std::string& name, MetricKind kind);

  std::map<std::string, MetricKind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_;
};

namespace json {
/// Escapes a string for embedding in JSON (quotes not included).
std::string escape(const std::string& text);
/// Longest text format_number writes: `-2.2250738585072014e-308`.
inline constexpr std::size_t kMaxNumberChars = 24;
/// Writes a double so it round-trips exactly (integral values print
/// without a fractional part; NaN/inf clamp to null per JSON) into
/// `first`, which must have room for kMaxNumberChars chars; returns the
/// end of the text.
char* format_number(char* first, double value) noexcept;
/// format_number as a string.
std::string number(double value);
}  // namespace json

}  // namespace mobi::obs
