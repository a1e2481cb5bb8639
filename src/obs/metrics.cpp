#include "obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace mobi::obs {

FixedHistogram::FixedHistogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi) {
  if (!(lo < hi)) {
    throw std::invalid_argument("FixedHistogram: lo must be < hi");
  }
  if (buckets == 0) {
    throw std::invalid_argument("FixedHistogram: need at least one bucket");
  }
  counts_.assign(buckets, 0);
  width_ = (hi - lo) / double(buckets);
}

void FixedHistogram::merge(const FixedHistogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("FixedHistogram: merge shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  nan_ += other.nan_;
  total_ += other.total_;
  sum_ += other.sum_;
}

double FixedHistogram::bucket_lo(std::size_t index) const {
  if (index >= counts_.size()) throw std::out_of_range("FixedHistogram: bad bucket");
  return lo_ + width_ * double(index);
}

double FixedHistogram::bucket_hi(std::size_t index) const {
  if (index >= counts_.size()) throw std::out_of_range("FixedHistogram: bad bucket");
  return index + 1 == counts_.size() ? hi_ : lo_ + width_ * double(index + 1);
}

const char* metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void MetricsRegistry::reserve_name(const std::string& name, MetricKind kind) {
  if (name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty metric name");
  }
  const auto [it, inserted] = kinds_.emplace(name, kind);
  if (!inserted) {
    throw std::invalid_argument("MetricsRegistry: duplicate metric '" + name +
                                "' (already a " +
                                metric_kind_name(it->second) + ")");
  }
}

Counter& MetricsRegistry::register_counter(const std::string& name) {
  reserve_name(name, MetricKind::kCounter);
  auto& slot = counters_[name];
  slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::register_gauge(const std::string& name) {
  reserve_name(name, MetricKind::kGauge);
  auto& slot = gauges_[name];
  slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::register_histogram(const std::string& name,
                                                    double lo, double hi,
                                                    std::size_t buckets) {
  // Validate the histogram before claiming the name so a bad range does
  // not leave a phantom registration behind.
  auto histogram = std::make_unique<FixedHistogram>(lo, hi, buckets);
  reserve_name(name, MetricKind::kHistogram);
  auto& slot = histograms_[name];
  slot = std::move(histogram);
  return *slot;
}

bool MetricsRegistry::contains(const std::string& name) const {
  return kinds_.count(name) != 0;
}

MetricKind MetricsRegistry::kind(const std::string& name) const {
  const auto it = kinds_.find(name);
  if (it == kinds_.end()) {
    throw std::out_of_range("MetricsRegistry: unknown metric '" + name + "'");
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const FixedHistogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(kinds_.size());
  for (const auto& [name, kind] : kinds_) result.push_back(name);
  return result;
}

std::vector<std::string> MetricsRegistry::scalar_names() const {
  std::vector<std::string> result;
  result.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, kind] : kinds_) {
    if (kind != MetricKind::kHistogram) result.push_back(name);
  }
  return result;
}

double MetricsRegistry::scalar_value(const std::string& name) const {
  switch (kind(name)) {
    case MetricKind::kCounter:
      return double(find_counter(name)->value());
    case MetricKind::kGauge:
      return find_gauge(name)->value();
    case MetricKind::kHistogram:
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' is a histogram, not a scalar");
  }
  throw std::logic_error("MetricsRegistry: bad kind");
}

namespace json {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

char* format_number(char* first, double value) noexcept {
  char* const last = first + kMaxNumberChars;
  if (std::isnan(value) || std::isinf(value)) {
    std::memcpy(first, "null", 4);
    return first + 4;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return std::to_chars(first, last, (long long)(value)).ptr;
  }
  // std::to_chars emits the shortest decimal text that parses back to the
  // identical double, and unlike snprintf ignores the C locale — so the
  // JSON exports are byte-stable across platforms and LC_*.
  return std::to_chars(first, last, value).ptr;
}

std::string number(double value) {
  char buf[kMaxNumberChars];
  return std::string(buf, format_number(buf, value));
}

}  // namespace json

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, metric_kind] : kinds_) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::escape(name) << "\":";
    switch (metric_kind) {
      case MetricKind::kCounter:
        out << find_counter(name)->value();
        break;
      case MetricKind::kGauge:
        out << json::number(find_gauge(name)->value());
        break;
      case MetricKind::kHistogram: {
        const FixedHistogram& h = *find_histogram(name);
        out << "{\"lo\":" << json::number(h.lo())
            << ",\"hi\":" << json::number(h.hi()) << ",\"buckets\":[";
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          if (i) out << ',';
          out << h.bucket(i);
        }
        out << "],\"underflow\":" << h.underflow()
            << ",\"overflow\":" << h.overflow() << ",\"nan\":" << h.nan_count()
            << ",\"total\":" << h.total()
            << ",\"sum\":" << json::number(h.sum()) << '}';
        break;
      }
    }
  }
  out << '}';
  return out.str();
}

util::Table MetricsRegistry::to_table() const {
  util::Table table({"metric", "kind", "value"}, 6);
  for (const auto& [name, metric_kind] : kinds_) {
    switch (metric_kind) {
      case MetricKind::kCounter:
        table.add_row({name, std::string("counter"),
                       (long long)(find_counter(name)->value())});
        break;
      case MetricKind::kGauge:
        table.add_row({name, std::string("gauge"), find_gauge(name)->value()});
        break;
      case MetricKind::kHistogram: {
        const FixedHistogram& h = *find_histogram(name);
        table.add_row({name, std::string("histogram(n=") +
                                 std::to_string(h.total()) + ")",
                       h.mean()});
        break;
      }
    }
  }
  return table;
}

}  // namespace mobi::obs
