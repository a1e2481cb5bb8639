// Unit tests for the observability layer: counter/gauge/histogram edge
// cases, strict duplicate-name registration, recorder alignment, and a
// full JSON export round-trip through a minimal parser.
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace mobi::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser, just enough to round-trip the exporter's output.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, double, std::string, std::shared_ptr<JsonArray>,
               std::shared_ptr<JsonObject>>
      data;

  double num() const { return std::get<double>(data); }
  const JsonArray& arr() const { return *std::get<std::shared_ptr<JsonArray>>(data); }
  const JsonObject& obj() const {
    return *std::get<std::shared_ptr<JsonObject>>(data);
  }
  const JsonValue& at(const std::string& key) const { return obj().at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("json: trailing data");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(unsigned(text_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("json: eof");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("json: expected ") + c);
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue{parse_string()};
      case 'n':
        pos_ += 4;
        return JsonValue{nullptr};
      case 't':
        pos_ += 4;
        return JsonValue{1.0};
      case 'f':
        pos_ += 5;
        return JsonValue{0.0};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    auto object = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{object};
    }
    for (;;) {
      const std::string key = (expect('"'), --pos_, parse_string());
      expect(':');
      (*object)[key] = parse_value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{object};
    }
  }

  JsonValue parse_array() {
    expect('[');
    auto array = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{array};
    }
    for (;;) {
      array->push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{array};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
            out += char(code);
            pos_ += 4;
            break;
          }
          default: out += esc;
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  JsonValue parse_number() {
    skip_ws();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(unsigned(text_[end])) || text_[end] == '-' ||
            text_[end] == '+' || text_[end] == '.' || text_[end] == 'e' ||
            text_[end] == 'E')) {
      ++end;
    }
    const double value = std::strtod(text_.substr(pos_, end - pos_).c_str(), nullptr);
    pos_ = end;
    return JsonValue{value};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Counters and gauges.

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, SupportsNegativeDeltasAndValues) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.add(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.5);
  gauge.add(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -1.5);
  gauge.set(-10.0);
  EXPECT_DOUBLE_EQ(gauge.value(), -10.0);
}

// ---------------------------------------------------------------------------
// FixedHistogram edge cases.

TEST(FixedHistogram, ZeroSamples) {
  FixedHistogram histogram(0.0, 10.0, 5);
  EXPECT_EQ(histogram.total(), 0u);
  EXPECT_EQ(histogram.underflow(), 0u);
  EXPECT_EQ(histogram.overflow(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    EXPECT_EQ(histogram.bucket(i), 0u);
  }
}

TEST(FixedHistogram, SingleBucketTakesWholeRange) {
  FixedHistogram histogram(0.0, 1.0, 1);
  histogram.observe(0.0);
  histogram.observe(0.5);
  histogram.observe(0.999);
  EXPECT_EQ(histogram.bucket(0), 3u);
  EXPECT_EQ(histogram.underflow(), 0u);
  EXPECT_EQ(histogram.overflow(), 0u);
  EXPECT_DOUBLE_EQ(histogram.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.bucket_hi(0), 1.0);
}

TEST(FixedHistogram, OverflowAndUnderflowAreNotClamped) {
  FixedHistogram histogram(0.0, 10.0, 2);
  histogram.observe(-1.0);   // underflow
  histogram.observe(10.0);   // hi is exclusive -> overflow
  histogram.observe(100.0);  // overflow
  histogram.observe(4.9);    // bucket 0
  histogram.observe(5.0);    // bucket 1
  EXPECT_EQ(histogram.underflow(), 1u);
  EXPECT_EQ(histogram.overflow(), 2u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.total(), 5u);
  // Out-of-range mass still counts toward sum/mean.
  EXPECT_DOUBLE_EQ(histogram.sum(), -1.0 + 10.0 + 100.0 + 4.9 + 5.0);
}

TEST(FixedHistogram, RejectsBadConstruction) {
  EXPECT_THROW(FixedHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(FixedHistogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(FixedHistogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(FixedHistogram, NanObservationsGetTheirOwnSlot) {
  FixedHistogram histogram(0.0, 10.0, 2);
  histogram.observe(std::numeric_limits<double>::quiet_NaN());
  histogram.observe(2.0);
  histogram.observe(std::numeric_limits<double>::quiet_NaN());
  // NaN counts toward total (it *was* observed) but lands in no bucket,
  // not under/overflow, and is excluded from sum so mean stays finite.
  EXPECT_EQ(histogram.total(), 3u);
  EXPECT_EQ(histogram.nan_count(), 2u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 0u);
  EXPECT_EQ(histogram.underflow(), 0u);
  EXPECT_EQ(histogram.overflow(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 2.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 2.0);  // finite observations only
}

TEST(FixedHistogram, AllNanMeanIsZeroNotNan) {
  FixedHistogram histogram(0.0, 1.0, 1);
  histogram.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(histogram.total(), 1u);
  EXPECT_EQ(histogram.nan_count(), 1u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

TEST(FixedHistogram, MergeAddsEveryCounterAndChecksShape) {
  FixedHistogram a(0.0, 4.0, 2), b(0.0, 4.0, 2);
  a.observe(1.0);
  a.observe(-1.0);  // underflow
  b.observe(3.0);
  b.observe(9.0);  // overflow
  b.observe(std::numeric_limits<double>::quiet_NaN());
  a.merge(b);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_EQ(a.nan_count(), 1u);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 1.0 - 1.0 + 3.0 + 9.0);
  EXPECT_EQ(b.total(), 3u);  // source untouched

  FixedHistogram narrow(0.0, 2.0, 2), coarse(0.0, 4.0, 4);
  EXPECT_THROW(a.merge(narrow), std::invalid_argument);
  EXPECT_THROW(a.merge(coarse), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistry, DuplicateNameRejectedAcrossKinds) {
  MetricsRegistry registry;
  registry.register_counter("x.count");
  EXPECT_THROW(registry.register_counter("x.count"), std::invalid_argument);
  EXPECT_THROW(registry.register_gauge("x.count"), std::invalid_argument);
  EXPECT_THROW(registry.register_histogram("x.count", 0, 1, 2),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, EmptyNameRejected) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.register_counter(""), std::invalid_argument);
}

TEST(MetricsRegistry, FailedHistogramRegistrationLeavesNoPhantom) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.register_histogram("h", 1.0, 0.0, 4),
               std::invalid_argument);
  EXPECT_FALSE(registry.contains("h"));
  EXPECT_NO_THROW(registry.register_histogram("h", 0.0, 1.0, 4));
}

TEST(MetricsRegistry, ScalarNamesExcludeHistograms) {
  MetricsRegistry registry;
  registry.register_counter("b.count");
  registry.register_gauge("a.level");
  registry.register_histogram("c.hist", 0, 1, 2);
  const auto scalars = registry.scalar_names();
  ASSERT_EQ(scalars.size(), 2u);
  EXPECT_EQ(scalars[0], "a.level");  // sorted
  EXPECT_EQ(scalars[1], "b.count");
  EXPECT_THROW(registry.scalar_value("c.hist"), std::invalid_argument);
  EXPECT_THROW(registry.scalar_value("missing"), std::out_of_range);
}

TEST(MetricsRegistry, LookupAndKinds) {
  MetricsRegistry registry;
  Counter& counter = registry.register_counter("c");
  Gauge& gauge = registry.register_gauge("g");
  counter.add(7);
  gauge.set(-1.25);
  EXPECT_EQ(registry.kind("c"), MetricKind::kCounter);
  EXPECT_EQ(registry.kind("g"), MetricKind::kGauge);
  EXPECT_THROW(registry.kind("nope"), std::out_of_range);
  EXPECT_EQ(registry.find_counter("c")->value(), 7u);
  EXPECT_DOUBLE_EQ(registry.find_gauge("g")->value(), -1.25);
  EXPECT_EQ(registry.find_counter("g"), nullptr);
  EXPECT_DOUBLE_EQ(registry.scalar_value("c"), 7.0);
  EXPECT_DOUBLE_EQ(registry.scalar_value("g"), -1.25);
}

TEST(MetricsRegistry, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.register_counter("fetches").add(123);
  registry.register_gauge("budget_left").set(-1.0);
  registry.register_gauge("score").set(0.123456789012345);
  FixedHistogram& histogram = registry.register_histogram("lat", 0.0, 10.0, 4);
  histogram.observe(2.5);
  histogram.observe(11.0);

  const JsonValue root = JsonParser(registry.to_json()).parse();
  EXPECT_DOUBLE_EQ(root.at("fetches").num(), 123.0);
  EXPECT_DOUBLE_EQ(root.at("budget_left").num(), -1.0);
  EXPECT_EQ(root.at("score").num(), 0.123456789012345);  // exact round-trip
  const JsonObject& lat = root.at("lat").obj();
  EXPECT_DOUBLE_EQ(lat.at("lo").num(), 0.0);
  EXPECT_DOUBLE_EQ(lat.at("hi").num(), 10.0);
  EXPECT_DOUBLE_EQ(lat.at("overflow").num(), 1.0);
  EXPECT_DOUBLE_EQ(lat.at("total").num(), 2.0);
  const JsonArray& buckets = lat.at("buckets").arr();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[1].num(), 1.0);  // 2.5 falls in [2.5, 5)
}

TEST(MetricsRegistry, TableHasRowPerMetric) {
  MetricsRegistry registry;
  registry.register_counter("a");
  registry.register_gauge("b");
  registry.register_histogram("c", 0, 1, 2);
  const util::Table table = registry.to_table();
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.columns(), 3u);
}

// ---------------------------------------------------------------------------
// SeriesRecorder.

// Series storage may be arena-backed (allocator differs from the plain
// std::vector<double> literals below); compare by value.
std::vector<double> as_vec(const SeriesRecorder::Series& series) {
  return std::vector<double>(series.begin(), series.end());
}

TEST(SeriesRecorder, AlignsSeriesWithTicks) {
  MetricsRegistry registry;
  Counter& counter = registry.register_counter("events");
  Gauge& gauge = registry.register_gauge("level");
  SeriesRecorder recorder(registry);
  for (sim::Tick t = 0; t < 3; ++t) {
    counter.add(2);
    gauge.set(double(t) - 0.5);
    recorder.sample(t);
  }
  ASSERT_EQ(recorder.samples(), 3u);
  EXPECT_EQ(as_vec(recorder.series("events")),
            (std::vector<double>{2.0, 4.0, 6.0}));  // cumulative
  EXPECT_EQ(as_vec(recorder.series("level")), (std::vector<double>{-0.5, 0.5, 1.5}));
  EXPECT_THROW(recorder.series("missing"), std::out_of_range);
}

TEST(SeriesRecorder, LateRegisteredMetricIsBackfilled) {
  MetricsRegistry registry;
  registry.register_counter("early").add(1);
  SeriesRecorder recorder(registry);
  recorder.sample(0);
  recorder.sample(1);
  registry.register_counter("late").add(9);
  recorder.sample(2);
  EXPECT_EQ(as_vec(recorder.series("late")), (std::vector<double>{0.0, 0.0, 9.0}));
  EXPECT_EQ(recorder.series("early").size(), 3u);
}

TEST(SeriesRecorder, LateRegisteredGaugeIsBackfilledWithZeros) {
  // Gauges take the same backfill path as counters: a gauge that first
  // appears mid-run (e.g. mc.lat.* merged in after the shard join) gets
  // zeros for the ticks it missed, keeping every series axis-aligned.
  MetricsRegistry registry;
  SeriesRecorder recorder(registry);
  registry.register_counter("steady");
  recorder.sample(0);
  recorder.sample(1);
  Gauge& late = registry.register_gauge("late.level");
  late.set(-2.5);
  recorder.sample(2);
  late.set(7.0);
  recorder.sample(3);
  EXPECT_EQ(as_vec(recorder.series("late.level")),
            (std::vector<double>{0.0, 0.0, -2.5, 7.0}));
  EXPECT_EQ(recorder.series("steady").size(), 4u);
  // The JSON export carries the backfilled prefix too.
  EXPECT_NE(recorder.to_json().find("\"late.level\":[0,0,-2.5,7]"),
            std::string::npos);
}

TEST(SeriesRecorder, JsonRoundTrip) {
  MetricsRegistry registry;
  Counter& counter = registry.register_counter("n");
  FixedHistogram& histogram = registry.register_histogram("h", 0.0, 1.0, 1);
  histogram.observe(0.25);
  SeriesRecorder recorder(registry);
  counter.add(5);
  recorder.sample(10);
  counter.add(5);
  recorder.sample(11);

  const JsonValue root = JsonParser(recorder.to_json()).parse();
  EXPECT_EQ(std::get<std::string>(root.at("schema").data),
            "mobicache.metrics.v1");
  const JsonArray& ticks = root.at("ticks").arr();
  ASSERT_EQ(ticks.size(), 2u);
  EXPECT_DOUBLE_EQ(ticks[0].num(), 10.0);
  EXPECT_DOUBLE_EQ(ticks[1].num(), 11.0);
  const JsonArray& series = root.at("series").at("n").arr();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].num(), 5.0);
  EXPECT_DOUBLE_EQ(series[1].num(), 10.0);
  const JsonObject& h = root.at("histograms").at("h").obj();
  EXPECT_DOUBLE_EQ(h.at("total").num(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("buckets").arr()[0].num(), 1.0);
}

TEST(SeriesRecorder, TableHasTickColumnPlusSeries) {
  MetricsRegistry registry;
  registry.register_counter("a");
  registry.register_gauge("b");
  SeriesRecorder recorder(registry);
  recorder.sample(0);
  recorder.sample(1);
  const util::Table table = recorder.to_table();
  EXPECT_EQ(table.columns(), 3u);
  EXPECT_EQ(table.rows(), 2u);
  // CSV renders without throwing and includes the header.
  EXPECT_NE(table.to_csv().find("tick"), std::string::npos);
}

TEST(JsonHelpers, EscapeAndNumberFormats) {
  EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json::number(3.0), "3");
  EXPECT_EQ(json::number(-1.0), "-1");
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  // Fractional values keep full precision.
  const double x = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(json::number(x).c_str(), nullptr), x);
}

}  // namespace
}  // namespace mobi::obs
