#include "obs/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::obs {
namespace {

// Rank-based percentile over one window's histogram deltas with linear
// interpolation inside the landing bucket. Underflow mass sits at `lo`,
// overflow mass at `hi`; NaN deltas are excluded (same contract as
// FixedHistogram::mean). An empty window reports 0.
double percentile_from_deltas(const std::uint64_t* buckets, std::size_t nb,
                              std::uint64_t under, std::uint64_t over,
                              double lo, double width, double hi, double q) {
  double finite = double(under) + double(over);
  for (std::size_t b = 0; b < nb; ++b) finite += double(buckets[b]);
  if (finite <= 0.0) return 0.0;
  const double target = q * finite;
  double cum = double(under);
  if (under > 0 && cum >= target) return lo;
  for (std::size_t b = 0; b < nb; ++b) {
    const double c = double(buckets[b]);
    if (c > 0.0 && cum + c >= target) {
      const double frac = (target - cum) / c;
      return lo + width * (double(b) + frac);
    }
    cum += c;
  }
  return hi;
}

std::uint64_t clamped_delta(std::uint64_t cur, std::uint64_t base) noexcept {
  return cur >= base ? cur - base : 0;
}

}  // namespace

WindowAggregator::WindowAggregator(const MetricsRegistry& registry,
                                   const Config& config)
    : window_ticks_(config.window_ticks),
      frame_capacity_(config.frame_capacity),
      registry_(registry) {
  if (window_ticks_ <= 0) {
    throw std::invalid_argument("WindowAggregator: window_ticks must be > 0");
  }
  if (frame_capacity_ == 0) {
    throw std::invalid_argument("WindowAggregator: frame_capacity must be > 0");
  }
}

void WindowAggregator::build_columns(const MetricsRegistry& registry) {
  columns_.clear();
  counters_.clear();
  counter_cols_.clear();
  gauges_.clear();
  gauge_cols_.clear();
  hists_.clear();
  hist_cols_.clear();
  hist_slots_total_ = 0;

  columns_.push_back("window.start_tick");
  columns_.push_back("window.end_tick");
  columns_.push_back("window.ticks");

  for (const std::string& name : registry.names()) {
    switch (registry.kind(name)) {
      case MetricKind::kCounter:
        counters_.push_back(registry.find_counter(name));
        counter_cols_.push_back(columns_.size());
        columns_.push_back(name + ".rate");
        break;
      case MetricKind::kGauge:
        gauges_.push_back(registry.find_gauge(name));
        gauge_cols_.push_back(columns_.size());
        columns_.push_back(name + ".last");
        break;
      case MetricKind::kHistogram: {
        const FixedHistogram* hist = registry.find_histogram(name);
        HistShape shape;
        shape.hist = hist;
        shape.lo = hist->lo();
        shape.hi = hist->hi();
        shape.buckets = hist->bucket_count();
        shape.width = (shape.hi - shape.lo) / double(shape.buckets);
        shape.offset = hist_slots_total_;
        hists_.push_back(shape);
        hist_slots_total_ += shape.buckets + kHistExtra;
        hist_cols_.push_back(columns_.size());
        columns_.push_back(name + ".p50");
        columns_.push_back(name + ".p90");
        columns_.push_back(name + ".p99");
        columns_.push_back(name + ".mean");
        columns_.push_back(name + ".count");
        break;
      }
    }
  }
}

void WindowAggregator::begin() {
  build_columns(registry_);

  counter_base_.assign(counters_.size(), 0);
  hist_base_.assign(hist_slots_total_, 0);
  hist_sum_base_.assign(hists_.size(), 0.0);
  hist_delta_.assign(hist_slots_total_, 0);

  meta_.assign(frame_capacity_, FrameView{});
  values_.assign(frame_capacity_ * columns_.size(), 0.0);

  begun_ = true;
  finished_ = false;
  ticks_seen_ = 0;
  last_tick_ = 0;
  windows_closed_ = 0;
  dropped_frames_ = 0;

  open_window();
}

void WindowAggregator::open_window() {
  open_start_n_ = ticks_seen_;
  for (std::size_t c = 0; c < counters_.size(); ++c) {
    counter_base_[c] = counters_[c]->value();
  }
  for (std::size_t h = 0; h < hists_.size(); ++h) {
    const HistShape& shape = hists_[h];
    std::uint64_t* block = hist_base_.data() + shape.offset;
    for (std::size_t b = 0; b < shape.buckets; ++b) {
      block[b] = shape.hist->bucket(b);
    }
    block[shape.buckets] = shape.hist->underflow();
    block[shape.buckets + 1] = shape.hist->overflow();
    block[shape.buckets + 2] = shape.hist->nan_count();
    hist_sum_base_[h] = shape.hist->sum();
  }
}

void WindowAggregator::on_tick(sim::Tick now) {
  if (!begun_) {
    throw std::logic_error("WindowAggregator::on_tick before begin()");
  }
  if (finished_) {
    throw std::logic_error("WindowAggregator::on_tick after finish()");
  }
  if (ticks_seen_ == open_start_n_) open_start_tick_ = now;
  last_tick_ = now;
  ++ticks_seen_;
  if (ticks_seen_ - open_start_n_ == window_ticks_) {
    close_window(now, /*partial=*/false);
    open_window();
  }
}

void WindowAggregator::finish() {
  if (!begun_ || finished_) return;
  if (ticks_seen_ > open_start_n_) close_window(last_tick_, /*partial=*/true);
  finished_ = true;
}

void WindowAggregator::close_window(sim::Tick end_tick, bool partial) {
  const std::int64_t covered = ticks_seen_ - open_start_n_;
  const std::size_t ring = std::size_t(windows_closed_ % frame_capacity_);
  if (windows_closed_ >= frame_capacity_) ++dropped_frames_;

  FrameView& meta = meta_[ring];
  meta.index = windows_closed_;
  meta.start_tick = open_start_tick_;
  meta.end_tick = end_tick;
  meta.ticks = covered;
  meta.partial = partial;

  double* values = frame_values(ring);
  values[0] = double(meta.start_tick);
  values[1] = double(meta.end_tick);
  values[2] = double(meta.ticks);

  const double ticks = double(covered);
  for (std::size_t c = 0; c < counters_.size(); ++c) {
    const std::uint64_t delta =
        clamped_delta(counters_[c]->value(), counter_base_[c]);
    values[counter_cols_[c]] = double(delta) / ticks;
  }
  for (std::size_t g = 0; g < gauges_.size(); ++g) {
    values[gauge_cols_[g]] = gauges_[g]->value();
  }

  for (std::size_t h = 0; h < hists_.size(); ++h) {
    const HistShape& shape = hists_[h];
    const std::uint64_t* base = hist_base_.data() + shape.offset;
    std::uint64_t* delta = hist_delta_.data() + shape.offset;
    for (std::size_t b = 0; b < shape.buckets; ++b) {
      delta[b] = clamped_delta(shape.hist->bucket(b), base[b]);
    }
    const std::uint64_t under =
        clamped_delta(shape.hist->underflow(), base[shape.buckets]);
    const std::uint64_t over =
        clamped_delta(shape.hist->overflow(), base[shape.buckets + 1]);
    const std::uint64_t nan =
        clamped_delta(shape.hist->nan_count(), base[shape.buckets + 2]);
    const double sum = shape.hist->sum() - hist_sum_base_[h];
    std::uint64_t finite = under + over;
    for (std::size_t b = 0; b < shape.buckets; ++b) finite += delta[b];
    const std::size_t col = hist_cols_[h];
    values[col + 0] = percentile_from_deltas(delta, shape.buckets, under, over,
                                             shape.lo, shape.width, shape.hi,
                                             0.50);
    values[col + 1] = percentile_from_deltas(delta, shape.buckets, under, over,
                                             shape.lo, shape.width, shape.hi,
                                             0.90);
    values[col + 2] = percentile_from_deltas(delta, shape.buckets, under, over,
                                             shape.lo, shape.width, shape.hi,
                                             0.99);
    values[col + 3] = finite ? sum / double(finite) : 0.0;
    values[col + 4] = double(finite + nan);
  }

  ++windows_closed_;
  if (listener_ != nullptr) {
    listener_->on_window(*this, frames() - 1);
  }
}

std::size_t WindowAggregator::column_index(
    const std::string& name) const noexcept {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return npos;
}

std::size_t WindowAggregator::frames() const noexcept {
  return std::size_t(std::min<std::uint64_t>(windows_closed_, frame_capacity_));
}

std::size_t WindowAggregator::ring_of(std::size_t frame) const {
  if (frame >= frames()) {
    throw std::out_of_range("WindowAggregator: frame out of range");
  }
  const std::uint64_t ordinal = windows_closed_ - frames() + frame;
  return std::size_t(ordinal % frame_capacity_);
}

WindowAggregator::FrameView WindowAggregator::frame(std::size_t frame) const {
  return meta_[ring_of(frame)];
}

double WindowAggregator::value(std::size_t frame, std::size_t column) const {
  if (column >= columns_.size()) {
    throw std::out_of_range("WindowAggregator: column out of range");
  }
  return frame_values(ring_of(frame))[column];
}

double WindowAggregator::value(std::size_t frame,
                               const std::string& column) const {
  const std::size_t index = column_index(column);
  if (index == npos) {
    throw std::out_of_range("WindowAggregator: unknown column " + column);
  }
  return value(frame, index);
}

std::string WindowAggregator::to_json() const {
  std::string out;
  out.reserve(256 + frames() * columns_.size() * 12);
  out += "{\"schema\":\"mobicache.windows.v1\"";
  out += ",\"window_ticks\":" + std::to_string(window_ticks_);
  out += ",\"stride_ticks\":" + std::to_string(window_ticks_);
  out += ",\"windows_closed\":" + std::to_string(windows_closed_);
  out += ",\"dropped_frames\":" + std::to_string(dropped_frames_);
  out += ",\"windows\":[";
  for (std::size_t f = 0; f < frames(); ++f) {
    if (f) out += ',';
    out += std::to_string(meta_[ring_of(f)].index);
  }
  out += "],\"series\":{";
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    if (col) out += ',';
    out += '"';
    out += json::escape(columns_[col]);
    out += "\":[";
    for (std::size_t f = 0; f < frames(); ++f) {
      if (f) out += ',';
      out += json::number(frame_values(ring_of(f))[col]);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

}  // namespace mobi::obs
