#include "obs/recorder.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mobi::obs {

void SeriesRecorder::reserve(std::size_t samples) {
  reserve_hint_ = std::max(reserve_hint_, samples);
  ticks_.reserve(reserve_hint_);
  for (auto& [name, values] : series_) values.reserve(reserve_hint_);
}

void SeriesRecorder::bind() {
  const std::size_t before = ticks_.size();
  bindings_.clear();
  for (const std::string& name : registry_->scalar_names()) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, Series()).first;
      if (reserve_hint_) it->second.reserve(reserve_hint_);
    }
    Series& values = it->second;
    if (values.size() < before) values.resize(before, 0.0);  // late joiner
    bindings_.push_back({registry_->find_counter(name),
                         registry_->find_gauge(name), &values});
  }
  bound_size_ = registry_->size();
}

void SeriesRecorder::sample(sim::Tick tick) {
  if (registry_->size() != bound_size_) bind();
  for (const Binding& binding : bindings_) {
    binding.values->push_back(binding.counter
                                  ? double(binding.counter->value())
                                  : binding.gauge->value());
  }
  ticks_.push_back(tick);
}

const SeriesRecorder::Series& SeriesRecorder::series(
    const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("SeriesRecorder: no series '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> SeriesRecorder::series_names() const {
  std::vector<std::string> result;
  result.reserve(series_.size());
  for (const auto& [name, values] : series_) result.push_back(name);
  return result;
}

std::string SeriesRecorder::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"mobicache.metrics.v1\",\"ticks\":[";
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    if (i) out << ',';
    out << ticks_[i];
  }
  out << "],\"series\":{";
  bool first = true;
  for (const auto& [name, values] : series_) {
    if (!first) out << ',';
    first = false;
    out << '"' << json::escape(name) << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out << ',';
      out << json::number(values[i]);
    }
    out << ']';
  }
  out << "},\"histograms\":{";
  first = true;
  for (const std::string& name : registry_->names()) {
    const FixedHistogram* h = registry_->find_histogram(name);
    if (!h) continue;
    if (!first) out << ',';
    first = false;
    out << '"' << json::escape(name) << "\":{\"lo\":" << json::number(h->lo())
        << ",\"hi\":" << json::number(h->hi()) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h->bucket_count(); ++i) {
      if (i) out << ',';
      out << h->bucket(i);
    }
    out << "],\"underflow\":" << h->underflow()
        << ",\"overflow\":" << h->overflow() << ",\"nan\":" << h->nan_count()
        << ",\"total\":" << h->total()
        << ",\"sum\":" << json::number(h->sum()) << '}';
  }
  out << "}}";
  return out.str();
}

util::Table SeriesRecorder::to_table() const {
  std::vector<std::string> headers{"tick"};
  for (const auto& [name, values] : series_) headers.push_back(name);
  util::Table table(std::move(headers), 6);
  for (std::size_t row = 0; row < ticks_.size(); ++row) {
    std::vector<util::Cell> cells;
    cells.reserve(series_.size() + 1);
    cells.emplace_back((long long)(ticks_[row]));
    for (const auto& [name, values] : series_) {
      cells.emplace_back(row < values.size() ? values[row] : 0.0);
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace mobi::obs
