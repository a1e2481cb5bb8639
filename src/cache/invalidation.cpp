#include "cache/invalidation.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::cache {

void InvalidationReport::add(object::ObjectId object, std::uint32_t updates) {
  if (!items_.empty() && object <= items_.back().object) {
    throw std::invalid_argument(
        "InvalidationReport: items must be in strictly ascending id");
  }
  items_.push_back(Item{object, updates});
}

void InvalidationReport::reset(sim::Tick window_start, sim::Tick window_end) {
  window_start_ = window_start;
  window_end_ = window_end;
  items_.clear();
}

InvalidationLog::InvalidationLog(std::size_t object_count)
    : object_count_(object_count), updates_(object_count) {}

void InvalidationLog::record_update(object::ObjectId id, sim::Tick tick) {
  if (id >= object_count_) throw std::out_of_range("InvalidationLog: bad id");
  auto& history = updates_[id];
  if (!history.empty() && tick < history.back()) {
    throw std::logic_error("InvalidationLog: updates must be time-ordered");
  }
  history.push_back(tick);
  ++total_;
}

InvalidationReport InvalidationLog::make_report(sim::Tick from,
                                                sim::Tick to) const {
  InvalidationReport report;
  make_report_into(from, to, report);
  return report;
}

void InvalidationLog::make_report_into(sim::Tick from, sim::Tick to,
                                       InvalidationReport& out) const {
  if (from > to) throw std::invalid_argument("InvalidationLog: from > to");
  out.reset(from, to);
  for (object::ObjectId id = 0; id < object_count_; ++id) {
    const auto& history = updates_[id];
    const auto lo = std::lower_bound(history.begin(), history.end(), from);
    const auto hi = std::lower_bound(history.begin(), history.end(), to);
    const auto count = std::uint32_t(hi - lo);
    if (count > 0) out.add(id, count);
  }
}

void InvalidationLog::prune(sim::Tick before) {
  for (auto& history : updates_) {
    const auto cut = std::lower_bound(history.begin(), history.end(), before);
    history.erase(history.begin(), cut);
  }
}

int InvalidationListener::apply(const InvalidationReport& report,
                                BoundedCache& cache) {
  if (report.window_end() < report.window_start()) {
    throw std::invalid_argument("InvalidationListener: bad report window");
  }
  // Sleeper rule: a gap between the last report heard and this one means
  // we may have missed invalidations — nothing cached can be trusted.
  if (heard_any_ && report.window_start() > last_end_) {
    cache.clear();
    ++drops_;
    last_end_ = report.window_end();
    ++applied_;
    // The report's own contents are irrelevant: the cache is empty now.
    return -1;
  }
  // Residents and items are both in ascending id, so each resident's
  // search starts where the previous one ended, and a listed resident is
  // decayed where it stands.
  const auto before = [](const InvalidationReport::Item& item,
                         object::ObjectId id) { return item.object < id; };
  int decayed = 0;
  const auto& items = report.items();
  auto from = items.begin();
  for (Residency& resident : cache.residents_) {
    from = std::lower_bound(from, items.end(), resident.id, before);
    if (from == items.end()) break;
    if (from->object != resident.id) continue;
    cache.decay(resident, from->updates);
    decayed += int(from->updates);
  }
  heard_any_ = true;
  last_end_ = std::max(last_end_, report.window_end());
  ++applied_;
  return decayed;
}

}  // namespace mobi::cache
