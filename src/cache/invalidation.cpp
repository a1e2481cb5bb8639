#include "cache/invalidation.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::cache {

InvalidationReporter::InvalidationReporter(const server::ServerPool& servers)
    : servers_(&servers), last_(servers.object_count()) {
  for (object::ObjectId id = 0; id < last_.size(); ++id) {
    last_[id] = servers.version(id);
  }
}

void InvalidationReporter::cut(sim::Tick now, InvalidationReport& report) {
  if (now < last_cut_) {
    throw std::invalid_argument("InvalidationReporter: cut before the last");
  }
  report.window_start = last_cut_;
  report.window_end = now;
  report.updates.resize(last_.size());
  for (object::ObjectId id = 0; id < last_.size(); ++id) {
    const server::Version version = servers_->version(id);
    report.updates[id] = std::uint32_t(version - last_[id]);
    last_[id] = version;
  }
  last_cut_ = now;
}

int InvalidationListener::apply(const InvalidationReport& report,
                                BoundedCache& cache) {
  if (report.window_end < report.window_start) {
    throw std::invalid_argument("InvalidationListener: bad report window");
  }
  if (report.updates.size() != cache.catalog_->size()) {
    throw std::invalid_argument(
        "InvalidationListener: report does not count the cache's catalog");
  }
  // Sleeper rule: a gap between the last report heard and this one means
  // we may have missed invalidations — nothing cached can be trusted.
  if (heard_any_ && report.window_start > last_end_) {
    cache.clear();
    ++drops_;
    last_end_ = report.window_end;
    ++applied_;
    // The report's own contents are irrelevant: the cache is empty now.
    return -1;
  }
  int decayed = 0;
  for (Residency& resident : cache.residents_) {
    const std::uint32_t updates = report.updates[resident.id];
    if (updates == 0) continue;
    cache.decay(resident, updates);
    decayed += int(updates);
  }
  heard_any_ = true;
  last_end_ = std::max(last_end_, report.window_end);
  ++applied_;
  return decayed;
}

}  // namespace mobi::cache
