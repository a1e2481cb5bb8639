#include "cache/cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace mobi::cache {

Cache::Cache(std::size_t object_count,
             std::shared_ptr<const DecayModel> decay)
    : entries_(object_count), decay_(std::move(decay)) {
  if (!decay_) throw std::invalid_argument("Cache: null decay model");
}

void Cache::reject_id() { throw std::out_of_range("Cache: bad object id"); }

void Cache::refresh(object::ObjectId id, const server::FetchResult& fetch,
                    sim::Tick now, double recency) {
  check(id);
  if (!(recency > 0.0) || recency > 1.0) {
    throw std::invalid_argument("Cache::refresh: recency must be in (0, 1]");
  }
  auto& slot = entries_[id];
  if (!slot) {
    slot.emplace();
    ++resident_;
  }
  slot->version = fetch.version;
  slot->recency = recency;
  slot->fetched_at = now;
  ++slot->refreshes;
  ++stats_.refreshes;
  if (metrics_) {
    inst_.refreshes->add();
    inst_.occupancy->set(double(resident_));
  }
}

void Cache::on_server_update(object::ObjectId id) {
  check(id);
  auto& slot = entries_[id];
  if (!slot) return;
  slot->recency = decay_->decayed(slot->recency);
  ++stats_.decays;
  if (metrics_) inst_.decays->add();
}

std::optional<server::Version> Cache::version(object::ObjectId id) const {
  check(id);
  const auto& slot = entries_[id];
  if (!slot) return std::nullopt;
  return slot->version;
}

bool Cache::is_stale(object::ObjectId id,
                     server::Version server_version) const {
  check(id);
  const auto& slot = entries_[id];
  return !slot || slot->version < server_version;
}

void Cache::count_read(bool hit) {
  (hit ? inst_.hits : inst_.misses)->add();
}

bool Cache::evict(object::ObjectId id) {
  check(id);
  auto& slot = entries_[id];
  if (!slot) return false;
  slot.reset();
  --resident_;
  if (metrics_) {
    inst_.evictions->add();
    inst_.occupancy->set(double(resident_));
  }
  return true;
}

void Cache::set_metrics(obs::MetricsRegistry* registry,
                        const std::string& prefix) {
  metrics_ = registry;
  inst_ = {};
  if (!registry) return;
  inst_.hits = &registry->register_counter(prefix + ".hits");
  inst_.misses = &registry->register_counter(prefix + ".misses");
  inst_.refreshes = &registry->register_counter(prefix + ".refreshes");
  inst_.decays = &registry->register_counter(prefix + ".decays");
  inst_.evictions = &registry->register_counter(prefix + ".evictions");
  inst_.occupancy = &registry->register_gauge(prefix + ".occupancy");
  inst_.occupancy->set(double(resident_));
}

const Entry& Cache::entry(object::ObjectId id) const {
  check(id);
  const auto& slot = entries_[id];
  if (!slot) throw std::logic_error("Cache::entry: object not cached");
  return *slot;
}

}  // namespace mobi::cache
