#include "cache/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mobi::cache {

ReplacementPolicy lru_policy() {
  return ReplacementPolicy{
      "lru", [](const Residency& r, sim::Tick now) {
        return double(now - r.last_access);  // older access = higher priority
      }};
}

ReplacementPolicy lfu_policy() {
  return ReplacementPolicy{"lfu", [](const Residency& r, sim::Tick) {
                             return -double(r.access_count);
                           }};
}

ReplacementPolicy size_aware_policy() {
  return ReplacementPolicy{
      "size-aware",
      [](const Residency& r, sim::Tick) { return double(r.size); }};
}

ReplacementPolicy recency_profit_policy() {
  return ReplacementPolicy{
      "recency-profit", [](const Residency& r, sim::Tick) {
        // Retention value: popular, fresh, small objects are worth
        // keeping; evict the lowest value = highest priority.
        const double popularity = double(r.access_count) + 1.0;
        const double value = popularity * r.recency / double(r.size);
        return -value;
      }};
}

namespace {

// The most objects `capacity` can hold at once: every resident is at least
// the catalog's smallest object, and no object is resident twice.
std::size_t resident_bound(const object::Catalog& catalog,
                           object::Units capacity) {
  const auto& sizes = catalog.sizes();
  if (sizes.empty()) return 0;
  const object::Units smallest = *std::min_element(sizes.begin(), sizes.end());
  return std::min(sizes.size(), std::size_t(capacity / smallest));
}

}  // namespace

BoundedCache::BoundedCache(const object::Catalog& catalog,
                           std::shared_ptr<const DecayModel> decay,
                           object::Units capacity, ReplacementPolicy policy)
    : catalog_(&catalog),
      cache_(catalog.size(), std::move(decay)),
      capacity_(capacity),
      policy_(std::move(policy)) {
  if (capacity <= 0) {
    throw std::invalid_argument("BoundedCache: capacity must be > 0");
  }
  if (!policy_.priority) {
    throw std::invalid_argument("BoundedCache: policy has no priority fn");
  }
  residents_.reserve(resident_bound(catalog, capacity));
}

std::vector<Residency>::iterator BoundedCache::lower_bound(
    object::ObjectId id) {
  return std::lower_bound(
      residents_.begin(), residents_.end(), id,
      [](const Residency& r, object::ObjectId key) { return r.id < key; });
}

Residency* BoundedCache::find(object::ObjectId id) {
  const auto it = lower_bound(id);
  return it != residents_.end() && it->id == id ? &*it : nullptr;
}

bool BoundedCache::admit(object::ObjectId id, const server::FetchResult& fetch,
                         sim::Tick now, double recency) {
  const object::Units size = catalog_->object_size(id);
  if (size > capacity_) return false;
  if (Residency* meta = find(id)) {
    // Refresh in place: size already accounted.
    cache_.refresh(id, fetch, now, recency);
    meta->recency = recency;
    return true;
  }
  evict_until_fits(size, now);
  cache_.refresh(id, fetch, now, recency);
  residents_.insert(lower_bound(id), Residency{id, size, recency, now, 0});
  used_ += size;
  return true;
}

std::optional<double> BoundedCache::read(object::ObjectId id, sim::Tick now) {
  cache_.record_read(id);
  const auto score = cache_.recency(id);
  if (score) {
    Residency* meta = find(id);
    meta->last_access = now;
    ++meta->access_count;
    meta->recency = *score;
  }
  return score;
}

void BoundedCache::on_server_update(object::ObjectId id,
                                    std::uint32_t updates) {
  if (!cache_.contains(id)) return;
  for (std::uint32_t k = 0; k < updates; ++k) cache_.on_server_update(id);
  find(id)->recency = *cache_.recency(id);
}

bool BoundedCache::evict(object::ObjectId id) {
  if (!cache_.evict(id)) return false;
  const auto it = lower_bound(id);
  used_ -= it->size;
  residents_.erase(it);
  return true;
}

void BoundedCache::clear() {
  for (const Residency& meta : residents_) cache_.evict(meta.id);
  residents_.clear();
  used_ = 0;
}

void BoundedCache::evict_until_fits(object::Units need, sim::Tick now) {
  while (capacity_ - used_ < need) {
    // Select the resident entry with the highest eviction priority; the
    // strict `>` over ascending ids breaks ties toward the lowest id.
    double best_priority = -std::numeric_limits<double>::infinity();
    auto victim = residents_.end();
    for (auto it = residents_.begin(); it != residents_.end(); ++it) {
      const double priority = policy_.priority(*it, now);
      if (priority > best_priority) {
        best_priority = priority;
        victim = it;
      }
    }
    if (victim == residents_.end()) {
      throw std::logic_error("BoundedCache: no victim but cache is full");
    }
    used_ -= victim->size;
    cache_.evict(victim->id);
    residents_.erase(victim);
    ++evictions_;
  }
}

}  // namespace mobi::cache
