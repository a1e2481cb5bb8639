#include "cache/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mobi::cache {

ReplacementPolicy lru_policy() {
  return {ReplacementPolicy::Kind::kLru, "lru"};
}

ReplacementPolicy lfu_policy() {
  return {ReplacementPolicy::Kind::kLfu, "lfu"};
}

ReplacementPolicy size_aware_policy() {
  return {ReplacementPolicy::Kind::kSizeAware, "size-aware"};
}

ReplacementPolicy recency_profit_policy() {
  return {ReplacementPolicy::Kind::kRecencyProfit, "recency-profit"};
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

// The index of the resident with the highest eviction priority. The strict
// `>` over ascending ids breaks ties toward the lowest id; an empty list
// returns its size.
template <class Priority>
std::size_t highest_priority(const std::vector<Residency>& residents,
                             Priority priority) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t victim = residents.size();
  for (std::size_t i = 0; i < residents.size(); ++i) {
    const double p = priority(residents[i]);
    if (p > best) {
      best = p;
      victim = i;
    }
  }
  return victim;
}

}  // namespace

BoundedCache::BoundedCache(const object::Catalog& catalog,
                           std::shared_ptr<const DecayModel> decay,
                           object::Units capacity, ReplacementPolicy policy)
    : catalog_(&catalog),
      decay_(std::move(decay)),
      capacity_(capacity),
      policy_(policy) {
  if (!decay_) throw std::invalid_argument("BoundedCache: null decay model");
  if (capacity <= 0) {
    throw std::invalid_argument("BoundedCache: capacity must be > 0");
  }
  residents_.reserve(resident_bound(catalog, capacity));
}

void BoundedCache::reject_id() {
  throw std::out_of_range("BoundedCache: bad object id");
}

std::size_t BoundedCache::position(object::ObjectId id) const {
  return std::size_t(
      std::lower_bound(
          residents_.begin(), residents_.end(), id,
          [](const Residency& r, object::ObjectId key) { return r.id < key; }) -
      residents_.begin());
}

const Residency* BoundedCache::find(object::ObjectId id) const {
  check(id);
  const std::size_t at = position(id);
  return at < residents_.size() && residents_[at].id == id ? &residents_[at]
                                                           : nullptr;
}

bool BoundedCache::contains(object::ObjectId id) const {
  return find(id) != nullptr;
}

std::optional<double> BoundedCache::recency(object::ObjectId id) const {
  const Residency* meta = find(id);
  if (meta == nullptr) return std::nullopt;
  return meta->recency;
}

bool BoundedCache::admit(object::ObjectId id, sim::Tick now, double recency) {
  check(id);
  if (!(recency > 0.0) || recency > 1.0) {
    throw std::invalid_argument(
        "BoundedCache::admit: recency must be in (0, 1]");
  }
  const object::Units size = catalog_->sizes()[id];
  if (size > capacity_) return false;
  std::size_t at = position(id);
  if (at < residents_.size() && residents_[at].id == id) {
    // Refresh in place: size already accounted.
    residents_[at].recency = recency;
    ++stats_.refreshes;
    return true;
  }
  if (capacity_ - used_ < size) {
    evict_until_fits(size, now);
    at = position(id);
  }
  residents_.insert(residents_.begin() + std::ptrdiff_t(at),
                    Residency{id, size, recency, now, 0});
  used_ += size;
  ++stats_.refreshes;
  return true;
}

std::optional<double> BoundedCache::read(object::ObjectId id, sim::Tick now) {
  Residency* meta = find(id);
  if (meta == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  meta->last_access = now;
  ++meta->access_count;
  return meta->recency;
}

void BoundedCache::decay(Residency& meta, std::uint32_t updates) {
  // One decayed() per update, as a per-update notification would apply,
  // so the score matches it bit for bit (after_misses' closed form need
  // not).
  for (std::uint32_t k = 0; k < updates; ++k) {
    meta.recency = decay_->decayed(meta.recency);
  }
  stats_.decays += updates;
}

void BoundedCache::on_server_update(object::ObjectId id,
                                    std::uint32_t updates) {
  if (Residency* meta = find(id)) decay(*meta, updates);
}

bool BoundedCache::evict(object::ObjectId id) {
  const Residency* meta = find(id);
  if (meta == nullptr) return false;
  used_ -= meta->size;
  residents_.erase(residents_.begin() + (meta - residents_.data()));
  return true;
}

void BoundedCache::clear() {
  residents_.clear();
  used_ = 0;
}

std::size_t BoundedCache::victim(sim::Tick now) const {
  using Kind = ReplacementPolicy::Kind;
  switch (policy_.kind) {
    case Kind::kLru:
      // Older access = higher priority.
      return highest_priority(residents_, [now](const Residency& r) {
        return double(now - r.last_access);
      });
    case Kind::kLfu:
      return highest_priority(residents_, [](const Residency& r) {
        return -double(r.access_count);
      });
    case Kind::kSizeAware:
      return highest_priority(
          residents_, [](const Residency& r) { return double(r.size); });
    case Kind::kRecencyProfit:
      // Retention value: popular, fresh, small objects are worth keeping;
      // evict the lowest value = highest priority.
      return highest_priority(residents_, [](const Residency& r) {
        const double popularity = double(r.access_count) + 1.0;
        const double value = popularity * r.recency / double(r.size);
        return -value;
      });
  }
  return residents_.size();
}

void BoundedCache::evict_until_fits(object::Units need, sim::Tick now) {
  while (capacity_ - used_ < need) {
    const std::size_t at = victim(now);
    if (at == residents_.size()) {
      throw std::logic_error("BoundedCache: no victim but cache is full");
    }
    used_ -= residents_[at].size;
    residents_.erase(residents_.begin() + std::ptrdiff_t(at));
    ++evictions_;
  }
}

}  // namespace mobi::cache
