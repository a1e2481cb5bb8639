// Bounded cache with pluggable replacement — the paper's §6 future-work
// extension ("developing caching policies when cache space at the base
// station is limited ... cache replacement policies based on client
// requests and knowledge of server updates").
//
// Victim selection is expressed as an eviction priority: the resident
// entry with the highest priority is evicted first. Built-in policies:
//   * LRU             — least-recently-used first;
//   * LFU             — least-frequently-used first;
//   * SizeAware       — largest object first (frees space fastest);
//   * RecencyProfit   — lowest retention value first, where retention
//                       value = popularity * recency / size: keep small,
//                       popular, fresh objects (uses "client requests and
//                       knowledge of server updates" exactly as §6 asks).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "object/object.hpp"

namespace mobi::cache {

/// Per-entry metadata visible to replacement policies.
struct Residency {
  object::ObjectId id = 0;
  object::Units size = 0;
  double recency = 1.0;
  sim::Tick last_access = 0;
  std::uint64_t access_count = 0;
};

/// Returns the eviction priority of an entry (higher = evict sooner).
using EvictionPriority = std::function<double(const Residency&, sim::Tick now)>;

struct ReplacementPolicy {
  std::string name;
  EvictionPriority priority;
};

ReplacementPolicy lru_policy();
ReplacementPolicy lfu_policy();
ReplacementPolicy size_aware_policy();
ReplacementPolicy recency_profit_policy();

/// A capacity-limited cache front. Tracks residency and sizes; the actual
/// recency/version state lives in the wrapped Cache.
///
/// The residents live in one vector in ascending id order, reserved at
/// construction to the most objects the capacity can hold (capacity over
/// the catalog's smallest size, at most the catalog), so it never grows.
/// Lookups binary-search it and victim selection scans it, so both cost
/// what the cache holds rather than the catalog size.
class BoundedCache {
 public:
  BoundedCache(const object::Catalog& catalog,
               std::shared_ptr<const DecayModel> decay,
               object::Units capacity, ReplacementPolicy policy);

  object::Units capacity() const noexcept { return capacity_; }
  object::Units used() const noexcept { return used_; }
  const std::string& policy_name() const noexcept { return policy_.name; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  bool contains(object::ObjectId id) const { return cache_.contains(id); }
  std::optional<double> recency(object::ObjectId id) const {
    return cache_.recency(id);
  }

  /// Installs a fetched copy, evicting victims as needed. Objects larger
  /// than the whole capacity are rejected (returns false, nothing evicted).
  /// `recency` is the installed copy's score (1.0 = straight from master).
  bool admit(object::ObjectId id, const server::FetchResult& fetch,
             sim::Tick now, double recency = 1.0);

  /// Read through the cache: bumps access stats; returns the recency of
  /// the copy served, or nullopt on miss.
  std::optional<double> read(object::ObjectId id, sim::Tick now);

  /// Notification that the master of `id` changed `updates` times; decays
  /// the cached copy once per update (no-op if not cached).
  void on_server_update(object::ObjectId id, std::uint32_t updates = 1);

  /// Drops the entry for `id` (no-op when absent), releasing its space.
  bool evict(object::ObjectId id);

  /// Drops every resident (the sleeper rule). Not counted in evictions().
  void clear();

  const Cache& inner() const noexcept { return cache_; }
  /// The resident entries, in ascending id order.
  const std::vector<Residency>& residents() const noexcept {
    return residents_;
  }

 private:
  std::vector<Residency>::iterator lower_bound(object::ObjectId id);
  Residency* find(object::ObjectId id);
  void evict_until_fits(object::Units need, sim::Tick now);

  const object::Catalog* catalog_;
  Cache cache_;
  object::Units capacity_;
  object::Units used_ = 0;
  ReplacementPolicy policy_;
  std::vector<Residency> residents_;  // ascending id; never reallocates
  std::uint64_t evictions_ = 0;
};

}  // namespace mobi::cache
