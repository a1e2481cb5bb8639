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
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "object/object.hpp"

namespace mobi::cache {

class InvalidationListener;

/// Per-entry metadata visible to replacement policies.
struct Residency {
  object::ObjectId id = 0;
  object::Units size = 0;
  double recency = 1.0;
  sim::Tick last_access = 0;
  std::uint64_t access_count = 0;
};

/// One of the four built-in policies; make one with the functions below.
/// `kind` selects the eviction priority the victim scan computes.
struct ReplacementPolicy {
  enum class Kind : std::uint8_t { kLru, kLfu, kSizeAware, kRecencyProfit };
  Kind kind = Kind::kLru;
  std::string_view name = "lru";
};

ReplacementPolicy lru_policy();
ReplacementPolicy lfu_policy();
ReplacementPolicy size_aware_policy();
ReplacementPolicy recency_profit_policy();

/// A capacity-limited cache that holds only its residents.
///
/// The residents live in one vector in ascending id order, reserved at
/// construction to the most objects the capacity can hold (capacity over
/// the catalog's smallest size, at most the catalog), so it never grows.
/// Each resident carries its own recency, decayed in place through the
/// shared DecayModel, so nothing in the cache is sized by the catalog.
/// Every operation binary-searches the residents once (admit again after
/// an eviction), and victim selection scans them, so both cost what the
/// cache holds rather than the catalog size.
class BoundedCache {
 public:
  /// `decay` is shared so many caches can use one model; must be non-null.
  BoundedCache(const object::Catalog& catalog,
               std::shared_ptr<const DecayModel> decay,
               object::Units capacity, ReplacementPolicy policy);

  object::Units capacity() const noexcept { return capacity_; }
  object::Units used() const noexcept { return used_; }
  std::string_view policy_name() const noexcept { return policy_.name; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  /// Hits and misses of read(), installs by admit() (refreshes included)
  /// and per-update decays of residents; evictions are counted above.
  const CacheStats& stats() const noexcept { return stats_; }

  bool contains(object::ObjectId id) const;
  /// Recency score of the cached copy; nullopt if not cached.
  std::optional<double> recency(object::ObjectId id) const;

  /// Installs a copy, evicting victims as needed. Objects larger than the
  /// whole capacity are rejected (returns false, nothing evicted).
  /// `recency` is the installed copy's score (1.0 = straight from master);
  /// outside (0, 1] throws std::invalid_argument before anything changes.
  bool admit(object::ObjectId id, sim::Tick now, double recency = 1.0);

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

  /// The resident entries, in ascending id order.
  const std::vector<Residency>& residents() const noexcept {
    return residents_;
  }

 private:
  // apply() walks the residents and decays the listed ones in place.
  friend class InvalidationListener;

  // Every id-taking member rejects ids outside the catalog with
  // std::out_of_range; only the throw is out of line.
  void check(object::ObjectId id) const {
    if (id >= catalog_->size()) [[unlikely]] reject_id();
  }
  [[noreturn]] static void reject_id();

  // Index of the first resident whose id is not below `id`.
  std::size_t position(object::ObjectId id) const;
  // The resident `id`, or nullptr; checks the id first.
  const Residency* find(object::ObjectId id) const;
  Residency* find(object::ObjectId id) {
    return const_cast<Residency*>(std::as_const(*this).find(id));
  }
  void decay(Residency& meta, std::uint32_t updates);
  std::size_t victim(sim::Tick now) const;
  void evict_until_fits(object::Units need, sim::Tick now);

  const object::Catalog* catalog_;
  std::shared_ptr<const DecayModel> decay_;
  object::Units capacity_;
  object::Units used_ = 0;
  ReplacementPolicy policy_;
  std::vector<Residency> residents_;  // ascending id; never reallocates
  std::uint64_t evictions_ = 0;
  CacheStats stats_;
};

}  // namespace mobi::cache
