// The base-station cache.
//
// Tracks, per object: whether a copy is cached, the cached version, a
// recency score in (0, 1] (1.0 = as fresh as the master, decayed once per
// missed server update), and bookkeeping counters. This is the paper's
// unbounded cache ("we assume that the base station can cache a copy of
// every object that is requested"); the bounded variant with replacement
// lives in replacement.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/decay.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace mobi::obs

namespace mobi::cache {

struct Entry {
  server::Version version = 0;
  double recency = 1.0;
  sim::Tick fetched_at = 0;
  std::uint32_t hits = 0;
  std::uint32_t refreshes = 0;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;   // reads of objects not present at all
  std::uint64_t refreshes = 0;
  std::uint64_t decays = 0;
};

class Cache {
 public:
  /// `decay` is shared so many caches can use one model; must be non-null.
  Cache(std::size_t object_count, std::shared_ptr<const DecayModel> decay);

  std::size_t object_count() const noexcept { return entries_.size(); }
  bool contains(object::ObjectId id) const {
    check(id);
    return entries_[id].has_value();
  }

  /// Installs a copy: version from the fetch, recency reset to `recency`
  /// (1.0 for a copy straight from the master; lower when the installed
  /// copy is itself a relay of a stale cache entry).
  void refresh(object::ObjectId id, const server::FetchResult& fetch,
               sim::Tick now, double recency = 1.0);

  /// Notification that the master of `id` changed; decays the cached
  /// copy's recency score (no-op if not cached).
  void on_server_update(object::ObjectId id);

  /// Recency score of the cached copy; nullopt if not cached.
  std::optional<double> recency(object::ObjectId id) const {
    check(id);
    const auto& slot = entries_[id];
    if (!slot) return std::nullopt;
    return slot->recency;
  }
  /// Recency treating "not cached" as 0 (useful for profit computations).
  double recency_or_zero(object::ObjectId id) const {
    check(id);
    const auto& slot = entries_[id];
    return slot ? slot->recency : 0.0;
  }

  /// Cached version; nullopt if not cached.
  std::optional<server::Version> version(object::ObjectId id) const;

  /// True when the cached copy is older than `server_version` (or absent).
  bool is_stale(object::ObjectId id, server::Version server_version) const;

  /// Records a read served from the cache (hit/miss accounting) and
  /// returns the served copy's recency; nullopt on a miss. Inline: the
  /// serve loop calls it once per request.
  std::optional<double> record_read(object::ObjectId id) {
    check(id);
    auto& slot = entries_[id];
    if (metrics_) count_read(slot.has_value());
    if (!slot) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++slot->hits;
    ++stats_.hits;
    return slot->recency;
  }

  /// Drops the cached copy of `id` (no-op when absent). Returns whether a
  /// copy was present. Used by bounded caches for replacement.
  bool evict(object::ObjectId id);

  const Entry& entry(object::ObjectId id) const;
  const CacheStats& stats() const noexcept { return stats_; }
  const DecayModel& decay_model() const noexcept { return *decay_; }

  /// Number of objects currently cached.
  std::size_t resident() const noexcept { return resident_; }

  /// Registers hit/miss/refresh/decay/eviction counters and an occupancy
  /// gauge under `prefix` (e.g. `<prefix>.hits`) in `registry` and keeps
  /// them updated from here on; nullptr detaches. The detached path costs
  /// one branch per event.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "cache");

 private:
  // Inline with the accessors the tick calls per request; only the throw
  // (std::out_of_range) is out of line.
  void check(object::ObjectId id) const {
    if (id >= entries_.size()) [[unlikely]] reject_id();
  }
  [[noreturn]] static void reject_id();
  void count_read(bool hit);

  struct Instruments {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* refreshes = nullptr;
    obs::Counter* decays = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* occupancy = nullptr;
  };

  std::vector<std::optional<Entry>> entries_;
  std::shared_ptr<const DecayModel> decay_;
  CacheStats stats_;
  std::size_t resident_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments inst_;
};

}  // namespace mobi::cache
