// Mobile clients with local caches, intermittent connectivity and
// invalidation-report listening.
//
// The paper's §1 motivates the base-station cache with client churn ("a
// client may be connected to the base station in its cell for a short
// period of time, and then disconnect"); its related work [8] (Barbara &
// Imielinski) studies what a *client-side* cache can keep across sleeps.
// This module models that tier: each client holds a small bounded cache
// fed by the base station's responses, hears the base station's periodic
// invalidation reports while connected, and applies the sleeper rule on
// reconnect. A request is then served at three possible levels: the
// client cache (free), the base-station cache (downlink cost), or a
// remote fetch (fixed-network cost).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"
#include "util/rng.hpp"

namespace mobi::client {

enum class Connectivity { kConnected, kDisconnected };

struct MobileClientConfig {
  /// Local cache capacity in data units.
  object::Units cache_units = 20;
  /// Target recency the client attaches to its requests.
  double target_recency = 1.0;
  /// Per-tick probability of disconnecting / reconnecting.
  double disconnect_rate = 0.01;
  double reconnect_rate = 0.3;
};

class MobileClient {
 public:
  MobileClient(std::uint32_t id, const object::Catalog& catalog,
               MobileClientConfig config);

  std::uint32_t id() const noexcept { return id_; }
  Connectivity connectivity() const noexcept { return connectivity_; }
  bool connected() const noexcept {
    return connectivity_ == Connectivity::kConnected;
  }
  double target_recency() const noexcept { return config_.target_recency; }

  /// Advances the connectivity state machine one tick. Returns true if
  /// the client just reconnected (the caller should deliver a report or
  /// let the sleeper rule fire on the next one). While a handoff is in
  /// progress the random disconnect/reconnect draws are suspended (no
  /// RNG is consumed) and the client reconnects deterministically when
  /// the handoff window closes.
  bool step_connectivity(util::Rng& rng);

  /// Forces the client off the air for `ticks` steps — a handoff to a
  /// neighboring cell and back (fault injection). Idempotent while one
  /// is already in progress: the longer window wins.
  void begin_handoff(sim::Tick ticks);

  bool in_handoff() const noexcept { return handoff_ticks_left_ > 0; }
  std::uint64_t handoff_count() const noexcept { return handoffs_; }

  /// Tries to serve `id` locally. Returns the recency of the local copy
  /// if present (and records a hit), nullopt on miss.
  std::optional<double> lookup(object::ObjectId id, sim::Tick now) {
    return cache_.read(id, now);
  }

  /// Stores a copy received from the base station. `recency` is the copy's
  /// recency score at receipt; 1.0 when the base station relayed a fresh
  /// copy, lower when it served its own stale cache entry.
  void store(object::ObjectId id, sim::Tick now, double recency = 1.0);

  /// Hears an invalidation report (only meaningful while connected).
  /// Returns -1 if the sleeper rule dropped the local cache.
  int hear_report(const cache::InvalidationReport& report);

  const cache::BoundedCache& local_cache() const noexcept { return cache_; }
  /// Lookups served by / missing the local cache (its read() stats).
  std::uint64_t hits() const noexcept { return cache_.stats().hits; }
  std::uint64_t misses() const noexcept { return cache_.stats().misses; }
  std::uint64_t sleeper_drops() const noexcept {
    return listener_.cache_drops();
  }

 private:
  std::uint32_t id_;
  MobileClientConfig config_;
  cache::BoundedCache cache_;
  cache::InvalidationListener listener_;
  Connectivity connectivity_ = Connectivity::kConnected;
  sim::Tick handoff_ticks_left_ = 0;
  std::uint64_t handoffs_ = 0;
};

}  // namespace mobi::client
