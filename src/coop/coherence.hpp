// Coherence protocol for cooperative inter-cell caching.
//
// The neighbor-first heuristic in cooperative.hpp treats peer caches as
// read-only recency oracles; nothing keeps copies consistent when the
// origin updates an object. This layer makes base stations first-class
// cache peers under a real consistency protocol, modeled after
// directory-based multi-core coherence (MESI), adapted to this system's
// single-writer world: only the origin server writes, so the protocol
// needs no writeback and no owner forwarding — a cell's copy is either
// the sole cached copy in the cluster (Exclusive), one of several
// (Shared), or known-stale awaiting refetch (StalePendingRefresh).
//
// A CoherenceDirectory tracks, per object, the set of cells caching it
// (the sharer set, logically partitioned across cells by home_cell(id) —
// one physical object here because a cluster steps in lock-step) and each
// sharer's coherence state. Origin updates drive one of three selectable
// consistency modes:
//
//   kInvalidate — the update kills every peer copy (directory fires
//     invalidate_copy per sharer; copies are evicted). No cell can ever
//     serve a stale copy; the price is a refetch storm on hot objects.
//   kPropagate — the update is pushed to every sharer over the cheap
//     inter-station link at propagate_unit_cost units per copy (fires
//     propagate_copy; copies are refreshed in place to full recency).
//     Copies are always fresh; the price is continuous wire traffic.
//   kLease — copies carry a TTL stamped at fill time and are served —
//     even if stale — until the lease expires (sharers are marked
//     StalePendingRefresh on update; begin_tick sweeps expired leases
//     with expire_copy). Bounded staleness at zero per-update traffic.
//
// Determinism contract: the directory is pure bookkeeping — no RNG, no
// wall-clock — and every transition is driven by the cluster's own
// deterministic tick sequence, so coherence-enabled runs stay
// bit-identical across thread-pool sizes (the protocol state never
// crosses a shard boundary).
#pragma once

#include <cstdint>
#include <vector>

#include "core/peer_source.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::cache {
class Cache;
}  // namespace mobi::cache

namespace mobi::coop {

enum class ConsistencyMode { kInvalidate, kPropagate, kLease };

const char* consistency_mode_name(ConsistencyMode mode) noexcept;

/// Per-(cell, object) coherence state. kInvalid = the cell holds no copy.
enum class CoherenceState : std::uint8_t {
  kInvalid = 0,
  kShared,
  kExclusive,
  kStalePendingRefresh,  // kLease only: copy outlived its master version
};

const char* coherence_state_name(CoherenceState state) noexcept;

struct CoherenceConfig {
  /// Off by default. Off, no directory exists: every cell decays its own
  /// copies on a server update, and a neighbor-first cell may take the
  /// best copy another cell holds at or above the acceptance threshold,
  /// at full size, when it is fresher than its own.
  bool enabled = false;
  ConsistencyMode mode = ConsistencyMode::kInvalidate;
  /// kLease: ticks a filled copy may be served before it must be dropped.
  sim::Tick lease_ticks = 8;
  /// kPropagate: inter-station units charged per pushed copy per update.
  object::Units propagate_unit_cost = 1;
  /// Inter-station cost per origin unit for a peer fetch, in (0, 1]: a
  /// peer copy of an object of size S charges peer_cost(S, factor) units
  /// of download budget instead of S (core/peer_source.hpp).
  double peer_cost_factor = 0.25;
};

struct CoherenceStats {
  std::uint64_t invalidations = 0;   // copies killed (kInvalidate)
  std::uint64_t propagations = 0;    // copies pushed fresh (kPropagate)
  std::uint64_t lease_expiries = 0;  // copies dropped at TTL (kLease)
  object::Units coherence_units = 0;  // wire units spent on propagation
};

/// Directory-based coherence bookkeeping for one lock-step cluster of at
/// most 64 cells. All storage is preallocated in the constructor; every
/// transition is loop-only — steady-state protocol traffic performs zero
/// allocations (tests/alloc_regression_test.cpp pins this).
class CoherenceDirectory {
 public:
  /// Receives protocol actions the directory decides on; the cluster
  /// engine applies them to the actual per-cell caches.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// kInvalidate: drop cell's copy of id (it is now stale).
    virtual void invalidate_copy(std::size_t cell, object::ObjectId id) = 0;
    /// kPropagate: refresh cell's copy of id in place to full recency.
    virtual void propagate_copy(std::size_t cell, object::ObjectId id) = 0;
    /// kLease: drop cell's copy of id (its lease ran out).
    virtual void expire_copy(std::size_t cell, object::ObjectId id) = 0;
  };

  /// Throws std::invalid_argument unless 1 <= cell_count <= 64,
  /// lease_ticks >= 1, and peer_cost_factor in (0, 1].
  CoherenceDirectory(std::size_t object_count, std::size_t cell_count,
                     const CoherenceConfig& config);

  void set_listener(Listener* listener) noexcept { listener_ = listener; }

  std::size_t object_count() const noexcept { return object_count_; }
  std::size_t cell_count() const noexcept { return cell_count_; }
  const CoherenceConfig& config() const noexcept { return config_; }
  const CoherenceStats& stats() const noexcept { return stats_; }

  /// Which cell's directory slice owns `id`'s sharer set.
  std::size_t home_cell(object::ObjectId id) const noexcept {
    return std::size_t(id) % cell_count_;
  }

  /// Start-of-tick sweep: in kLease mode, drops every copy whose lease
  /// expiry is <= now (fires expire_copy per drop). No-op otherwise.
  void begin_tick(sim::Tick now);

  /// A cell installed a copy of `id` (origin fetch, peer fetch, or
  /// propagated push). Sole sharer holds Exclusive; a second fill
  /// downgrades the holder and both become Shared; a re-fill clears a
  /// StalePendingRefresh mark and restamps the lease. Copies leave the
  /// sharer set only through the protocol (invalidation, lease expiry).
  void on_fill(std::size_t cell, object::ObjectId id, sim::Tick now);

  /// The origin updated `id`: runs the configured mode's transition over
  /// the sharer set (see file comment).
  void on_server_update(object::ObjectId id);

  std::uint64_t sharer_mask(object::ObjectId id) const;
  std::size_t sharer_count(object::ObjectId id) const;
  CoherenceState state(std::size_t cell, object::ObjectId id) const;
  /// kLease: first tick at which the copy may no longer be served.
  sim::Tick lease_expiry(std::size_t cell, object::ObjectId id) const;

  /// Whether cell's copy of `id` may satisfy a request at `now`:
  /// kLease requires a live lease (expiry > now); the other modes only
  /// require a copy (kInvalidate never leaves a stale one behind).
  bool serveable(std::size_t cell, object::ObjectId id, sim::Tick now) const;

 private:
  std::size_t index(std::size_t cell, object::ObjectId id) const {
    return cell * object_count_ + std::size_t(id);
  }

  std::size_t object_count_;
  std::size_t cell_count_;
  CoherenceConfig config_;
  std::vector<std::uint64_t> sharers_;     // per object: bit c = cell c caches
  std::vector<CoherenceState> states_;     // cell-major [cell][object]
  std::vector<sim::Tick> lease_expiry_;    // cell-major, kLease stamps
  CoherenceStats stats_;
  Listener* listener_ = nullptr;
};

/// One cell's window onto its peers' coherent copies — the core-layer
/// PeerSource a BaseStation or download policy consults to price the
/// third knapsack source tier (local / peer / origin). lookup() walks the
/// directory's sharer set (never the peer caches wholesale), returns the
/// best serveable peer copy at or above `min_recency`, and is draw-free;
/// fill notifications keep the directory's sharer set exact. A
/// `min_recency` no copy can meet (+infinity) makes every lookup invalid
/// while fills still register sharers: the origin-only cluster.
class PeerCacheView final : public core::PeerSource {
 public:
  PeerCacheView(CoherenceDirectory& directory, std::size_t own_cell,
                double min_recency);

  /// Registers the cache backing `cell` (peers and own cell alike) so
  /// lookup can read peer recency. All cells must be set before use.
  void set_cell_cache(std::size_t cell, const cache::Cache* cache);

  core::PeerCopy lookup(object::ObjectId id, sim::Tick now) const override;
  void on_cache_fill(object::ObjectId id, sim::Tick now) override;

  std::size_t own_cell() const noexcept { return own_cell_; }

 private:
  CoherenceDirectory* directory_;
  std::size_t own_cell_;
  double min_recency_;
  std::vector<const cache::Cache*> caches_;
};

}  // namespace mobi::coop
