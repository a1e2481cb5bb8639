// Peer source tier: a base station's view of copies cached by peer
// stations reachable over the cheap inter-station wired link.
//
// The paper's fetch model has two source classes: the station's own cache
// (local, free) and the remote origin (fixed network, full cost). A peer
// tier sits between them — a neighbor station's coherent copy can be
// copied for a fraction of the origin's fixed-network cost, at the
// neighbor copy's (possibly reduced) recency. PeerSource is the minimal
// interface the core layer needs to price that third class: lookups are
// pure queries, and fill notifications let the implementation (the
// coherence directory in src/coop/coherence.hpp) track the attached
// station as a sharer.
//
// Determinism contract: lookup() must be a pure function of simulation
// state — no RNG draws, no wall-clock — so attaching a peer source keeps
// runs bit-identical across thread pools and replays.
#pragma once

#include <cmath>

#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::core {

/// Result of a peer lookup: the best coherent peer copy, if any.
struct PeerCopy {
  /// Recency score of the peer's copy (what the local copy inherits).
  double recency = 0.0;
  /// Inter-station cost per origin unit: a peer transfer of an object of
  /// size S is charged peer_cost(S, cost_factor) units against the
  /// station's download budget. In (0, 1].
  double cost_factor = 1.0;
  bool valid = false;
};

/// Budget cost of copying `size` origin units over the inter-station
/// link. Always at least one unit — a peer copy is cheap, never free.
inline object::Units peer_cost(object::Units size,
                               double cost_factor) noexcept {
  const auto scaled = object::Units(std::ceil(double(size) * cost_factor));
  return scaled > 1 ? scaled : object::Units(1);
}

class PeerSource {
 public:
  virtual ~PeerSource() = default;

  /// Best coherent peer copy of `id` as of `now`; !valid when no peer
  /// holds a serveable copy. Pure query (see determinism contract above).
  virtual PeerCopy lookup(object::ObjectId id, sim::Tick now) const = 0;

  /// Notification that the attached station installed a copy of `id`
  /// (origin or peer fetch) — lets a coherence directory register the
  /// station in the object's sharer set.
  virtual void on_cache_fill(object::ObjectId id, sim::Tick now) = 0;
};

}  // namespace mobi::core
