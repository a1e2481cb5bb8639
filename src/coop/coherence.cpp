#include "coop/coherence.hpp"

#include <bit>
#include <stdexcept>

#include "cache/cache.hpp"

namespace mobi::coop {

const char* consistency_mode_name(ConsistencyMode mode) noexcept {
  switch (mode) {
    case ConsistencyMode::kInvalidate: return "invalidate";
    case ConsistencyMode::kPropagate: return "propagate";
    case ConsistencyMode::kLease: return "lease";
  }
  return "?";
}

const char* coherence_state_name(CoherenceState state) noexcept {
  switch (state) {
    case CoherenceState::kInvalid: return "invalid";
    case CoherenceState::kShared: return "shared";
    case CoherenceState::kExclusive: return "exclusive";
    case CoherenceState::kStalePendingRefresh: return "stale-pending-refresh";
  }
  return "?";
}

CoherenceDirectory::CoherenceDirectory(std::size_t object_count,
                                       std::size_t cell_count,
                                       const CoherenceConfig& config)
    : object_count_(object_count), cell_count_(cell_count), config_(config) {
  if (cell_count_ == 0 || cell_count_ > 64) {
    throw std::invalid_argument(
        "CoherenceDirectory: sharer sets are 64-bit masks; need 1..64 cells");
  }
  if (config_.lease_ticks < 1) {
    throw std::invalid_argument("CoherenceDirectory: lease_ticks must be >= 1");
  }
  if (config_.peer_cost_factor <= 0.0 || config_.peer_cost_factor > 1.0) {
    throw std::invalid_argument(
        "CoherenceDirectory: peer_cost_factor must be in (0, 1]");
  }
  sharers_.assign(object_count_, 0);
  states_.assign(cell_count_ * object_count_, CoherenceState::kInvalid);
  lease_expiry_.assign(cell_count_ * object_count_, 0);
}

void CoherenceDirectory::begin_tick(sim::Tick now) {
  if (config_.mode != ConsistencyMode::kLease) return;
  for (std::size_t obj = 0; obj < object_count_; ++obj) {
    std::uint64_t mask = sharers_[obj];
    while (mask) {
      const std::size_t cell = std::size_t(std::countr_zero(mask));
      mask &= mask - 1;
      const auto id = object::ObjectId(obj);
      if (lease_expiry_[index(cell, id)] > now) continue;
      if (listener_) listener_->expire_copy(cell, id);
      states_[index(cell, id)] = CoherenceState::kInvalid;
      sharers_[obj] &= ~(std::uint64_t(1) << cell);
      ++stats_.lease_expiries;
    }
    // A lone survivor of the sweep is the sole cached copy again.
    const std::uint64_t left = sharers_[obj];
    if (left && (left & (left - 1)) == 0) {
      const std::size_t cell = std::size_t(std::countr_zero(left));
      auto& state = states_[index(cell, object::ObjectId(obj))];
      if (state == CoherenceState::kShared) {
        state = CoherenceState::kExclusive;
      }
    }
  }
}

void CoherenceDirectory::on_fill(std::size_t cell, object::ObjectId id,
                                 sim::Tick now) {
  const std::uint64_t bit = std::uint64_t(1) << cell;
  const std::uint64_t others = sharers_[std::size_t(id)] & ~bit;
  if (others == 0) {
    states_[index(cell, id)] = CoherenceState::kExclusive;
  } else {
    // Downgrade the (at most one) Exclusive holder among the others.
    std::uint64_t mask = others;
    while (mask) {
      const std::size_t other = std::size_t(std::countr_zero(mask));
      mask &= mask - 1;
      if (states_[index(other, id)] == CoherenceState::kExclusive) {
        states_[index(other, id)] = CoherenceState::kShared;
      }
    }
    states_[index(cell, id)] = CoherenceState::kShared;
  }
  sharers_[std::size_t(id)] |= bit;
  lease_expiry_[index(cell, id)] = now + config_.lease_ticks;
}

void CoherenceDirectory::on_server_update(object::ObjectId id) {
  std::uint64_t mask = sharers_[std::size_t(id)];
  switch (config_.mode) {
    case ConsistencyMode::kInvalidate:
      while (mask) {
        const std::size_t cell = std::size_t(std::countr_zero(mask));
        mask &= mask - 1;
        if (listener_) listener_->invalidate_copy(cell, id);
        states_[index(cell, id)] = CoherenceState::kInvalid;
        ++stats_.invalidations;
      }
      sharers_[std::size_t(id)] = 0;
      break;
    case ConsistencyMode::kPropagate:
      // Sharer set and states are untouched: every copy is refreshed in
      // place, paying the inter-station push cost per copy.
      while (mask) {
        const std::size_t cell = std::size_t(std::countr_zero(mask));
        mask &= mask - 1;
        if (listener_) listener_->propagate_copy(cell, id);
        ++stats_.propagations;
        stats_.coherence_units += config_.propagate_unit_cost;
      }
      break;
    case ConsistencyMode::kLease:
      // Copies keep serving until their lease runs out; just mark them.
      while (mask) {
        const std::size_t cell = std::size_t(std::countr_zero(mask));
        mask &= mask - 1;
        states_[index(cell, id)] = CoherenceState::kStalePendingRefresh;
      }
      break;
  }
}

std::uint64_t CoherenceDirectory::sharer_mask(object::ObjectId id) const {
  return sharers_[std::size_t(id)];
}

std::size_t CoherenceDirectory::sharer_count(object::ObjectId id) const {
  return std::size_t(std::popcount(sharers_[std::size_t(id)]));
}

CoherenceState CoherenceDirectory::state(std::size_t cell,
                                         object::ObjectId id) const {
  return states_[index(cell, id)];
}

sim::Tick CoherenceDirectory::lease_expiry(std::size_t cell,
                                           object::ObjectId id) const {
  return lease_expiry_[index(cell, id)];
}

bool CoherenceDirectory::serveable(std::size_t cell, object::ObjectId id,
                                   sim::Tick now) const {
  const CoherenceState s = states_[index(cell, id)];
  if (s == CoherenceState::kInvalid) return false;
  if (config_.mode == ConsistencyMode::kLease) {
    return lease_expiry_[index(cell, id)] > now;
  }
  return true;
}

PeerCacheView::PeerCacheView(CoherenceDirectory& directory,
                             std::size_t own_cell, double min_recency)
    : directory_(&directory),
      own_cell_(own_cell),
      min_recency_(min_recency),
      caches_(directory.cell_count(), nullptr) {}

void PeerCacheView::set_cell_cache(std::size_t cell,
                                   const cache::Cache* cache) {
  caches_.at(cell) = cache;
}

core::PeerCopy PeerCacheView::lookup(object::ObjectId id,
                                     sim::Tick now) const {
  core::PeerCopy best;
  std::uint64_t mask =
      directory_->sharer_mask(id) & ~(std::uint64_t(1) << own_cell_);
  while (mask) {
    const std::size_t cell = std::size_t(std::countr_zero(mask));
    mask &= mask - 1;
    if (!directory_->serveable(cell, id, now)) continue;
    // Strict > keeps the lowest-cell winner on ties — deterministic and
    // independent of anything but directory + cache state.
    const double recency = caches_[cell]->recency_or_zero(id);
    if (recency > best.recency) best.recency = recency;
  }
  best.cost_factor = directory_->config().peer_cost_factor;
  best.valid = best.recency >= min_recency_ && best.recency > 0.0;
  return best;
}

void PeerCacheView::on_cache_fill(object::ObjectId id, sim::Tick now) {
  directory_->on_fill(own_cell_, id, now);
}

}  // namespace mobi::coop
