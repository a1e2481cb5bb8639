#include "client/mobile_client.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::client {

MobileClient::MobileClient(std::uint32_t id, const object::Catalog& catalog,
                           MobileClientConfig config)
    : id_(id),
      config_(config),
      cache_(catalog, cache::make_harmonic_decay(), config.cache_units,
             cache::lru_policy()) {
  if (config.disconnect_rate < 0.0 || config.disconnect_rate > 1.0 ||
      config.reconnect_rate < 0.0 || config.reconnect_rate > 1.0) {
    throw std::invalid_argument("MobileClient: rates must be in [0, 1]");
  }
  if (config.target_recency <= 0.0 || config.target_recency > 1.0) {
    throw std::invalid_argument("MobileClient: target_recency in (0, 1]");
  }
}

void MobileClient::begin_handoff(sim::Tick ticks) {
  if (ticks <= 0) return;
  if (!in_handoff()) ++handoffs_;
  handoff_ticks_left_ = std::max(handoff_ticks_left_, ticks);
  connectivity_ = Connectivity::kDisconnected;
}

bool MobileClient::step_connectivity(util::Rng& rng) {
  if (handoff_ticks_left_ > 0) {
    // Off the air mid-handoff: no disconnect/reconnect draws, so a
    // fault-free run's RNG stream is untouched by this branch.
    if (--handoff_ticks_left_ == 0) {
      connectivity_ = Connectivity::kConnected;
      return true;
    }
    return false;
  }
  if (connectivity_ == Connectivity::kConnected) {
    if (rng.bernoulli(config_.disconnect_rate)) {
      connectivity_ = Connectivity::kDisconnected;
    }
    return false;
  }
  if (rng.bernoulli(config_.reconnect_rate)) {
    connectivity_ = Connectivity::kConnected;
    return true;
  }
  return false;
}

void MobileClient::store(object::ObjectId id, sim::Tick now, double recency) {
  cache_.admit(id, now, recency);
}

int MobileClient::hear_report(const cache::InvalidationReport& report) {
  if (!connected()) {
    throw std::logic_error("MobileClient: disconnected clients hear nothing");
  }
  return listener_.apply(report, cache_);
}

}  // namespace mobi::client
