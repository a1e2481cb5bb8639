// Remote (fixed-network) servers holding object master copies.
//
// The model is pull-based: servers never push; they answer fetches with
// the current version of an object. Versions are monotone counters bumped
// by the update process; "recency" comparisons elsewhere reduce to version
// comparisons plus update timestamps.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
}  // namespace mobi::obs

namespace mobi::net {
class FaultInjector;
}  // namespace mobi::net

namespace mobi::server {

using Version = std::uint64_t;

/// Throws std::out_of_range(`what`): the cold half of every id check, kept
/// out of line so the inline reads stay small.
[[noreturn]] void throw_bad_id(const char* what);

/// What a fetch returns: the object's current version and when that
/// version was installed.
struct FetchResult {
  Version version = 0;
  sim::Tick updated_at = 0;
  object::Units size = 0;
};

class RemoteServer {
 public:
  explicit RemoteServer(const object::Catalog& catalog);

  std::size_t object_count() const noexcept { return versions_.size(); }

  /// Installs a new version of `id` at time `tick`.
  void apply_update(object::ObjectId id, sim::Tick tick);

  Version version(object::ObjectId id) const {
    check(id);
    return versions_[id];
  }
  sim::Tick updated_at(object::ObjectId id) const;
  std::uint64_t total_updates() const noexcept { return total_updates_; }

  /// Pull the current copy of an object. Pure read; transfer cost is
  /// modeled by mobi::net, not here.
  FetchResult fetch(object::ObjectId id) const;

 private:
  void check(object::ObjectId id) const {
    if (id >= versions_.size()) throw_bad_id("RemoteServer: bad id");
  }

  const object::Catalog* catalog_;
  std::vector<Version> versions_;
  std::vector<sim::Tick> updated_at_;
  std::uint64_t total_updates_ = 0;
};

/// A set of servers with objects assigned round-robin; lets examples model
/// several origins behind one base station.
class ServerPool {
 public:
  ServerPool(const object::Catalog& catalog, std::size_t server_count);

  std::size_t server_count() const noexcept { return servers_.size(); }
  std::size_t object_count() const noexcept { return object_count_; }
  std::size_t server_for(object::ObjectId id) const {
    if (id >= object_count_) throw_bad_id("ServerPool: bad id");
    return id % servers_.size();
  }

  RemoteServer& server(std::size_t index) { return servers_.at(index); }
  const RemoteServer& server(std::size_t index) const {
    return servers_.at(index);
  }

  /// Routes to the owning server.
  void apply_update(object::ObjectId id, sim::Tick tick);
  FetchResult fetch(object::ObjectId id) const;
  /// Inline: the serve loop and every invalidation cut read one version
  /// per object.
  Version version(object::ObjectId id) const {
    return servers_[server_for(id)].version(id);
  }
  sim::Tick updated_at(object::ObjectId id) const;

  /// Registers fetch/update counters under `prefix` and keeps them
  /// updated; nullptr detaches. Counting a fetch mutates only the
  /// registry, so the pool itself stays logically const.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "servers");

  /// Attaches a fault injector whose per-server outage windows gate
  /// available(); nullptr (the default) detaches and every server is
  /// reachable. The injector should have been built with this pool's
  /// server_count() so outage windows cover every server.
  void set_fault_injector(net::FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// True when the server owning `id` is reachable this tick. Without an
  /// injector this is always true; with one, it reflects the injector's
  /// outage windows as of its last begin_tick().
  bool available(object::ObjectId id) const;

 private:
  std::vector<RemoteServer> servers_;
  std::size_t object_count_;
  net::FaultInjector* fault_ = nullptr;

  struct Instruments {
    obs::Counter* fetches = nullptr;
    obs::Counter* updates = nullptr;
  };
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments inst_;
};

}  // namespace mobi::server
