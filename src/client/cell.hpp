// Two-tier cell simulation: mobile clients with local caches in front of
// a base station running a download policy, with periodic invalidation
// reports broadcast to the clients over the downlink.
//
// One engine runs the tick for every caller: client::run_cell steps a
// CellEngine over a fixed roster, exp::MobilityFleet steps one engine per
// cell over a shared client vector, and its handoff barrier queues roster
// moves in an inbox each engine applies at the top of its next tick. Per
// tick (CellEngine::tick):
//   1. every report_period ticks a report is cut from the servers'
//      version counters, covering the window since the last cut, and
//      broadcast; connected clients apply it (the sleeper rule drops the
//      local cache of clients that slept through a window);
//   2. servers update, after the cut, so an update at a report tick goes
//      into the next report; the base-station cache decays at once (it is
//      co-located with the servers, so its knowledge is current);
//   3. payloads sent delivery_ticks ago land (delivery_ticks > 0 only);
//   4. each resident client may start a fault handoff, steps its
//      connectivity and, when connected, draws a request; if its local
//      copy meets its target recency it is served locally, otherwise the
//      request goes to the base station, which answers per its
//      DownloadPolicy;
//   5. clients store the responses (inheriting the served copy's
//      recency), at once or delivery_ticks later.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/invalidation.hpp"
#include "client/mobile_client.hpp"
#include "core/base_station.hpp"
#include "exp/fig2.hpp"
#include "net/fault_injector.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/fault_plan.hpp"
#include "sim/tick.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace mobi::obs {
class RequestTracer;
}  // namespace mobi::obs

namespace mobi::client {

struct CellConfig {
  std::size_t object_count = 200;
  object::Units size_lo = 1;
  object::Units size_hi = 8;
  std::size_t client_count = 50;
  MobileClientConfig client;
  exp::AccessPattern access = exp::AccessPattern::kZipf;
  double zipf_alpha = 1.0;
  sim::Tick update_period = 4;
  sim::Tick report_period = 5;
  sim::Tick ticks = 300;
  object::Units base_budget = 60;
  std::string base_policy = "on-demand-knapsack";
  std::uint64_t seed = 42;
  /// Servers behind the fixed network (objects assigned round-robin);
  /// > 1 makes per-server outage faults partial rather than total.
  std::size_t server_count = 1;
  /// Retry budget handed to the base station (0 = fail once, serve
  /// stale; see BaseStationConfig::fetch_retry_limit).
  std::size_t fetch_retry_limit = 0;
  /// Fault schedule. The default (empty) plan attaches no injector and
  /// the run is bit-identical to the fault-free code path. A nonzero
  /// plan is reseeded per cell (mixing faults.seed with `seed`), so
  /// multi-cell shards stay deterministic for any thread-pool size.
  sim::FaultPlan faults;
};

struct CellResult {
  std::size_t requests = 0;
  std::size_t served_locally = 0;     // from the client's own cache
  std::size_t served_by_base = 0;
  double score_sum = 0.0;             // true per-client recency scores
  object::Units base_downloaded = 0;  // fixed-network traffic
  std::uint64_t sleeper_drops = 0;
  std::uint64_t disconnect_ticks = 0;  // client-ticks spent disconnected
  // Resilience accounting (all zero when CellConfig::faults is empty).
  std::uint64_t failed_fetches = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_successes = 0;
  std::uint64_t degraded_serves = 0;
  std::uint64_t handoffs = 0;
  object::Units downlink_dropped = 0;

  double average_score() const noexcept {
    return requests ? score_sum / double(requests) : 1.0;
  }
  double local_hit_rate() const noexcept {
    return requests ? double(served_locally) / double(requests) : 0.0;
  }
};

/// Per-tick cumulative CellResult snapshots, one per tick. Callers that
/// run cells on worker threads reserve() each series to its final size
/// before dispatch, so the workers never grow it.
using CellSeries = std::vector<CellResult>;

/// One base station and the clients resident in its cell, stepped one
/// tick at a time. The catalog, access distribution and client vector
/// belong to the caller and must outlive the engine. Engines over one
/// client vector share one `credited` vector, so a client's counters are
/// credited exactly once however it moves. Not copyable or movable: the
/// station holds references into the engine.
class CellEngine {
 public:
  /// Sleeper-drop and handoff counts last credited to a cell, per client.
  struct Credit {
    std::uint64_t sleeper_drops = 0;
    std::uint64_t handoffs = 0;
  };

  /// One roster change a handoff barrier queues for a cell: `client`
  /// joins (admit) or leaves (!admit) it.
  struct RosterMove {
    std::uint32_t client = 0;
    bool admit = false;
  };

  /// `config.client_count` sizes the downlink and `config.seed` reseeds
  /// the fault plan; `root` is the cell's root stream, which spawns the
  /// connectivity stream and then the request stream. Payloads land
  /// `delivery_ticks` after the station serves them (0 = instantly).
  /// Throws std::invalid_argument on report_period <= 0 or
  /// delivery_ticks < 0.
  CellEngine(const CellConfig& config, const object::Catalog& catalog,
             const workload::AccessDistribution& access,
             std::vector<MobileClient>& clients, std::vector<Credit>& credited,
             std::vector<std::uint32_t> roster, util::Rng root,
             sim::Tick delivery_ticks = 0);
  CellEngine(const CellEngine&) = delete;
  CellEngine& operator=(const CellEngine&) = delete;

  /// Attaches request-lifecycle tracing to the station (and through it
  /// the downlink and fixed network). The caller owns the tracer; tracing
  /// is read-only observation, so results stay bit-identical.
  void set_tracer(obs::RequestTracer* tracer);
  obs::RequestTracer* tracer() const noexcept { return tracer_; }
  /// Appends one cumulative CellResult snapshot per tick (nullptr
  /// detaches). Read-only observation.
  void attach_series(CellSeries* series) noexcept { series_ = series; }
  /// Attaches the inbox a handoff barrier fills with this cell's roster
  /// moves between ticks (nullptr detaches). The caller owns it; the
  /// engine applies its moves in order and clears it at the top of
  /// tick(), in settle() and in roster(), so the caller must not touch
  /// it while one of those runs. Applying a release of a client that is
  /// not resident throws std::logic_error.
  void attach_inbox(std::vector<RosterMove>* inbox) noexcept {
    inbox_ = inbox;
  }
  core::BaseStation& station() noexcept { return station_; }

  void tick(sim::Tick t);

  /// Applies the inbox, then credits the resident clients' counter
  /// increments since their last credit (handoffs granted after the last
  /// tick's client loop).
  void settle();

  /// Sorted ids of the resident clients, inbox applied first.
  const std::vector<std::uint32_t>& roster();
  const CellResult& result() const noexcept { return result_; }
  std::uint64_t delivered_payloads() const noexcept { return delivered_; }
  std::uint64_t lost_deliveries() const noexcept { return lost_; }

 private:
  /// One serve in flight on the downlink: decided at some tick, landing
  /// at `land`. `recency` is frozen at send time (the payload's content
  /// does not change mid-flight).
  struct Delivery {
    std::uint32_t client = 0;
    object::ObjectId object = 0;
    double recency = 1.0;
    sim::Tick land = 0;
  };

  void apply_inbox();
  void credit(std::uint32_t client);
  void land_deliveries(sim::Tick t);

  const workload::AccessDistribution& access_;
  std::vector<MobileClient>& clients_;
  std::vector<Credit>& credited_;
  sim::Tick report_period_;
  sim::Tick handoff_ticks_;
  sim::Tick delivery_ticks_;
  server::ServerPool servers_;
  core::BaseStation station_;
  std::optional<net::FaultInjector> injector_;
  cache::InvalidationReporter reporter_;
  std::unique_ptr<workload::UpdateProcess> updates_;
  util::Rng connectivity_rng_;
  util::Rng request_rng_;
  core::ReciprocalScorer landing_scorer_;
  std::vector<std::uint32_t> roster_;
  CellResult result_;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  // Reused per-tick scratch, reserved to the whole client population.
  workload::RequestBatch batch_;
  std::vector<std::uint32_t> requester_;  // client id per batch entry
  std::vector<Delivery> in_flight_;       // kept compact, enqueue order
  cache::InvalidationReport report_;      // one count per catalog object
  obs::RequestTracer* tracer_ = nullptr;
  CellSeries* series_ = nullptr;
  std::vector<RosterMove>* inbox_ = nullptr;
};

/// Runs one cell for config.ticks ticks over clients [0, client_count).
/// `per_tick` (may be nullptr) receives one cumulative snapshot per tick,
/// so per_tick->back() equals the return value; `tracer` (may be
/// nullptr) traces the station for the whole run. Both are read-only
/// observation: results are bit-identical with or without them.
CellResult run_cell(const CellConfig& config, CellSeries* per_tick = nullptr,
                    obs::RequestTracer* tracer = nullptr);

}  // namespace mobi::client
