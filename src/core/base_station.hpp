// BaseStation: the orchestrator tying the whole architecture together
// (paper Figure 1). Per tick it:
//   1. applies server-side updates (decaying affected cache entries),
//   2. asks its DownloadPolicy which requested objects to fetch remotely,
//   3. fetches them over the fixed network (refreshing the cache and
//      accounting bandwidth/latency),
//   4. serves every request — fresh copy if just fetched, cached copy
//      otherwise — computing each client's recency score, and
//   5. pushes response payloads onto the wireless downlink.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "net/downlink.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/tick.hpp"
#include "workload/requests.hpp"
#include "workload/updates.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class FixedHistogram;
class RequestTracer;
class PhaseProfiler;
}  // namespace mobi::obs

namespace mobi::core {

struct BaseStationConfig {
  /// Per-tick download budget in units; negative = unlimited.
  object::Units download_budget = -1;
  /// Wireless downlink (base station -> clients), units per tick.
  object::Units downlink_capacity = 100;
  /// Maximum retry attempts per failed fetch (0 = seed behavior: fail
  /// once, serve stale, never re-enqueue). With retries on, a failed
  /// fetch is re-enqueued with exponential backoff — 1, 2, 4, ... ticks
  /// between attempts — and retried ahead of the policy's own picks,
  /// consuming budget first. After the limit is exhausted the object is
  /// dropped from the retry queue and its requesters are served the
  /// stale cached copy at its naturally decayed score (graceful
  /// degradation rather than a stall).
  std::size_t fetch_retry_limit = 0;
};

/// The fixed network (base station <-> servers). A tick's origin fetches
/// complete together after the latency plus their total units over the
/// bandwidth, so TickResult::fetch_latency grows with the volume
/// downloaded ("as the base station downloads more data over the fixed
/// network, the overall latency may increase due to bandwidth
/// contention", paper §1); an injected congestion fault multiplies it by
/// the plan's slowdown factor.
inline constexpr double kFixedNetLatency = 1.0;      // ticks
inline constexpr double kFixedNetBandwidth = 100.0;  // units per tick

struct TickResult {
  sim::Tick tick = 0;
  std::size_t requests = 0;
  std::size_t objects_downloaded = 0;  // origin fetches
  object::Units units_downloaded = 0;  // origin units (fixed network)
  std::size_t peer_fetches = 0;        // planned downloads served by a peer
  object::Units peer_units = 0;        // discounted inter-station units
  object::Units peer_object_units = 0;  // full size of the peer-fetched copies
  double score_sum = 0.0;          // summed per-client recency scores
  double recency_sum = 0.0;        // summed raw recency of copies served
  double fetch_latency = 0.0;      // fixed-network completion (see above)
  std::size_t failed_fetches = 0;  // injected fixed-network faults
  std::size_t retries = 0;         // retry attempts made this tick
  std::size_t retry_successes = 0;
  std::size_t retry_exhausted = 0;  // objects dropped after the last retry
  std::size_t degraded_serves = 0;  // requests served past a failed fetch
  object::Units downlink_delivered = 0;

  double average_score() const noexcept {
    return requests ? score_sum / double(requests) : 1.0;
  }
};

struct RunTotals {
  std::size_t requests = 0;
  std::size_t objects_downloaded = 0;
  object::Units units_downloaded = 0;
  std::size_t peer_fetches = 0;
  object::Units peer_units = 0;
  double score_sum = 0.0;
  double recency_sum = 0.0;
  std::size_t failed_fetches = 0;
  std::size_t retries = 0;
  std::size_t retry_successes = 0;
  std::size_t retry_exhausted = 0;
  std::size_t degraded_serves = 0;

  void add(const TickResult& r) noexcept {
    requests += r.requests;
    objects_downloaded += r.objects_downloaded;
    units_downloaded += r.units_downloaded;
    peer_fetches += r.peer_fetches;
    peer_units += r.peer_units;
    score_sum += r.score_sum;
    recency_sum += r.recency_sum;
    failed_fetches += r.failed_fetches;
    retries += r.retries;
    retry_successes += r.retry_successes;
    retry_exhausted += r.retry_exhausted;
    degraded_serves += r.degraded_serves;
  }
  double average_score() const noexcept {
    return requests ? score_sum / double(requests) : 1.0;
  }
  double average_recency() const noexcept {
    return requests ? recency_sum / double(requests) : 1.0;
  }
};

class BaseStation {
 public:
  BaseStation(const object::Catalog& catalog, server::ServerPool& servers,
              std::shared_ptr<const cache::DecayModel> decay,
              std::unique_ptr<RecencyScorer> scorer,
              std::unique_ptr<DownloadPolicy> policy,
              const BaseStationConfig& config = {});

  /// Applies one object update at the servers and decays the cache entry.
  void on_server_update(object::ObjectId id, sim::Tick now);

  /// Runs an update process for this tick (steps 1 above).
  void apply_updates(workload::UpdateProcess& updates, sim::Tick now);

  /// Steps 2-5 for one request batch.
  TickResult process_batch(const workload::RequestBatch& batch, sim::Tick now);

  const cache::Cache& cache() const noexcept { return cache_; }
  cache::Cache& cache() noexcept { return cache_; }
  const net::WirelessDownlink& downlink() const noexcept { return downlink_; }
  const DownloadPolicy& policy() const noexcept { return *policy_; }
  const RecencyScorer& scorer() const noexcept { return *scorer_; }
  const RunTotals& totals() const noexcept { return totals_; }

  /// Registers this station's metrics under `prefix` — serve mix
  /// (`<prefix>.requests/.hits/.stale_serves/.fresh_serves`), fetch
  /// accounting (`.fetches/.failed_fetches/.units_downloaded`), per-tick
  /// budget gauges (`.budget_spent/.budget_left`), a per-tick score gauge
  /// (`.tick_score_avg`) and a sim-time fixed-network completion
  /// histogram (`.fetch_latency`) — and
  /// wires the owned cache (`<prefix>.cache.*`) and downlink
  /// (`<prefix>.downlink.*`) into the same registry. Pass nullptr to
  /// detach; the detached hot path costs one branch per tick section.
  /// Wall-clock time per phase comes from set_profiler, not from here.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "bs");

  /// Attaches sim-time request-lifecycle tracing: arrival/hit/degraded/
  /// delivery events in the serve loop, fetch/retry events on the fetch
  /// paths, one fixed-network batch event per tick with an origin fetch,
  /// and (via the owned downlink) downlink events. Each response queued on
  /// the downlink carries its request's sampling decision, so only a
  /// sampled request's delivery is recorded. The tick is stamped once per
  /// batch with RequestTracer::begin_tick, so the downlink needs no extra
  /// tick plumbing. Observation-only, same as set_metrics: a traced run is
  /// bit-identical to an untraced one. nullptr detaches everywhere.
  void set_request_tracer(obs::RequestTracer* tracer) noexcept;

  /// Attaches a phase profiler: the tick sections run under ScopedPhase
  /// spans (`bs.retry` / `bs.select` / `bs.fetch` / `bs.serve` with a
  /// nested `bs.downlink`) carrying deterministic sim costs — retries
  /// attempted, requests selected over, objects fetched, requests
  /// served, downlink units delivered. The profiler is single-threaded;
  /// attach one per driving thread. nullptr (the default) detaches and
  /// costs one branch per section.
  void set_profiler(obs::PhaseProfiler* profiler);

  /// Attaches a fault injector: its per-tick windows are advanced at the
  /// top of process_batch, fetch-failure draws gate every remote fetch,
  /// congestion draws stretch fixed-network completions, and downlink-drop
  /// draws are wired into the owned downlink. The shared ServerPool is
  /// NOT wired here (it may serve several stations) — attach it to the
  /// pool separately with ServerPool::set_fault_injector so outage
  /// windows gate availability. nullptr detaches everything. An idle
  /// injector (empty plan) draws nothing and the tick stream is
  /// bit-identical to the detached path.
  void set_fault_injector(net::FaultInjector* injector);

  /// Attaches a coherent peer-cache view (core/peer_source.hpp): the
  /// policy context gains the peer tier, and the fetch phase resolves
  /// each selected object against the same rule the candidate builder
  /// used — a valid peer copy strictly fresher than the own cached
  /// recency is copied over the inter-station link (discounted units,
  /// immune to fixed-network faults, relayed recency) instead of pulled
  /// from the origin. Every cache fill is reported back through the
  /// source so a coherence directory can track this station as a sharer.
  /// nullptr (the default) detaches and the station behaves exactly as
  /// before the peer tier existed.
  void set_peer_source(PeerSource* peers) noexcept { peers_ = peers; }

  /// Attaches a mobility residency probe (core/residency.hpp): the policy
  /// context's knapsack benefit is scaled per requesting client by the
  /// probability the client is still resident when the fetch lands.
  /// Probes are pure reads (no draws, no mutation), so this only changes
  /// what the policy values — nullptr (the default) is bit-identical to
  /// the residence-blind station.
  void set_residency_probe(const ResidencyProbe* probe) noexcept {
    residency_ = probe;
  }

  /// Objects currently awaiting a backoff retry (tests/diagnostics).
  std::size_t retry_queue_depth() const noexcept { return retry_queue_.size(); }

 private:
  /// True when this fetch attempt must fail: the injector's fetch-failure
  /// draw, then the owning server's outage window. Short-circuits, and a
  /// zero-rate draw consumes no RNG, so an idle injector changes nothing.
  bool fetch_blocked(object::ObjectId id);

  /// Allocates the retry/degraded-serve scratch once (outside the steady
  /// state): failure stamps, the retry-pending dedup bitmap, and a retry
  /// queue reserved to catalog size so in-loop pushes never reallocate.
  void ensure_fault_scratch();

  struct RetryEntry {
    object::ObjectId id;
    sim::Tick next_attempt;
    std::uint32_t attempts;   // failed attempts so far, initial included
    sim::Tick first_failure;  // tick of the initial failed fetch
    sim::Tick last_attempt;   // tick of the most recent attempt
  };

  const object::Catalog* catalog_;
  server::ServerPool* servers_;
  cache::Cache cache_;
  std::unique_ptr<RecencyScorer> scorer_;
  std::unique_ptr<DownloadPolicy> policy_;
  BaseStationConfig config_;
  net::WirelessDownlink downlink_;
  RunTotals totals_;

  // Per-batch scratch retained across ticks (docs/performance.md): the
  // fetch list. serve_epoch_ counts process_batch calls; a per-object
  // stamp equal to it means "this tick", so starting a tick is one
  // counter bump instead of an O(catalog) clear.
  std::vector<object::ObjectId> to_fetch_;
  std::uint64_t serve_epoch_ = 0;

  // Resilience state (allocated lazily by ensure_fault_scratch, only when
  // an injector is attached or retries are enabled — the fault-free
  // steady state never touches it). failed_stamp_[id] == serve_epoch_
  // marks "fetch of id failed this tick" for degraded-serve accounting;
  // retry_pending_ dedups queue entries so the preallocated retry queue
  // is bounded by the catalog.
  PeerSource* peers_ = nullptr;
  const ResidencyProbe* residency_ = nullptr;
  net::FaultInjector* fault_ = nullptr;
  std::vector<RetryEntry> retry_queue_;
  std::vector<std::uint8_t> retry_pending_;
  std::vector<std::uint64_t> failed_stamp_;

  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* stale_serves = nullptr;
    obs::Counter* fresh_serves = nullptr;
    obs::Counter* fetches = nullptr;
    obs::Counter* failed_fetches = nullptr;
    obs::Counter* units_downloaded = nullptr;
    obs::Counter* peer_fetches = nullptr;
    obs::Counter* peer_units = nullptr;
    obs::Counter* fault_retries = nullptr;
    obs::Counter* fault_retry_successes = nullptr;
    obs::Counter* fault_retry_exhausted = nullptr;
    obs::Counter* fault_degraded_serves = nullptr;
    obs::Gauge* fault_retry_queue_depth = nullptr;
    obs::Gauge* budget_spent = nullptr;
    obs::Gauge* budget_left = nullptr;
    obs::Gauge* tick_score_avg = nullptr;
    obs::FixedHistogram* fetch_latency = nullptr;
  };
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::RequestTracer* tracer_ = nullptr;
  Instruments inst_;

  // Phase ids cached at set_profiler so the hot path never touches
  // strings (obs::PhaseProfiler::phase does a name lookup).
  obs::PhaseProfiler* profiler_ = nullptr;
  struct PhaseIds {
    std::uint32_t retry = 0;
    std::uint32_t select = 0;
    std::uint32_t fetch = 0;
    std::uint32_t serve = 0;
    std::uint32_t downlink = 0;
  };
  PhaseIds phase_ids_;
};

}  // namespace mobi::core
