#include "core/base_station.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mobi::core {

BaseStation::BaseStation(const object::Catalog& catalog,
                         server::ServerPool& servers,
                         std::shared_ptr<const cache::DecayModel> decay,
                         std::unique_ptr<RecencyScorer> scorer,
                         std::unique_ptr<DownloadPolicy> policy,
                         const BaseStationConfig& config)
    : catalog_(&catalog),
      servers_(&servers),
      cache_(catalog.size(), std::move(decay)),
      scorer_(std::move(scorer)),
      policy_(std::move(policy)),
      config_(config),
      network_(/*bandwidth=*/100.0, /*latency=*/1.0, /*contention=*/1.0),
      downlink_(config.downlink_capacity) {
  if (!scorer_) throw std::invalid_argument("BaseStation: null scorer");
  if (!policy_) throw std::invalid_argument("BaseStation: null policy");
  if (config.fetch_retry_limit > 0) ensure_fault_scratch();
}

void BaseStation::set_request_tracer(obs::RequestTracer* tracer) noexcept {
  tracer_ = tracer;
  network_.set_tracer(tracer);
  downlink_.set_tracer(tracer);
}

void BaseStation::set_fault_injector(net::FaultInjector* injector) {
  fault_ = injector;
  network_.set_fault_injector(injector);
  downlink_.set_fault_injector(injector);
  // An idle injector (empty plan) must be observably absent, so it gets
  // no fault scratch.
  if (injector && !injector->idle()) ensure_fault_scratch();
}

void BaseStation::ensure_fault_scratch() {
  if (!failed_stamp_.empty()) return;
  failed_stamp_.assign(catalog_->size(), 0);  // stamp 0 = never failed
  retry_pending_.assign(catalog_->size(), 0);
  retry_queue_.reserve(catalog_->size());
  // Hard per-tick bound: at most one retry success plus one policy fetch
  // per catalog object. Without faults the warm-up high-water suffices;
  // with them, fault timing must never force a mid-run reallocation.
  transfer_sizes_.reserve(2 * catalog_->size());
}

bool BaseStation::fetch_blocked(object::ObjectId id) {
  return fault_ && (fault_->draw_fetch_failure() || !servers_->available(id));
}

void BaseStation::on_server_update(object::ObjectId id, sim::Tick now) {
  servers_->apply_update(id, now);
  cache_.on_server_update(id);
}

void BaseStation::apply_updates(workload::UpdateProcess& updates,
                                sim::Tick now) {
  updates.for_each_updated(
      now, [&](object::ObjectId id) { on_server_update(id, now); });
}

TickResult BaseStation::process_batch(const workload::RequestBatch& batch,
                                      sim::Tick now) {
  TickResult result;
  result.tick = now;
  result.requests = batch.size();

  // The serve epoch stamps "fetch failed this tick" (degraded-serve
  // accounting), so bump it before the retry and fetch phases can stamp.
  ++serve_epoch_;
  if (fault_) fault_->begin_tick(now);
  if (tracer_) tracer_->begin_tick(now);

  // Budget left after the retry phase; the policy selects within it.
  object::Units budget_left = config_.download_budget;
  transfer_sizes_.clear();
  const bool fault_scratch = !failed_stamp_.empty();

  // Retry phase: previously failed fetches whose backoff expired go
  // first, ahead of the policy's own picks — a refresh the station
  // already promised outranks new speculation. In-place compaction keeps
  // the surviving entries in insertion order without allocating.
  if (!retry_queue_.empty()) {
    obs::ScopedPhase phase(profiler_, phase_ids_.retry);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < retry_queue_.size(); ++i) {
      RetryEntry entry = retry_queue_[i];
      if (entry.next_attempt > now) {
        retry_queue_[keep++] = entry;
        continue;
      }
      const object::Units size = catalog_->object_size(entry.id);
      if (budget_left >= 0 && size > budget_left) {
        // Not affordable this tick: keep waiting, no attempt consumed.
        retry_queue_[keep++] = entry;
        continue;
      }
      ++result.retries;
      if (tracer_) {
        tracer_->on_retry_attempt(entry.id, entry.attempts,
                                  now - entry.last_attempt);
      }
      if (fetch_blocked(entry.id)) {
        ++result.failed_fetches;
        failed_stamp_[entry.id] = serve_epoch_;
        ++entry.attempts;
        if (tracer_) tracer_->on_fetch_failed(entry.id, entry.attempts);
        if (entry.attempts - 1 >= config_.fetch_retry_limit) {
          // Out of retries: drop the entry; requesters get the stale
          // cached copy at its decayed score from here on.
          ++result.retry_exhausted;
          retry_pending_[entry.id] = 0;
          if (tracer_) tracer_->on_retry_drop(entry.id, entry.attempts);
        } else {
          entry.next_attempt =
              now + (sim::Tick(1)
                     << std::min<std::uint32_t>(entry.attempts - 1, 10));
          entry.last_attempt = now;
          retry_queue_[keep++] = entry;
        }
        continue;
      }
      const server::FetchResult fetched = servers_->fetch(entry.id);
      cache_.refresh(entry.id, fetched, now);
      if (peers_) peers_->on_cache_fill(entry.id, now);
      transfer_sizes_.push_back(fetched.size);
      result.units_downloaded += fetched.size;
      ++result.objects_downloaded;
      ++result.retry_successes;
      if (budget_left >= 0) budget_left -= fetched.size;
      retry_pending_[entry.id] = 0;
      if (tracer_) tracer_->on_fetch_done(entry.id, now - entry.first_failure);
    }
    retry_queue_.resize(keep);
    phase.add_cost(result.retries);
  }

  PolicyContext ctx;
  ctx.catalog = catalog_;
  ctx.cache = &cache_;
  ctx.servers = servers_;
  ctx.scorer = scorer_.get();
  ctx.peers = peers_;
  ctx.residency = residency_;
  ctx.now = now;
  ctx.budget = budget_left;
  {
    obs::ScopedPhase phase(profiler_, phase_ids_.select);
    phase.add_cost(batch.size());
    policy_->select_into(batch, ctx, to_fetch_);
  }

  // Fetch the selected objects over the fixed network. Retry successes
  // recorded above share the same batch, so one congestion draw covers
  // the whole tick's traffic.
  {
    obs::ScopedPhase phase(profiler_, phase_ids_.fetch);
    phase.add_cost(to_fetch_.size());
    for (object::ObjectId id : to_fetch_) {
      if (tracer_) tracer_->on_fetch_selected(id);
      if (peers_) {
        // Re-derive the tier with the candidate builder's exact rule (a
        // valid peer copy strictly fresher than the own cache): neither
        // this station's entry for `id` nor the peer state changed since
        // select, so the decision matches what the knapsack priced. A
        // peer copy rides the inter-station link — no fixed-network
        // transfer, no fault draw — and lands at the relayed recency
        // (recency, not the version counter, is what policies consult).
        const PeerCopy pc = peers_->lookup(id, now);
        if (pc.valid && pc.recency > cache_.recency_or_zero(id)) {
          const server::FetchResult fetched = servers_->fetch(id);
          cache_.refresh(id, fetched, now, pc.recency);
          peers_->on_cache_fill(id, now);
          const object::Units cost = peer_cost(fetched.size, pc.cost_factor);
          result.peer_units += cost;
          result.peer_object_units += fetched.size;
          ++result.peer_fetches;
          if (tracer_) tracer_->on_fetch_done(id, 0);
          continue;
        }
      }
      if (fetch_blocked(id)) {
        ++result.failed_fetches;  // fault: no transfer, cache untouched
        if (tracer_) tracer_->on_fetch_failed(id, 1);
        if (fault_scratch) {
          failed_stamp_[id] = serve_epoch_;
          if (config_.fetch_retry_limit > 0 && !retry_pending_[id]) {
            retry_pending_[id] = 1;
            retry_queue_.push_back(RetryEntry{id, now + 1, 1, now, now});
          }
        }
        continue;
      }
      const server::FetchResult fetched = servers_->fetch(id);
      cache_.refresh(id, fetched, now);
      if (peers_) peers_->on_cache_fill(id, now);
      transfer_sizes_.push_back(fetched.size);
      result.units_downloaded += fetched.size;
      ++result.objects_downloaded;
      if (tracer_) tracer_->on_fetch_done(id, 0);
    }
    if (!transfer_sizes_.empty()) {
      result.fetch_latency = network_.record_batch_completion(transfer_sizes_);
    }
  }
  if (metrics_) {
    inst_.fetches->add(result.objects_downloaded);
    inst_.failed_fetches->add(result.failed_fetches);
    if (result.retries) inst_.fault_retries->add(result.retries);
    if (result.retry_successes) {
      inst_.fault_retry_successes->add(result.retry_successes);
    }
    if (result.retry_exhausted) {
      inst_.fault_retry_exhausted->add(result.retry_exhausted);
    }
    inst_.fault_retry_queue_depth->set(double(retry_queue_.size()));
    inst_.units_downloaded->add(std::uint64_t(result.units_downloaded));
    if (result.peer_fetches) inst_.peer_fetches->add(result.peer_fetches);
    if (result.peer_units) {
      inst_.peer_units->add(std::uint64_t(result.peer_units));
    }
    // Peer units count against the same budget the knapsack spent from.
    const object::Units spent = result.units_downloaded + result.peer_units;
    inst_.budget_spent->set(double(spent));
    inst_.budget_left->set(config_.download_budget < 0
                               ? -1.0
                               : double(config_.download_budget - spent));
    if (!transfer_sizes_.empty()) {
      inst_.fetch_latency->observe(result.fetch_latency);
    }
  }

  // Serve every request from the (now partially refreshed) cache and push
  // each cached copy's payload onto the downlink. One cache read per
  // request gives both the copy's recency and whether there is one.
  {
    obs::ScopedPhase phase(profiler_, phase_ids_.serve);
    phase.add_cost(batch.size());
    for (const workload::Request& request : batch) {
      const std::optional<double> copy = cache_.record_read(request.object);
      const bool cached = copy.has_value();
      const double x = copy.value_or(0.0);
      result.recency_sum += x;
      const double score = scorer_->score(x, request.target_recency);
      result.score_sum += score;
      const bool degraded =
          fault_scratch && failed_stamp_[request.object] == serve_epoch_;
      if (degraded) {
        // The refresh this request wanted failed this tick: it is served
        // whatever decayed copy the cache holds (or a miss) — count it
        // as a degraded serve. The score above already reflects the
        // decay; degradation is graceful, not special-cased.
        ++result.degraded_serves;
        if (metrics_) inst_.fault_degraded_serves->add();
      }
      bool sampled = false;
      if (tracer_) {
        sampled = tracer_->on_arrival(request.object, request.client);
        tracer_->on_serve(sampled, request.object, request.client, cached,
                          degraded, x, request.target_recency, score);
      }
      if (metrics_) {
        if (cached) {
          inst_.hits->add();
          if (cache_.is_stale(request.object,
                              servers_->version(request.object))) {
            inst_.stale_serves->add();
          } else {
            inst_.fresh_serves->add();
          }
        } else {
          inst_.misses->add();
        }
      }
      if (cached) {
        // The chunk carries its requester for the tracer.
        downlink_.enqueue(catalog_->object_size(request.object),
                          {request.object, request.client, sampled});
      }
    }
    {
      obs::ScopedPhase downlink_phase(profiler_, phase_ids_.downlink);
      result.downlink_delivered = downlink_.tick();
      downlink_phase.add_cost(std::uint64_t(result.downlink_delivered));
    }
  }
  if (metrics_) {
    inst_.requests->add(result.requests);
    inst_.tick_score_avg->set(result.average_score());
  }

  totals_.add(result);
  return result;
}

void BaseStation::set_profiler(obs::PhaseProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    phase_ids_.retry = profiler_->phase("bs.retry");
    phase_ids_.select = profiler_->phase("bs.select");
    phase_ids_.fetch = profiler_->phase("bs.fetch");
    phase_ids_.serve = profiler_->phase("bs.serve");
    phase_ids_.downlink = profiler_->phase("bs.downlink");
  }
}

void BaseStation::set_metrics(obs::MetricsRegistry* registry,
                              const std::string& prefix) {
  metrics_ = registry;
  inst_ = {};
  cache_.set_metrics(registry, prefix + ".cache");
  downlink_.set_metrics(registry, prefix + ".downlink");
  if (!registry) return;
  inst_.requests = &registry->register_counter(prefix + ".requests");
  inst_.hits = &registry->register_counter(prefix + ".hits");
  inst_.misses = &registry->register_counter(prefix + ".misses");
  inst_.stale_serves = &registry->register_counter(prefix + ".stale_serves");
  inst_.fresh_serves = &registry->register_counter(prefix + ".fresh_serves");
  inst_.fetches = &registry->register_counter(prefix + ".fetches");
  inst_.failed_fetches =
      &registry->register_counter(prefix + ".failed_fetches");
  inst_.units_downloaded =
      &registry->register_counter(prefix + ".units_downloaded");
  inst_.peer_fetches = &registry->register_counter(prefix + ".peer_fetches");
  inst_.peer_units = &registry->register_counter(prefix + ".peer_units");
  inst_.fault_retries = &registry->register_counter(prefix + ".fault.retries");
  inst_.fault_retry_successes =
      &registry->register_counter(prefix + ".fault.retry_successes");
  inst_.fault_retry_exhausted =
      &registry->register_counter(prefix + ".fault.retry_exhausted");
  inst_.fault_degraded_serves =
      &registry->register_counter(prefix + ".fault.degraded_serves");
  inst_.fault_retry_queue_depth =
      &registry->register_gauge(prefix + ".fault.retry_queue_depth");
  inst_.budget_spent = &registry->register_gauge(prefix + ".budget_spent");
  inst_.budget_left = &registry->register_gauge(prefix + ".budget_left");
  inst_.tick_score_avg =
      &registry->register_gauge(prefix + ".tick_score_avg");
  inst_.fetch_latency =
      &registry->register_histogram(prefix + ".fetch_latency", 0.0, 100.0, 50);
}

}  // namespace mobi::core
