#include "client/cell.hpp"

#include <algorithm>
#include <stdexcept>

#include "cache/decay.hpp"
#include "object/builders.hpp"

namespace mobi::client {

namespace {

core::BaseStationConfig station_config(const CellConfig& config) {
  core::BaseStationConfig bs_config;
  bs_config.download_budget = config.base_budget;
  bs_config.downlink_capacity = std::max<object::Units>(
      1, object::Units(config.client_count) * config.size_hi);
  bs_config.fetch_retry_limit = config.fetch_retry_limit;
  return bs_config;
}

}  // namespace

CellEngine::CellEngine(const CellConfig& config,
                       const object::Catalog& catalog,
                       const workload::AccessDistribution& access,
                       std::vector<MobileClient>& clients,
                       std::vector<Credit>& credited,
                       std::vector<std::uint32_t> roster, util::Rng root,
                       sim::Tick delivery_ticks)
    : access_(access),
      clients_(clients),
      credited_(credited),
      report_period_(config.report_period),
      handoff_ticks_(config.faults.handoff_ticks),
      delivery_ticks_(delivery_ticks),
      servers_(catalog, config.server_count),
      station_(catalog, servers_, cache::make_harmonic_decay(),
               std::make_unique<core::ReciprocalScorer>(),
               core::make_policy(config.base_policy), station_config(config)),
      reporter_(servers_),
      updates_(workload::make_periodic_staggered(config.object_count,
                                                 config.update_period)),
      connectivity_rng_(root.split()),
      request_rng_(root.split()),
      roster_(std::move(roster)) {
  if (report_period_ <= 0) {
    throw std::invalid_argument("CellEngine: report_period must be > 0");
  }
  if (delivery_ticks_ < 0) {
    throw std::invalid_argument("CellEngine: negative delivery latency");
  }
  // Nonzero fault plan: one injector per cell, reseeded from the cell's
  // own seed so every cell's fault stream is independent of how cells
  // are distributed over worker threads. An empty plan attaches nothing
  // — the run is the fault-free code path, bit for bit.
  if (!config.faults.empty()) {
    sim::FaultPlan plan = config.faults;
    plan.seed = util::SplitMix64(plan.seed ^ config.seed).next();
    injector_.emplace(plan, servers_.server_count());
    station_.set_fault_injector(&*injector_);
    servers_.set_fault_injector(&*injector_);
  }
  const std::size_t population = clients_.size();
  roster_.reserve(population);
  batch_.reserve(population);
  requester_.reserve(population);
  in_flight_.reserve(population * std::size_t(delivery_ticks_ + 1));
  report_.updates.resize(catalog.size());
}

void CellEngine::set_tracer(obs::RequestTracer* tracer) {
  tracer_ = tracer;
  station_.set_request_tracer(tracer);
}

void CellEngine::tick(sim::Tick t) {
  // Handoffs granted since the last tick move ids first, so every step
  // below sees the roster the barrier left.
  apply_inbox();

  // Open this tick's fault windows (idempotent — process_batch would do
  // it too, but the handoff draws below need the tick open).
  if (injector_) injector_->begin_tick(t);

  // 1. Periodic invalidation report to connected clients, cut before
  //    this tick's updates: the window [t - report_period, t) excludes t.
  if (t > 0 && t % report_period_ == 0) {
    reporter_.cut(t, report_);
    for (std::uint32_t id : roster_) {
      MobileClient& mobile = clients_[id];
      if (mobile.connected()) mobile.hear_report(report_);
    }
  }

  // 2. Server updates: base-station knowledge is immediate; clients must
  //    wait for the next report.
  station_.apply_updates(*updates_, t);

  // 3. Payloads land before clients act, so a copy that arrives this
  //    tick can serve this tick's request locally.
  if (delivery_ticks_ > 0) land_deliveries(t);

  // 4. Client activity.
  batch_.clear();
  requester_.clear();
  for (std::uint32_t id : roster_) {
    MobileClient& mobile = clients_[id];
    if (injector_ && mobile.connected() && injector_->draw_handoff()) {
      mobile.begin_handoff(handoff_ticks_);
    }
    credit(id);
    mobile.step_connectivity(connectivity_rng_);
    if (!mobile.connected()) {
      ++result_.disconnect_ticks;
      continue;
    }
    const object::ObjectId want = access_.sample(request_rng_);
    ++result_.requests;
    const auto local = mobile.lookup(want, t);
    if (local && *local >= mobile.target_recency()) {
      ++result_.served_locally;
      result_.score_sum += 1.0;  // local copy meets the client's target
      continue;
    }
    batch_.push_back(workload::Request{want, mobile.target_recency(),
                                       workload::ClientId(mobile.id())});
    requester_.push_back(id);
  }

  const auto tick_result = station_.process_batch(batch_, t);
  result_.base_downloaded += tick_result.units_downloaded;
  result_.served_by_base += batch_.size();
  // With delivery latency, base-path serve scores are credited when the
  // payload lands on the client, not when the station decides — a serve
  // the client never receives scores nothing.
  const bool instant = delivery_ticks_ == 0;
  if (instant) result_.score_sum += tick_result.score_sum;
  result_.failed_fetches += tick_result.failed_fetches;
  result_.retries += tick_result.retries;
  result_.retry_successes += tick_result.retry_successes;
  result_.degraded_serves += tick_result.degraded_serves;

  // 5. Clients store what the base station served them, inheriting the
  //    served copy's recency.
  for (std::size_t r = 0; r < batch_.size(); ++r) {
    const auto& request = batch_[r];
    const auto recency = station_.cache().recency(request.object);
    if (!recency) continue;  // base had nothing either (cache-only policy)
    if (instant) {
      clients_[requester_[r]].store(request.object, t, *recency);
    } else {
      in_flight_.push_back(Delivery{requester_[r], request.object, *recency,
                                    t + delivery_ticks_});
    }
  }

  result_.downlink_dropped = station_.downlink().dropped_total();
  if (series_) series_->push_back(result_);
}

void CellEngine::credit(std::uint32_t client) {
  // Counters travel with the client; crediting the increment since its
  // last credit to the cell it is resident in keeps every cell's
  // cumulative series monotone across migrations.
  const MobileClient& mobile = clients_[client];
  Credit& seen = credited_[client];
  result_.sleeper_drops += mobile.sleeper_drops() - seen.sleeper_drops;
  result_.handoffs += mobile.handoff_count() - seen.handoffs;
  seen = {mobile.sleeper_drops(), mobile.handoff_count()};
}

void CellEngine::settle() {
  apply_inbox();
  for (std::uint32_t id : roster_) credit(id);
}

const std::vector<std::uint32_t>& CellEngine::roster() {
  apply_inbox();
  return roster_;
}

void CellEngine::land_deliveries(sim::Tick t) {
  std::size_t keep = 0;
  for (const Delivery& delivery : in_flight_) {
    if (delivery.land > t) {
      in_flight_[keep++] = delivery;
      continue;
    }
    // The payload lands only if its client is still in this cell and on
    // the air; a migrant or sleeper simply loses it — the units were
    // spent either way, which is exactly the waste the residency-
    // weighted knapsack trades against.
    MobileClient& mobile = clients_[delivery.client];
    if (!std::binary_search(roster_.begin(), roster_.end(), delivery.client) ||
        !mobile.connected()) {
      ++lost_;
      continue;
    }
    mobile.store(delivery.object, t, delivery.recency);
    result_.score_sum +=
        landing_scorer_.score(delivery.recency, mobile.target_recency());
    ++delivered_;
  }
  in_flight_.resize(keep);
}

void CellEngine::apply_inbox() {
  if (inbox_ == nullptr || inbox_->empty()) return;
  // In post order: a client hopping A -> B -> A in one tick is released
  // by A before A admits it again.
  for (const RosterMove& move : *inbox_) {
    const auto it =
        std::lower_bound(roster_.begin(), roster_.end(), move.client);
    if (move.admit) {
      roster_.insert(it, move.client);
      continue;
    }
    if (it == roster_.end() || *it != move.client) {
      throw std::logic_error("CellEngine: released client not resident");
    }
    roster_.erase(it);
  }
  inbox_->clear();
}

CellResult run_cell(const CellConfig& config, CellSeries* per_tick,
                    obs::RequestTracer* tracer) {
  util::Rng rng(config.seed);
  const object::Catalog catalog = object::make_random_catalog(
      config.object_count, config.size_lo, config.size_hi, rng);
  const auto access =
      exp::make_access(config.access, config.object_count, config.zipf_alpha);

  std::vector<MobileClient> clients;
  clients.reserve(config.client_count);
  std::vector<std::uint32_t> roster;
  for (std::size_t i = 0; i < config.client_count; ++i) {
    clients.emplace_back(std::uint32_t(i), catalog, config.client);
    roster.push_back(std::uint32_t(i));
  }
  std::vector<CellEngine::Credit> credited(clients.size());

  CellEngine engine(config, catalog, *access, clients, credited,
                    std::move(roster), rng);
  engine.set_tracer(tracer);
  engine.attach_series(per_tick);
  for (sim::Tick t = 0; t < config.ticks; ++t) engine.tick(t);
  return engine.result();
}

}  // namespace mobi::client
