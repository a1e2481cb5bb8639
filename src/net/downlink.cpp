#include "net/downlink.hpp"

#include <stdexcept>

#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace mobi::net {

WirelessDownlink::WirelessDownlink(object::Units capacity_per_tick)
    : capacity_(capacity_per_tick) {
  if (capacity_per_tick <= 0) {
    throw std::invalid_argument("WirelessDownlink: capacity must be > 0");
  }
}

void WirelessDownlink::reject_negative_size() {
  throw std::invalid_argument("WirelessDownlink: negative size");
}

void WirelessDownlink::count_enqueue(object::Units units) {
  inst_.enqueued_units->add(std::uint64_t(units));
  inst_.queue_depth->set(double(queued_));
}

object::Units WirelessDownlink::tick() {
  ++ticks_;
  object::Units budget = capacity_;
  object::Units delivered_now = 0;
  object::Units dropped_now = 0;
  while (budget > 0 && head_ < pending_.size()) {
    object::Units& head = pending_[head_];
    const object::Units moved = head <= budget ? head : budget;
    if (fault_ && fault_->draw_downlink_drop()) {
      // Dropped mid-flight: `moved` units of airtime are spent on a
      // transfer nobody receives, and only the chunk's *remaining* bytes
      // count as dropped — the prefix delivered on earlier ticks stays
      // delivered, so enqueued == delivered + queued + dropped exactly.
      budget -= moved;
      queued_ -= head;
      dropped_ += head;
      dropped_now += head;
      wasted_ += moved;
      if (tracer_) tracer_->on_downlink_drop(double(head));
      head = 0;
      ++head_;
      continue;
    }
    head -= moved;
    budget -= moved;
    queued_ -= moved;
    delivered_ += moved;
    delivered_now += moved;
    if (head == 0) {
      if (tracer_ && head_ < pending_stamp_.size()) {
        // Same-tick delivery waits 0 (ticks_ was bumped on entry).
        const Stamp& stamp = pending_stamp_[head_];
        tracer_->on_downlink_delivered(stamp.tag.sampled, stamp.tag.object,
                                       stamp.tag.client,
                                       sim::Tick((ticks_ - 1) - stamp.enqueued));
      }
      ++head_;
    }
  }
  if (head_ == pending_.size()) {
    // Drained: reset without releasing capacity.
    pending_.clear();
    pending_stamp_.clear();
    head_ = 0;
  } else if (head_ > 64 && head_ * 2 > pending_.size()) {
    // Backlogged: drop the consumed prefix once it dominates the buffer
    // (amortized O(1) per chunk, in-place move, no allocation).
    pending_.erase(pending_.begin(), pending_.begin() + std::ptrdiff_t(head_));
    if (!pending_stamp_.empty()) {
      pending_stamp_.erase(pending_stamp_.begin(),
                           pending_stamp_.begin() + std::ptrdiff_t(head_));
    }
    head_ = 0;
  }
  idle_ += budget;
  if (metrics_) {
    inst_.delivered_units->add(std::uint64_t(delivered_now));
    if (dropped_now > 0) inst_.dropped_units->add(std::uint64_t(dropped_now));
    if (capacity_ - budget > delivered_now) {
      inst_.wasted_airtime_units->add(
          std::uint64_t(capacity_ - budget - delivered_now));
    }
    inst_.idle_units->add(std::uint64_t(budget));
    inst_.queue_depth->set(double(queued_));
  }
  return delivered_now;
}

void WirelessDownlink::set_metrics(obs::MetricsRegistry* registry,
                                   const std::string& prefix) {
  metrics_ = registry;
  inst_ = {};
  if (!registry) return;
  inst_.enqueued_units = &registry->register_counter(prefix + ".enqueued_units");
  inst_.delivered_units =
      &registry->register_counter(prefix + ".delivered_units");
  inst_.dropped_units = &registry->register_counter(prefix + ".dropped_units");
  inst_.wasted_airtime_units =
      &registry->register_counter(prefix + ".wasted_airtime_units");
  inst_.idle_units = &registry->register_counter(prefix + ".idle_units");
  inst_.queue_depth = &registry->register_gauge(prefix + ".queue_depth");
  inst_.queue_depth->set(double(queued_));
}

void WirelessDownlink::set_tracer(obs::RequestTracer* tracer) {
  tracer_ = tracer;
  if (!tracer) {
    pending_stamp_.clear();
    pending_stamp_.shrink_to_fit();
    return;
  }
  // Backfill stamps for whatever is already queued (attach-mid-run): no
  // request was sampled for those chunks. Match pending_'s capacity so
  // mirrored pushes never reallocate first.
  pending_stamp_.reserve(pending_.capacity());
  pending_stamp_.assign(pending_.size(), Stamp{ticks_, ChunkTag{}});
}

double WirelessDownlink::utilization() const noexcept {
  const double offered = double(capacity_) * double(ticks_);
  return offered > 0.0 ? double(delivered_) / offered : 0.0;
}

}  // namespace mobi::net
