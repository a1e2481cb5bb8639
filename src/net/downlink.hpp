// Wireless downlink from the base station to the clients in its cell.
//
// The downlink has a hard per-tick capacity. Deliveries are queued FIFO
// and drained each tick; capacity left over when the queue empties is
// *idle bandwidth* — the waste the paper's on-demand strategy is designed
// to avoid ("if there is too much delay in downloading data from remote
// sources, some of the available downlink bandwidth may be idle").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "object/object.hpp"

namespace mobi::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class RequestTracer;
}  // namespace mobi::obs

namespace mobi::net {

class FaultInjector;

/// The request a queued chunk answers, as the tracer saw it. Only read
/// while a tracer is attached.
struct ChunkTag {
  object::ObjectId object = 0;
  std::uint32_t client = 0;
  bool sampled = false;  // RequestTracer::on_arrival sampled the request
};

class WirelessDownlink {
 public:
  explicit WirelessDownlink(object::Units capacity_per_tick);

  object::Units capacity() const noexcept { return capacity_; }

  /// Queues `units` of data for delivery to clients, answering the
  /// request `tag` names. Inline: the serve loop calls it per cached
  /// response.
  void enqueue(object::Units units, ChunkTag tag = {}) {
    if (units < 0) [[unlikely]] reject_negative_size();
    if (units == 0) return;
    pending_.push_back(units);
    if (tracer_) pending_stamp_.push_back({ticks_, tag});
    queued_ += units;
    enqueued_ += units;
    if (metrics_) count_enqueue(units);
  }

  /// Advances one tick: delivers up to capacity units from the queue.
  /// Returns the units actually delivered this tick. With a fault
  /// injector attached, a chunk touched this tick may be dropped
  /// mid-flight: the airtime it consumed is charged against capacity but
  /// delivered to nobody, and its undelivered remainder leaves the queue
  /// as dropped bytes — delivered/queued/dropped always conserve
  /// enqueued_total() exactly.
  object::Units tick();

  object::Units queued() const noexcept { return queued_; }
  object::Units enqueued_total() const noexcept { return enqueued_; }
  object::Units delivered_total() const noexcept { return delivered_; }
  /// Bytes that were queued but dropped mid-transfer (never delivered).
  object::Units dropped_total() const noexcept { return dropped_; }
  /// Airtime charged for transfers that were then dropped — capacity
  /// consumed without delivery (the waste faults cause on the air).
  object::Units wasted_airtime_total() const noexcept { return wasted_; }
  object::Units idle_total() const noexcept { return idle_; }
  std::uint64_t ticks() const noexcept { return ticks_; }

  /// Fraction of downlink capacity used so far (0 if no ticks have run).
  double utilization() const noexcept;

  /// Attaches a fault injector whose downlink-drop draws are consulted
  /// once per queued chunk touched per tick; nullptr (the default)
  /// detaches. An idle injector (empty plan) draws nothing and the tick
  /// is bit-identical to the detached path.
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Registers enqueued/delivered/dropped/wasted-airtime/idle unit
  /// counters and a queue-depth gauge under `prefix` and keeps them
  /// updated; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "downlink");

  /// Attaches request-lifecycle tracing. Every chunk that fully drains
  /// reports its queue wait and its enqueue-time ChunkTag, and the
  /// tracer records a delivered event only for a sampled request; every
  /// mid-flight drop is recorded with the dropped units. Stamps (enqueue
  /// tick plus tag) are kept in a parallel vector maintained only while a
  /// tracer is attached, so the untraced path carries no extra state;
  /// chunks already queued at attach are stamped unsampled. nullptr
  /// detaches.
  void set_tracer(obs::RequestTracer* tracer);

 private:
  [[noreturn]] static void reject_negative_size();
  void count_enqueue(object::Units units);

  struct Instruments {
    obs::Counter* enqueued_units = nullptr;
    obs::Counter* delivered_units = nullptr;
    obs::Counter* dropped_units = nullptr;
    obs::Counter* wasted_airtime_units = nullptr;
    obs::Counter* idle_units = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  object::Units capacity_;
  object::Units queued_ = 0;
  object::Units enqueued_ = 0;
  object::Units delivered_ = 0;
  object::Units dropped_ = 0;
  object::Units wasted_ = 0;
  object::Units idle_ = 0;
  std::uint64_t ticks_ = 0;
  // Per-item FIFO as a vector + head cursor: enqueues append, tick()
  // consumes from head_, and the consumed prefix is dropped wholesale —
  // no per-chunk deque churn, no allocations once capacity is warm.
  std::vector<object::Units> pending_;
  std::size_t head_ = 0;
  // Enqueue tick and request tag per pending chunk (tracing); mirrors
  // pending_ exactly while a tracer is attached, empty otherwise.
  struct Stamp {
    std::uint64_t enqueued;
    ChunkTag tag;
  };
  std::vector<Stamp> pending_stamp_;
  FaultInjector* fault_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::RequestTracer* tracer_ = nullptr;
  Instruments inst_;
};

}  // namespace mobi::net
