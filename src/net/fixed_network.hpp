// Fixed-network model between the base station and remote servers.
//
// Latency grows with concurrent load ("as the base station downloads more
// data over the fixed network, the overall latency may increase due to
// bandwidth contention" — paper §1). Transfers submitted in the same tick
// share the link processor-sharing style: each transfer's completion time
// reflects the amount of competing traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.hpp"
#include "object/object.hpp"

namespace mobi::obs {
class RequestTracer;
}  // namespace mobi::obs

namespace mobi::net {

class FaultInjector;

struct TransferStats {
  std::uint64_t transfers = 0;
  /// Units pulled from the origin over the fixed network (both batch
  /// entry points account here).
  object::Units units = 0;
  double total_time = 0.0;  // summed per-transfer completion times

  double mean_time() const noexcept {
    return transfers ? total_time / double(transfers) : 0.0;
  }
};

class FixedNetwork {
 public:
  /// `contention` scales how strongly concurrent traffic inflates latency:
  /// a batch of total size B completes in latency + B/bandwidth, and each
  /// member transfer is charged latency + (own + contention*(B-own))/bw.
  FixedNetwork(double bandwidth, double latency, double contention = 1.0);

  /// Computes per-transfer completion times for a batch submitted
  /// together, updating the running stats. Returns one completion time per
  /// input size, in order. Never consults the fault injector.
  std::vector<double> submit_batch(const std::vector<object::Units>& sizes);

  /// The station's hot-path entry point: the same accounting as
  /// submit_batch without materializing the completions (allocation-free),
  /// returning the time for the whole batch to finish (the last
  /// completion; 0 for an empty batch). It consults the attached fault
  /// injector exactly once per non-empty batch: a congestion fault
  /// multiplies every completion time (stats included) by the plan's
  /// slowdown factor. With no injector — or an idle one — the stats are
  /// bit-identical to submit_batch's.
  double record_batch_completion(const std::vector<object::Units>& sizes);

  /// Attaches the fault injector consulted by record_batch_completion;
  /// nullptr (the default) detaches.
  void set_fault_injector(FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Attaches request-lifecycle tracing: record_batch_completion emits one
  /// net-batch event (transfer count + completion time, slowdown factor
  /// included) per non-empty batch. nullptr detaches.
  void set_tracer(obs::RequestTracer* tracer) noexcept { tracer_ = tracer; }

  const TransferStats& stats() const noexcept { return stats_; }
  double bandwidth() const noexcept { return link_.bandwidth(); }
  double latency() const noexcept { return link_.latency(); }

 private:
  /// Charges each transfer of a batch submitted together to the link and
  /// the stats, its completion time scaled by `factor`, and appends the
  /// times to `completions` when it is non-null. Returns the batch's
  /// total units.
  object::Units account_batch(const std::vector<object::Units>& sizes,
                              double factor, std::vector<double>* completions);

  Link link_;
  double contention_;
  TransferStats stats_;
  FaultInjector* fault_ = nullptr;
  obs::RequestTracer* tracer_ = nullptr;
};

}  // namespace mobi::net
