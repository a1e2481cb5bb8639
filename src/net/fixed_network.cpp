#include "net/fixed_network.hpp"

#include <numeric>
#include <stdexcept>

#include "net/fault_injector.hpp"
#include "obs/event_log.hpp"

namespace mobi::net {

FixedNetwork::FixedNetwork(double bandwidth, double latency, double contention)
    : link_(bandwidth, latency), contention_(contention) {
  if (contention < 0.0) {
    throw std::invalid_argument("FixedNetwork: contention must be >= 0");
  }
}

object::Units FixedNetwork::account_batch(
    const std::vector<object::Units>& sizes, double factor,
    std::vector<double>* completions) {
  const object::Units total =
      std::accumulate(sizes.begin(), sizes.end(), object::Units{0});
  for (object::Units own : sizes) {
    if (own < 0) throw std::invalid_argument("FixedNetwork: negative size");
    const double competing = contention_ * double(total - own);
    const double time =
        factor *
        (link_.latency() + (double(own) + competing) / link_.bandwidth());
    if (completions) completions->push_back(time);
    link_.account(own);
    ++stats_.transfers;
    stats_.units += own;
    stats_.total_time += time;
  }
  return total;
}

std::vector<double> FixedNetwork::submit_batch(
    const std::vector<object::Units>& sizes) {
  std::vector<double> completions;
  completions.reserve(sizes.size());
  account_batch(sizes, 1.0, &completions);
  return completions;
}

double FixedNetwork::record_batch_completion(
    const std::vector<object::Units>& sizes) {
  if (sizes.empty()) return 0.0;
  // One congestion draw per batch; factor 1.0 multiplies exactly, so the
  // healthy path reproduces the fault-free times bit for bit (the perf
  // differential suites pin this).
  const double factor = fault_ ? fault_->draw_fetch_slowdown() : 1.0;
  const object::Units total = account_batch(sizes, factor, nullptr);
  const double completion =
      factor * (link_.latency() + double(total) / link_.bandwidth());
  if (tracer_) tracer_->on_net_batch(sizes.size(), completion);
  return completion;
}

}  // namespace mobi::net
