// Substrate validation: the analytic FixedNetwork contention model (used
// by BaseStation) vs the exact event-driven processor-sharing link. For a
// batch submitted at one instant, processor sharing completes items
// smallest-first and the *last* completion equals the batch time that
// FixedNetwork::record_batch_completion returns (latency + total /
// bandwidth); per-item times differ because the analytic model charges
// contention uniformly. This bench quantifies that gap across
// burst shapes so users know when the cheap model suffices.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "net/fixed_network.hpp"
#include "net/ps_link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace mobi;

struct Comparison {
  double analytic_mean = 0.0;
  double ps_mean = 0.0;
  double analytic_last = 0.0;
  double ps_last = 0.0;
};

Comparison compare(const std::vector<object::Units>& sizes,
                   double bandwidth) {
  Comparison result;
  net::FixedNetwork analytic(bandwidth, 0.0, 1.0);
  const auto analytic_times = analytic.submit_batch(sizes);
  for (double t : analytic_times) result.analytic_mean += t;
  result.analytic_mean /= double(analytic_times.size());
  result.analytic_last =
      *std::max_element(analytic_times.begin(), analytic_times.end());

  sim::Simulator simulator;
  net::PsLink link(simulator, bandwidth);
  std::vector<double> finishes;
  for (object::Units size : sizes) {
    link.submit(size, [&](double, double f) { finishes.push_back(f); });
  }
  simulator.run();
  for (double t : finishes) result.ps_mean += t;
  result.ps_mean /= double(finishes.size());
  result.ps_last = *std::max_element(finishes.begin(), finishes.end());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));
  const double bandwidth = 10.0;

  util::Table table({"burst", "analytic mean", "PS mean", "analytic last",
                     "PS last"});
  const std::vector<std::pair<const char*, std::vector<object::Units>>>
      bursts = {
          {"8 equal x10", std::vector<object::Units>(8, 10)},
          {"1 big + 7 small", {70, 2, 2, 2, 2, 2, 2, 2}},
          {"geometric", {64, 32, 16, 8, 4, 2, 1, 1}},
      };
  for (const auto& [label, sizes] : bursts) {
    const auto result = compare(sizes, bandwidth);
    table.add_row({std::string(label), result.analytic_mean, result.ps_mean,
                   result.analytic_last, result.ps_last});
  }
  // A random burst for good measure.
  std::vector<object::Units> random_sizes(12);
  for (auto& s : random_sizes) s = rng.uniform_int(1, 40);
  const auto result = compare(random_sizes, bandwidth);
  table.add_row({std::string("random x12"), result.analytic_mean,
                 result.ps_mean, result.analytic_last, result.ps_last});

  mobi::bench::emit(flags,
                    "Substrate check: analytic contention vs exact "
                    "processor sharing (same-instant bursts)",
                    "ps_link", table);
  std::cout << "Read: last completions agree exactly (work conservation); "
               "PS mean is lower because small transfers escape early "
               "instead of being charged the whole batch.\n";
  return 0;
}
