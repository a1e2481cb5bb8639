// Substrate validation: the base station's fixed-network batch completion
// (TickResult::fetch_latency, latency + total units / bandwidth) vs the
// exact event-driven processor-sharing link with the same latency and
// bandwidth. For a batch submitted at one instant, processor sharing
// completes items smallest-first and its *last* completion equals the
// station's batch time (work conservation); the PS mean is lower because
// small transfers escape early. Exits 1 when a burst's last PS completion
// and the station's batch completion differ.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/base_station.hpp"
#include "net/ps_link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace mobi;

struct Comparison {
  double batch = 0.0;  // the station's fetch_latency for the burst
  double ps_mean = 0.0;
  double ps_last = 0.0;
};

Comparison compare(const std::vector<object::Units>& sizes) {
  Comparison result;
  // One tick of a cold station that fetches every object of the burst.
  const object::Catalog catalog(sizes);
  server::ServerPool servers(catalog, 1);
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("download-all"));
  workload::RequestBatch batch;
  for (object::ObjectId id = 0; id < catalog.size(); ++id) {
    batch.push_back({id, 1.0, id});
  }
  result.batch = station.process_batch(batch, 0).fetch_latency;

  // The same burst submitted to a PS link once the latency has passed.
  sim::Simulator simulator;
  net::PsLink link(simulator, core::kFixedNetBandwidth);
  std::vector<double> finishes;
  simulator.schedule_at(core::kFixedNetLatency, [&] {
    for (object::Units size : sizes) {
      link.submit(size, [&](double, double f) { finishes.push_back(f); });
    }
  });
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

  std::vector<std::pair<std::string, std::vector<object::Units>>> bursts = {
      {"8 equal x10", std::vector<object::Units>(8, 10)},
      {"1 big + 7 small", {70, 2, 2, 2, 2, 2, 2, 2}},
      {"geometric", {64, 32, 16, 8, 4, 2, 1, 1}},
  };
  // A random burst for good measure.
  std::vector<object::Units> random_sizes(12);
  for (auto& s : random_sizes) s = rng.uniform_int(1, 40);
  bursts.emplace_back("random x12", random_sizes);

  util::Table table({"burst", "batch completion", "PS mean", "PS last"});
  bool agree = true;
  for (const auto& [label, sizes] : bursts) {
    const Comparison result = compare(sizes);
    table.add_row({label, result.batch, result.ps_mean, result.ps_last});
    if (std::abs(result.ps_last - result.batch) > 1e-9 * result.batch) {
      std::cerr << "baseline_ps_link: " << label << ": PS last "
                << result.ps_last << " != batch completion " << result.batch
                << '\n';
      agree = false;
    }
  }

  mobi::bench::emit(flags,
                    "Substrate check: the station's batch completion vs "
                    "exact processor sharing (same-instant bursts)",
                    "ps_link", table);
  std::cout << "Read: last completions agree exactly (work conservation); "
               "PS mean is lower because small transfers escape early "
               "instead of waiting for the whole batch.\n";
  return agree ? 0 : 1;
}
