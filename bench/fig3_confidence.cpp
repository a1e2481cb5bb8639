// Figure 3 with error bars: the paper plots single runs; this bench
// replicates each (budget, policy) point across independent seeds and
// reports mean ± 95% CI, establishing that the on-demand-over-async gap
// is far larger than run-to-run noise.
#include <iostream>

#include "bench_common.hpp"
#include "exp/fig3.hpp"
#include "exp/replicate.hpp"

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto runs = std::size_t(flags.get_int("runs", 5));
  const auto seeds = exp::seed_ladder(std::uint64_t(flags.get_int("seed", 42)),
                                      runs);

  exp::Fig3Config base;
  base.object_count = 200;
  base.requests_per_tick = 60;
  base.warmup_ticks = 30;
  base.measure_ticks = 60;
  base.update_period = 5;

  util::ThreadPool pool;
  util::Table table({"budget", "on-demand mean", "on-demand ci95",
                     "async mean", "async ci95", "gap / ci"});
  for (object::Units budget : {5, 15, 30, 60}) {
    auto metric = [&](bool on_demand) {
      return [&, on_demand](std::uint64_t seed) {
        auto config = base;
        config.seed = seed;
        return exp::run_fig3_once(config, budget, on_demand);
      };
    };
    const auto on_demand = exp::replicate(metric(true), seeds, &pool);
    const auto async = exp::replicate(metric(false), seeds, &pool);
    const double noise =
        std::max(on_demand.ci95_halfwidth + async.ci95_halfwidth, 1e-9);
    table.add_row({(long long)(budget), on_demand.mean,
                   on_demand.ci95_halfwidth, async.mean, async.ci95_halfwidth,
                   (on_demand.mean - async.mean) / noise});
  }
  bench::emit(flags,
              "Figure 3 with 95% confidence intervals over " +
                  std::to_string(runs) + " seeds",
              "fig3_confidence", table);
  std::cout << "Read: 'gap / ci' >> 1 means the on-demand advantage is "
               "signal, not seed noise.\n";
  return 0;
}
