// Per-layer probes of a --trace run. Every probe drives one layer through
// its public entry points at a tenth of its workload's horizon and wraps
// the calls in the ledger's own PhaseProfiler spans; the layers' built-in
// phases (bs.*, coop.*, fleet.*, mc.*) nest inside them. Each group names
// the end-to-end metric it should move in bench/ledger/README.md.
#include <algorithm>

#include "coop/cooperative.hpp"
#include "core/knapsack.hpp"
#include "core/knapsack_parallel.hpp"
#include "ledger.hpp"
#include "util/rng.hpp"

namespace ledger {
namespace {

using namespace mobi;

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Host interference only ever adds time, so the fastest of several runs
// is the steadiest estimate.
double best(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

std::string str(const char* a, const std::string& b, const char* c = "") {
  return std::string(a) + b + c;
}

// --- Pisinger's hard knapsack classes ----------------------------------
// "Where are the hard knapsack problems?" (Pisinger 2005), with integer
// weights and profits in [1, R] so every profit sum is exact and the
// branch-and-bound must reproduce the DP's bits.

constexpr std::size_t kKnapsackItems = 512;
constexpr std::int64_t kRange = 100;
constexpr object::Units kKnapsackCapacity = 2560;
constexpr int kKnapsackInstances = 3;
constexpr int kKnapsackRepeats = 3;

struct KnapsackClass {
  const char* name;
  // Returns {weight, profit} for one item.
  std::pair<std::int64_t, std::int64_t> (*draw)(util::Rng&);
};

const KnapsackClass kKnapsackClasses[] = {
    {"uncorrelated",
     [](util::Rng& rng) {
       return std::pair{rng.uniform_int(1, kRange), rng.uniform_int(1, kRange)};
     }},
    {"strong",
     [](util::Rng& rng) {
       const std::int64_t w = rng.uniform_int(1, kRange);
       return std::pair{w, w + kRange / 10};
     }},
    {"inverse_strong",
     [](util::Rng& rng) {
       const std::int64_t p = rng.uniform_int(1, kRange);
       return std::pair{p + kRange / 10, p};
     }},
    {"subset_sum",
     [](util::Rng& rng) {
       const std::int64_t w = rng.uniform_int(1, kRange);
       return std::pair{w, w};
     }},
};

std::vector<core::KnapsackItem> knapsack_instance(const KnapsackClass& c,
                                                  util::Rng& rng) {
  std::vector<core::KnapsackItem> items(kKnapsackItems);
  for (auto& item : items) {
    const auto [weight, profit] = c.draw(rng);
    item.size = object::Units(weight);
    item.profit = double(profit);
  }
  return items;
}

template <typename Solve>
double median_ns(Solve&& solve) {
  std::vector<double> ns;
  for (int r = 0; r < kKnapsackRepeats; ++r) {
    const auto start = Clock::now();
    solve();
    ns.push_back(1e9 * seconds_since(start));
  }
  return median(ns);
}

bool same_solution(const core::KnapsackSolution& a,
                   const core::KnapsackSolution& b) {
  return std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.used == b.used && a.chosen == b.chosen;
}

}  // namespace

double self_share(const obs::PhaseProfiler& profiler,
                  const std::string& phase) {
  for (obs::PhaseProfiler::PhaseId id = 0; id < profiler.phase_count(); ++id) {
    if (profiler.phase_name(id) == phase) {
      return ratio(double(profiler.self_wall_ns(id)),
                   double(profiler.root_total_wall_ns()));
    }
  }
  return 0.0;
}

void probe_station_tick(const ProbeContext& ctx, Metrics& out) {
  auto station = make_station(ctx.seed, 0);
  station->set_scale(ctx.scale);
  obs::PhaseProfiler profiler;
  const Rep rep = station->run(nullptr, &profiler, *ctx.gate);
  const double fetches_per_tick =
      rep.counter("fetches") / double(rep.ticks);
  ctx.gate->check(fetches_per_tick > 0.0,
                  "station: the knapsack has objects to fetch every run");

  out.push_back({"workload.batch.self_share",
                 self_share(profiler, "workload.batch"), "ratio"});
  for (const char* phase :
       {"updates", "retry", "select", "fetch", "serve", "downlink"}) {
    out.push_back({str("core.bs.", phase, ".self_share"),
                   self_share(profiler, str("bs.", phase)), "ratio"});
  }
  out.push_back({"core.bs.tick_us_p50", percentile(rep.tick_us, 50), "us"});
  out.push_back({"core.bs.tick_us_p99", percentile(rep.tick_us, 99), "us"});
  out.push_back({"core.bs.fetches_per_tick", fetches_per_tick, "objects/tick"});
}

void probe_knapsack(const ProbeContext& ctx, Metrics& out) {
  core::ParallelBnbConfig one;
  one.threads = 1;
  core::ParallelBnbConfig three;
  three.threads = 3;
  core::ParallelKnapsackEngine engine1(one);
  core::ParallelKnapsackEngine engine3(three);
  core::KnapsackWorkspace ws;
  core::KnapsackSolution dp, bnb1, bnb3;

  std::uint64_t class_index = 0;
  for (const KnapsackClass& c : kKnapsackClasses) {
    util::Rng rng(util::SplitMix64(ctx.seed ^ (0x9a5c0ULL + class_index++))
                      .next());
    std::vector<double> dp_ns, t1_ns, t3_ns, nodes;
    for (int i = 0; i < kKnapsackInstances; ++i) {
      const auto items = knapsack_instance(c, rng);
      dp_ns.push_back(median_ns(
          [&] { core::solve_dp(items, kKnapsackCapacity, ws, dp); }));
      const std::uint64_t nodes_before = engine1.stats().nodes;
      engine1.solve(items, kKnapsackCapacity, ws, bnb1);
      nodes.push_back(double(engine1.stats().nodes - nodes_before));
      t1_ns.push_back(median_ns(
          [&] { engine1.solve(items, kKnapsackCapacity, ws, bnb1); }));
      t3_ns.push_back(median_ns(
          [&] { engine3.solve(items, kKnapsackCapacity, ws, bnb3); }));
      ctx.gate->check(same_solution(dp, bnb1) && same_solution(dp, bnb3),
                      str("knapsack.", c.name,
                          ": engine value bits, used and chosen == solve_dp"));
    }
    const std::string prefix = str("core.knapsack.", c.name, ".");
    out.push_back({prefix + "dp_ns", median(dp_ns), "ns"});
    out.push_back({prefix + "bnb_t1_ns", median(t1_ns), "ns"});
    out.push_back({prefix + "bnb_t3_ns", median(t3_ns), "ns"});
    out.push_back({prefix + "bnb_nodes", median(nodes), "count"});
  }
}

void probe_observer_ladder(const ProbeContext& ctx, Metrics& out) {
  // Rungs run round-robin so drift on the host spreads over every rung;
  // each rung's best ns/tick minus the best of the rung below is its tax.
  constexpr int kRounds = 5;
  std::vector<std::unique_ptr<Workload>> rungs;
  for (int r = 0; r <= kObserverRungs; ++r) {
    rungs.push_back(make_station(ctx.seed, r));
    rungs.back()->set_scale(ctx.scale);
  }
  std::vector<std::vector<double>> ns(rungs.size());
  double dropped = 0.0;
  std::uint64_t bare_digest = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      const Rep rep = rungs[r]->run(nullptr, nullptr, *ctx.gate);
      ns[r].push_back(1e9 * rep.seconds / double(rep.ticks));
      if (r == 0) bare_digest = rep.digest;
      ctx.gate->check(rep.digest == bare_digest,
                      str("obs ladder: rung ", rung_name(int(r)),
                          " is bit-identical to the bare station"));
      if (int(r) == kObserverRungs) dropped = rep.counter("trace_dropped");
    }
  }
  for (int r = 1; r <= kObserverRungs; ++r) {
    out.push_back({str("obs.ladder.", rung_name(r), "_ns_per_tick"),
                   best(ns[std::size_t(r)]) - best(ns[std::size_t(r - 1)]),
                   "ns/tick"});
  }
  out.push_back({"obs.trace.dropped", dropped, "events"});
}

void probe_pool(const ProbeContext& ctx, Metrics& out) {
  // The run's own fleet; station runs measure the sharded fleet.
  const std::string fleet_name =
      make_workload(ctx.workload, ctx.seed)->pooled() ? ctx.workload
                                                      : "fleet_sharded";
  auto fleet = make_fleet(fleet_name, ctx.seed);
  fleet->set_scale(ctx.scale);
  util::ThreadPool pool2(2);
  util::ThreadPool* pools[] = {nullptr, &pool2, ctx.pool};
  // One cold repetition per pool: the first pooled run in a process is
  // far slower than the steady state.
  for (util::ThreadPool* pool : pools) fleet->run(pool, nullptr, *ctx.gate);
  constexpr int kRounds = 5;
  std::vector<double> seconds[3], steals;
  double makespan_ratio = 0.0;
  std::uint64_t digest = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int p = 0; p < 3; ++p) {
      const Rep rep = fleet->run(pools[p], nullptr, *ctx.gate);
      seconds[p].push_back(rep.seconds);
      if (round == 0 && p == 0) digest = rep.digest;
      ctx.gate->check(rep.digest == digest,
                      fleet_name + ": pooled runs are bit-identical to serial");
      if (p == 2) {
        steals.push_back(rep.counter("steals"));
        makespan_ratio = rep.counter("makespan_ratio");
      }
    }
  }
  out.push_back({"util.pool.speedup_p2", best(seconds[0]) / best(seconds[1]),
                 "x"});
  out.push_back({"util.pool.speedup_p3", best(seconds[0]) / best(seconds[2]),
                 "x"});
  out.push_back({"util.sched.makespan_ratio", makespan_ratio, "ratio"});
  out.push_back({"util.sched.steals", median(steals), "count"});
}

void probe_cell_loop(const ProbeContext& ctx, Metrics& out) {
  // Serial, so the allocation count is a pure function of the seed; the
  // one-tick bring-up is subtracted to leave the per-tick part.
  auto fleet = make_fleet("fleet_sharded", ctx.seed);
  fleet->set_scale(ctx.scale);
  std::uint64_t bring_up_allocs = 0;
  arm_allocation_counter(true);
  fleet->bring_up(nullptr, &bring_up_allocs);
  const Rep rep = fleet->run(nullptr, nullptr, *ctx.gate);
  arm_allocation_counter(false);
  const double cell_ticks = rep.counter("cells") * double(rep.ticks - 1);
  out.push_back({"client.alloc_per_cell_tick",
                 ratio(double(rep.allocations) - double(bring_up_allocs),
                       cell_ticks),
                 "allocs/cell-tick"});
  out.push_back(
      {"client.local_hit_rate", rep.counter("local_hit_rate"), "ratio"});
  out.push_back({"net.fault.retry_success_ratio",
                 ratio(rep.counter("retry_successes"), rep.counter("retries")),
                 "ratio"});
  out.push_back({"net.fault.degraded_ratio",
                 ratio(rep.counter("degraded_serves"),
                       rep.counter("served_by_base")),
                 "ratio"});
}

void probe_coop(const ProbeContext& ctx, Metrics& out) {
  // One cluster driven serially: the profiler is single-threaded, so the
  // pooled fleet cannot carry the coop.* spans.
  const coop::CoopConfig config = fleet_coop_cluster(ctx.seed, ctx.scale);
  coop::CoopCluster cluster(config);
  obs::PhaseProfiler profiler;
  cluster.set_profiler(&profiler);
  const auto tick_phase = profiler.phase("coop.tick");
  const sim::Tick total = config.warmup_ticks + config.measure_ticks;
  for (sim::Tick t = 0; t < total; ++t) {
    obs::ScopedPhase span(&profiler, tick_phase);
    cluster.tick();
  }
  const coop::CoopResult& result = cluster.result();
  ctx.gate->check(result.requests == config.cell_count *
                                         config.requests_per_tick_per_cell *
                                         std::size_t(config.measure_ticks),
                  "coop cluster: every measured request is scored");
  out.push_back({"coop.coherence.self_share",
                 self_share(profiler, "coop.coherence"), "ratio"});
  out.push_back(
      {"coop.cells.self_share", self_share(profiler, "coop.cells"), "ratio"});
  out.push_back({"coop.peer_fraction", result.neighbor_fraction(), "ratio"});
  out.push_back({"coop.invalidations_per_tick",
                 ratio(double(result.invalidations),
                       double(config.measure_ticks)),
                 "inval/tick"});
}

void probe_mobility(const ProbeContext& ctx, Metrics& out) {
  auto fleet = make_fleet("fleet_mobility", ctx.seed);
  fleet->set_scale(ctx.scale);
  fleet->run(ctx.pool, nullptr, *ctx.gate);  // cold
  obs::PhaseProfiler profiler;
  const Rep rep = fleet->run(ctx.pool, &profiler, *ctx.gate);
  out.push_back({"exp.fleet.cells.self_share",
                 self_share(profiler, "fleet.cells"), "ratio"});
  out.push_back({"exp.fleet.barrier.self_share",
                 self_share(profiler, "fleet.barrier"), "ratio"});
  out.push_back({"exp.mobility.crossings_per_tick",
                 ratio(rep.counter("crossings"), double(rep.ticks)),
                 "crossings/tick"});
  const double deliveries = rep.counter("deliveries");
  out.push_back({"exp.mobility.delivery_ratio",
                 ratio(deliveries, deliveries + rep.counter("lost_deliveries")),
                 "ratio"});
}

TracedWorkload probe_workload(const ProbeContext& ctx, Metrics& out) {
  auto workload = make_workload(ctx.workload, ctx.seed);
  workload->set_scale(ctx.scale);
  util::ThreadPool* pool = workload->pooled() ? ctx.pool : nullptr;
  std::uint64_t bring_up_allocs = 0;
  arm_allocation_counter(true);
  workload->bring_up(pool, &bring_up_allocs);
  arm_allocation_counter(false);
  workload->run(pool, nullptr, *ctx.gate);  // cold

  constexpr int kRounds = 3;
  obs::PhaseProfiler profiler;
  std::vector<double> untraced, traced;
  TracedWorkload result;
  Rep last;
  for (int round = 0; round < kRounds; ++round) {
    const Rep plain = workload->run(pool, nullptr, *ctx.gate);
    arm_allocation_counter(true);
    last = workload->run(pool, &profiler, *ctx.gate);
    arm_allocation_counter(false);
    ctx.gate->check(last.digest == plain.digest,
                    ctx.workload + ": a traced run is bit-identical");
    untraced.push_back(plain.seconds);
    traced.push_back(last.seconds);
    result.requests += last.requests;
  }
  // A fleet repetition builds its cells inside the timed call; the
  // one-tick bring-up takes that part out. A station repetition times
  // only the ticks after its warm-up.
  const bool fleet = workload->pooled();
  const double steady_allocs =
      double(last.allocations) - (fleet ? double(bring_up_allocs) : 0.0);
  const double steady_ticks = double(last.ticks) - (fleet ? 1.0 : 0.0);
  out.push_back({"bench.alloc_per_tick", ratio(steady_allocs, steady_ticks),
                 "allocs/tick"});
  // Best against best, as requests_per_s is reported.
  out.push_back({"bench.trace_overhead_pct",
                 100.0 * (best(traced) / best(untraced) - 1.0), "%"});
  result.flame = profiler.flamegraph_collapsed();
  return result;
}

}  // namespace ledger
