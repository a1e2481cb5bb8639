// Google-benchmark microbenchmarks for the knapsack solvers — the inner
// loop of the on-demand policy, executed once per request batch. DP cost
// scales as O(n * capacity); greedy as O(n log n).
//
// Besides the google-benchmark suites, the binary always runs the select-
// path hot-path measurement (docs/performance.md): candidate aggregation +
// exact solve per batch, timed in the reference (map + fresh-construction,
// the pre-workspace implementation) and reused (CandidateBuilder +
// KnapsackWorkspace) variants. --quick runs only that measurement;
// --out=<dir> writes it as mobicache.metrics.v1 JSON
// (<dir>/micro_knapsack_metrics.json) for BENCH_hotpath.json trending.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/benefit.hpp"
#include "core/knapsack.hpp"
#include "core/knapsack_parallel.hpp"
#include "object/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "oracles/benefit_reference.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"

namespace {

using mobi::core::KnapsackItem;
using mobi::object::Units;

// The kernel rows' instance: 512 items at capacity 2560, and its
// decision-matrix row width.
constexpr std::size_t kCap512 = 2560;
constexpr std::size_t kRowWords512 = (kCap512 + 1 + 63) / 64;

std::vector<KnapsackItem> make_items(std::size_t n, std::uint64_t seed = 42) {
  mobi::util::Rng rng(seed);
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.size = rng.uniform_int(1, 20);
    item.profit = rng.uniform(0.0, 20.0);
  }
  return items;
}

void BM_KnapsackDp(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto items = make_items(n);
  const Units capacity = Units(n) * 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mobi::core::solve_dp(items, capacity));
  }
  state.SetComplexityN(int64_t(n));
}
BENCHMARK(BM_KnapsackDp)->Range(32, 512)->Complexity();

void BM_KnapsackProfile(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto items = make_items(n);
  const Units capacity = Units(n) * 10;
  for (auto _ : state) {
    mobi::core::KnapsackProfile profile(items, capacity);
    benchmark::DoNotOptimize(profile.value_at(capacity));
  }
}
BENCHMARK(BM_KnapsackProfile)->Range(32, 512);

void BM_KnapsackGreedy(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto items = make_items(n);
  const Units capacity = Units(n) * 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mobi::core::solve_greedy(items, capacity));
  }
}
BENCHMARK(BM_KnapsackGreedy)->Range(32, 4096);

void BM_KnapsackFptas(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto items = make_items(n);
  const Units capacity = Units(n) * 5;
  const double epsilon = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mobi::core::solve_fptas(items, capacity, epsilon));
  }
}
BENCHMARK(BM_KnapsackFptas)->Range(32, 128);

void BM_KnapsackBranchAndBound(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto items = make_items(n);
  const Units capacity = Units(n) * 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mobi::core::solve_branch_and_bound(items, capacity));
  }
}
BENCHMARK(BM_KnapsackBranchAndBound)->Range(32, 256);

// The same 512-item DP fill pinned to one kernel: arg 1 = scalar, 2 =
// word-parallel baseline, 3 = AVX2-dispatched word-parallel (skipped where
// the host or toolchain lacks it).
void BM_KnapsackDpKernel(benchmark::State& state) {
  namespace detail = mobi::core::detail;
  const auto kernel = detail::DpKernel(state.range(0));
  if (!detail::dp_kernel_supported(kernel)) {
    state.SkipWithError("kernel unsupported on this host");
    return;
  }
  const auto items = make_items(512);
  mobi::core::KnapsackWorkspace ws;
  for (auto _ : state) {
    detail::dp_fill(items, kCap512, ws, kRowWords512, kernel);
    benchmark::DoNotOptimize(detail::WorkspaceAccess::values(ws).data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KnapsackDpKernel)
    ->Arg(int(mobi::core::detail::DpKernel::kScalar))
    ->Arg(int(mobi::core::detail::DpKernel::kWordParallel))
    ->Arg(int(mobi::core::detail::DpKernel::kWordParallelAvx2));

// Parallel branch-and-bound at 1/2/4/8 worker threads over the 512-item
// instance (results identical to solve_dp by contract; only the clock
// moves with the pool size).
void BM_KnapsackParallelBnb(benchmark::State& state) {
  const auto items = make_items(512);
  const Units capacity = 2560;
  mobi::core::ParallelBnbConfig config;
  config.threads = std::size_t(state.range(0));
  mobi::core::ParallelKnapsackEngine engine(config);
  mobi::core::KnapsackWorkspace ws;
  mobi::core::KnapsackSolution out;
  for (auto _ : state) {
    engine.solve(items, capacity, ws, out);
    benchmark::DoNotOptimize(out.value);
  }
}
BENCHMARK(BM_KnapsackParallelBnb)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ProfileReconstruction(benchmark::State& state) {
  const auto items = make_items(256);
  const Units capacity = 2560;
  const mobi::core::KnapsackProfile profile(items, capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.solution_at(capacity));
  }
}
BENCHMARK(BM_ProfileReconstruction);

// The select-path hot loop as the on-demand policy runs it per batch:
// aggregate request benefits into candidates, then solve the knapsack at
// the tick budget. The reference variant is the seed implementation
// (ordered-map aggregation, freshly constructed profile + solution); the
// reused variant is the PR 3 path (epoch-stamped CandidateBuilder,
// workspace-borrowing solve_dp). Both must pick bit-identical values —
// checked every round.
void run_hotpath(const mobi::util::Flags& flags) {
  using namespace mobi;
  using Clock = std::chrono::steady_clock;
  const bool quick = flags.get_bool("quick", false);
  const std::size_t objects = std::size_t(flags.get_int("hot_objects", 512));
  const std::size_t batch_size =
      std::size_t(flags.get_int("hot_batch", objects / 2));
  const Units budget = Units(flags.get_int("hot_budget", Units(objects) / 4));
  const int rounds = int(flags.get_int("hot_rounds", quick ? 3 : 12));
  const int solves = int(flags.get_int("hot_solves", quick ? 50 : 400));

  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(objects, 1, 10, rng);
  server::ServerPool servers(catalog, 1);
  cache::Cache cache(objects, cache::make_harmonic_decay());
  const core::ReciprocalScorer scorer;
  workload::RequestGenerator generator(
      workload::make_zipf_access(objects, 1.0), workload::ConstantTarget{1.0},
      batch_size, rng.split());
  std::vector<workload::RequestBatch> batches;
  for (int b = 0; b < 64; ++b) batches.push_back(generator.next_batch());
  util::Rng update_rng(7);

  obs::MetricsRegistry registry;
  auto& ref_gauge = registry.register_gauge("hotpath.reference_ns_per_solve");
  auto& new_gauge = registry.register_gauge("hotpath.reused_ns_per_solve");
  auto& speedup_gauge = registry.register_gauge("hotpath.speedup");
  obs::SeriesRecorder recorder(registry);

  // Kernel comparison and per-thread B&B scaling on the canonical 512-item
  // instance (same shape as BM_KnapsackDp/512), exported as gauges so the
  // BENCH_hotpath.json trend records the curves alongside the select-path
  // numbers. Gauges are set once here and sampled every recorder round.
  {
    const auto items512 = make_items(512);
    core::KnapsackWorkspace kws;
    core::KnapsackSolution ksol;
    const int reps = quick ? 5 : 40;
    const auto time_ns = [&](auto&& solve_once) {
      solve_once();  // warm-up: grow all scratch before the clock starts
      const auto t0 = Clock::now();
      for (int i = 0; i < reps; ++i) solve_once();
      const auto t1 = Clock::now();
      return std::chrono::duration<double, std::nano>(t1 - t0).count() / reps;
    };
    struct KernelRow {
      core::detail::DpKernel kernel;
      const char* name;
    };
    const KernelRow kernels[] = {
        {core::detail::DpKernel::kScalar, "scalar"},
        {core::detail::DpKernel::kWordParallel, "word_parallel"},
        {core::detail::DpKernel::kWordParallelAvx2, "word_parallel_avx2"},
    };
    std::printf("== micro_knapsack dp kernels (512 items, cap 2560) ==\n");
    double scalar_ns = 0.0;
    for (const KernelRow& row : kernels) {
      if (!core::detail::dp_kernel_supported(row.kernel)) continue;
      const double ns = time_ns([&] {
        core::detail::dp_fill(items512, kCap512, kws, kRowWords512, row.kernel);
      });
      if (row.kernel == core::detail::DpKernel::kScalar) scalar_ns = ns;
      registry
          .register_gauge(std::string("knapsack.dp512.") + row.name +
                          "_ns_per_fill")
          .set(ns);
      std::printf("  %-20s %9.0f ns/fill (%.2fx vs scalar)\n", row.name, ns,
                  scalar_ns / ns);
    }
    std::printf("== micro_knapsack parallel bnb scaling (512 items) ==\n");
    double t1_ns = 0.0;
    for (std::size_t bnb_threads : {1u, 2u, 4u, 8u}) {
      core::ParallelBnbConfig config;
      config.threads = bnb_threads;
      core::ParallelKnapsackEngine engine(config);
      const double ns =
          time_ns([&] { engine.solve(items512, Units(kCap512), kws, ksol); });
      if (bnb_threads == 1) t1_ns = ns;
      const std::string base =
          "knapsack.bnb512.t" + std::to_string(bnb_threads);
      registry.register_gauge(base + "_ns_per_solve").set(ns);
      registry.register_gauge(base + "_speedup").set(t1_ns / ns);
      std::printf("  t%-19zu %9.0f ns/solve (%.2fx vs t1)\n", bnb_threads, ns,
                  t1_ns / ns);
    }
    std::printf("\n");
  }

  core::CandidateBuilder builder;
  core::KnapsackWorkspace ws;
  core::KnapsackSolution solution;
  std::vector<KnapsackItem> items;
  // Both variants run on the identical cache state each tick (the solve is
  // read-only); the cache then evolves like the station's would — a few
  // server updates per tick, and the chosen objects refreshed — so the
  // steady-state mix of trivial and full solves matches the real select
  // path. A warm-up pass fills caches and scratch buffers first.
  sim::Tick now = 0;
  const auto one_tick = [&](bool timed, double& ref_ns, double& new_ns,
                            double& check_ref, double& check_new) {
    const auto& batch = batches[std::size_t(now) % batches.size()];
    for (int u = 0; u < 16; ++u) {
      const auto id = object::ObjectId(
          update_rng.uniform_int(0, std::int64_t(objects) - 1));
      servers.apply_update(id, now);
      cache.on_server_update(id);
    }
    const auto t0 = Clock::now();
    const core::CandidateSet set =
        core::build_candidates_reference(batch, catalog, cache, scorer);
    std::vector<KnapsackItem> fresh_items;
    fresh_items.reserve(set.candidates.size());
    for (const auto& cand : set.candidates) {
      fresh_items.push_back(KnapsackItem{cand.size, cand.profit});
    }
    const core::KnapsackProfile profile(fresh_items, budget);
    const double ref_value = profile.solution_at(budget).value;
    const auto t1 = Clock::now();
    const core::CandidateSet& flat = builder.build(batch, catalog, cache, scorer);
    items.clear();
    for (const auto& cand : flat.candidates) {
      items.push_back(KnapsackItem{cand.size, cand.profit});
    }
    core::solve_dp(items, budget, ws, solution);
    const auto t2 = Clock::now();
    if (timed) {
      ref_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      new_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
      check_ref += ref_value;
      check_new += solution.value;
    }
    for (std::size_t index : solution.chosen) {
      const object::ObjectId id = flat.candidates[index].object;
      cache.refresh(id, servers.fetch(id), now);
    }
    ++now;
  };
  double ref_total = 0.0, new_total = 0.0;
  {
    double sink_ref = 0, sink_new = 0, sink_a = 0, sink_b = 0;
    for (std::size_t w = 0; w < batches.size(); ++w) {
      one_tick(false, sink_ref, sink_new, sink_a, sink_b);
    }
  }
  for (int r = 0; r < rounds; ++r) {
    double ref_ns = 0.0, new_ns = 0.0, check_ref = 0.0, check_new = 0.0;
    for (int s = 0; s < solves; ++s) {
      one_tick(true, ref_ns, new_ns, check_ref, check_new);
    }
    if (check_ref != check_new) {
      std::fprintf(stderr,
                   "hotpath: reference/reused divergence (%f vs %f)\n",
                   check_ref, check_new);
      std::exit(1);
    }
    ref_ns /= solves;
    new_ns /= solves;
    ref_total += ref_ns;
    new_total += new_ns;
    ref_gauge.set(ref_ns);
    new_gauge.set(new_ns);
    speedup_gauge.set(ref_ns / new_ns);
    recorder.sample(sim::Tick(r));
  }
  std::printf(
      "== micro_knapsack hotpath (select-path solve, %zu objects, budget "
      "%lld) ==\nreference %.0f ns/solve, reused %.0f ns/solve, speedup "
      "%.2fx\n\n",
      objects, static_cast<long long>(budget), ref_total / rounds,
      new_total / rounds, ref_total / new_total);
  bench::emit_metrics(flags, "micro_knapsack", recorder);
}

}  // namespace

int main(int argc, char** argv) {
  const mobi::util::Flags flags(argc, argv);
  run_hotpath(flags);
  if (flags.get_bool("quick", false)) return 0;
  // Strip our flags before handing argv to google-benchmark (it rejects
  // unknown --flags).
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--quick" || arg.rfind("--out", 0) == 0 ||
        arg.rfind("--hot_", 0) == 0) {
      if ((arg == "--out" || arg.rfind("--hot_", 0) == 0) &&
          arg.find('=') == std::string_view::npos && i + 1 < argc) {
        ++i;  // skip the detached value token
      }
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = int(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
