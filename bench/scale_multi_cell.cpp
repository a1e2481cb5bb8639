// Scale-out bench: shards N independent cells across the thread pool and
// reports wall-clock, speedup over the serial run, cells/sec and
// client-requests/sec per thread count. Every run uses the same master
// seed, and the bench cross-checks that the parallel aggregates are
// bit-identical to the serial ones (the determinism contract the
// multi_cell_test suite pins) — a speedup that changed the answer would
// be reported as a failure, not a win.
//
// With --out=<dir> the instrumented run also writes
// scale_multi_cell_metrics.json (schema mobicache.metrics.v1): per-tick
// fleet-wide mc.* series aggregated across all cells.
//
// --cells-skew gives the fleet a Zipf-distributed client population
// (total clients preserved, big cells deterministically scattered across
// the index space) and compares the shard schedules — static contiguous
// blocks vs the legacy shared queue vs LPT + work stealing — at a fixed
// pool size. On a 1-CPU container wall-clock cannot separate them, so
// the comparison reports each schedule's *modeled* makespan (the busiest
// worker's summed cost estimate — exact for static/LPT plans) alongside
// the honest wall-clock.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "bench_common.hpp"
#include "exp/multi_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/thread_pool.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_aggregate(const mobi::client::CellResult& a,
                    const mobi::client::CellResult& b) {
  return a.requests == b.requests && a.served_locally == b.served_locally &&
         a.served_by_base == b.served_by_base && a.score_sum == b.score_sum &&
         a.base_downloaded == b.base_downloaded &&
         a.sleeper_drops == b.sleeper_drops &&
         a.disconnect_ticks == b.disconnect_ticks;
}

// Zipf(alpha)-distributed per-cell client counts: cell rank r gets a
// share proportional to 1/(r+1)^alpha of the fleet-wide client total
// (floor 1). Counts stay in rank order — cell indices follow geography,
// and real hotspots cluster spatially (a downtown district is several
// adjacent heavy cells), so the heavy head lands in one contiguous run
// of shard indices. Contiguous static blocking then piles the whole hot
// district onto one worker — the imbalance pathology LPT packing plus
// stealing is for. Pure function of (cells, clients_per_cell, alpha).
std::vector<std::size_t> zipf_client_counts(std::size_t cells,
                                            std::size_t clients_per_cell,
                                            double alpha) {
  const std::size_t total = cells * clients_per_cell;
  std::vector<double> weights(cells);
  double sum = 0.0;
  for (std::size_t r = 0; r < cells; ++r) {
    weights[r] = 1.0 / std::pow(double(r + 1), alpha);
    sum += weights[r];
  }
  std::vector<std::size_t> counts(cells);
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < cells; ++r) {
    counts[r] = std::max<std::size_t>(
        1, std::size_t(std::llround(double(total) * weights[r] / sum)));
    assigned += counts[r];
  }
  // Settle rounding drift on the largest cell so the fleet total is
  // exactly cells x clients_per_cell (keeps requests/s comparable with
  // the uniform fleet).
  if (assigned < total) {
    counts[0] += total - assigned;
  } else {
    std::size_t excess = assigned - total;
    for (std::size_t r = 0; r < cells && excess > 0; ++r) {
      const std::size_t take = std::min(excess, counts[r] - 1);
      counts[r] -= take;
      excess -= take;
    }
  }
  return counts;
}

// Peak resident set (VmHWM) in kilobytes, 0 when unavailable.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> value;
      return value;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);

  exp::MultiCellConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.cell_count = std::size_t(flags.get_int("cells", quick ? 2 : 8));
  config.cell.object_count =
      std::size_t(flags.get_int("objects", quick ? 30 : 120));
  config.cell.client_count =
      std::size_t(flags.get_int("clients", quick ? 8 : 40));
  config.cell.ticks = sim::Tick(flags.get_int("ticks", quick ? 30 : 200));

  const bool skew = flags.get_bool("cells-skew", false);
  const double skew_alpha = flags.get_double("skew-alpha", 1.0);
  if (skew) {
    config.cell_client_counts = zipf_client_counts(
        config.cell_count, config.cell.client_count, skew_alpha);
  }

  std::cout << "scale_multi_cell: " << config.cell_count << " cells x "
            << config.cell.client_count << " clients x " << config.cell.ticks
            << " ticks (seed " << config.seed << ", "
            << std::thread::hardware_concurrency() << " hardware threads"
            << (skew ? ", zipf(" + std::to_string(skew_alpha) + ") client skew"
                     : "")
            << ")\n\n";

  const auto serial_start = std::chrono::steady_clock::now();
  const exp::MultiCellResult serial = exp::run_multi_cell(config);
  const double serial_seconds = seconds_since(serial_start);

  util::Table table({"threads", "seconds", "speedup", "cells/s",
                     "requests/s", "avg score"});
  table.add_row({std::string("serial"), serial_seconds, 1.0,
                 double(serial.cells) / serial_seconds,
                 double(serial.total_requests) / serial_seconds,
                 serial.aggregate.average_score()});

  bool identical = true;
  std::vector<std::size_t> thread_counts =
      quick ? std::vector<std::size_t>{2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    const auto start = std::chrono::steady_clock::now();
    const exp::MultiCellResult parallel = exp::run_multi_cell(config, &pool);
    const double elapsed = seconds_since(start);
    identical =
        identical && same_aggregate(serial.aggregate, parallel.aggregate);
    table.add_row({std::to_string(threads), elapsed,
                   serial_seconds / elapsed, double(parallel.cells) / elapsed,
                   double(parallel.total_requests) / elapsed,
                   parallel.aggregate.average_score()});
  }
  bench::emit(flags, "Sharded multi-cell throughput (same seed per row)",
              "scale_multi_cell", table);
  if (!identical) {
    std::cerr << "FAIL: parallel aggregates diverged from the serial run\n";
    return 1;
  }
  std::cout << "(all rows bit-identical to the serial aggregate)\n\n";

  // Schedule comparison at a fixed pool size: contiguous static blocks vs
  // the legacy shared queue vs the LPT + stealing default. Modeled
  // makespan is the busiest worker's summed cost estimate under each
  // plan (kQueue has no static plan, shown as 0); the ratio column is
  // static's makespan over this row's — the speedup the plan achieves on
  // `pool` ideal cores, which 1-CPU wall-clock cannot show.
  {
    const std::size_t pool_size =
        std::size_t(flags.get_int("pool", quick ? 2 : 8));
    const exp::ShardSchedule schedules[] = {exp::ShardSchedule::kStaticBlocked,
                                            exp::ShardSchedule::kQueue,
                                            exp::ShardSchedule::kLptSteal};
    util::Table sched_table({"schedule", "seconds", "modeled makespan",
                             "modeled speedup vs static", "steals",
                             "avg score"});
    double static_makespan = 0.0;
    bool sched_identical = true;
    for (const exp::ShardSchedule schedule : schedules) {
      exp::MultiCellConfig run = config;
      run.schedule = schedule;
      util::ThreadPool pool(pool_size);
      const auto start = std::chrono::steady_clock::now();
      const exp::MultiCellResult r = exp::run_multi_cell(run, &pool);
      const double elapsed = seconds_since(start);
      sched_identical =
          sched_identical && same_aggregate(serial.aggregate, r.aggregate);
      const double makespan = double(r.schedule_stats.planned_makespan);
      if (schedule == exp::ShardSchedule::kStaticBlocked) {
        static_makespan = makespan;
      }
      sched_table.add_row(
          {std::string(exp::shard_schedule_name(schedule)), elapsed, makespan,
           makespan > 0.0 ? static_makespan / makespan : 0.0,
           (long long)(r.schedule_stats.steals), r.aggregate.average_score()});
    }
    bench::emit(flags,
                "Shard schedules at pool " + std::to_string(pool_size) +
                    (skew ? " (zipf client skew)" : " (uniform cells)"),
                "scale_multi_cell_schedules", sched_table);
    if (!sched_identical) {
      std::cerr << "FAIL: schedule variants diverged from the serial run\n";
      return 1;
    }
    std::cout << "(all schedules bit-identical to the serial aggregate)\n\n";
  }

  std::cout << "horizon: " << double(serial.cells) / serial_seconds
            << " cells/s, " << double(serial.total_requests) / serial_seconds
            << " requests/s serial, peak RSS " << peak_rss_kb() << " kB\n\n";

  // Instrumented run: fleet-wide per-tick series, one JSON per bench run.
  {
    obs::MetricsRegistry registry;
    obs::SeriesRecorder recorder(registry);
    util::ThreadPool pool(quick ? 2 : 4);
    const exp::MultiCellResult instrumented =
        exp::run_multi_cell(config, &pool, {.recorder = &recorder});
    if (!same_aggregate(serial.aggregate, instrumented.aggregate)) {
      std::cerr << "FAIL: instrumented aggregate diverged\n";
      return 1;
    }
    std::cout << "instrumented: " << recorder.samples() << " ticks x "
              << recorder.series_names().size() << " mc.* series, "
              << "final mc.requests = "
              << registry.find_counter("mc.requests")->value() << "\n";
    bench::emit_metrics(flags, "scale_multi_cell", recorder);
  }

  // Coop-cluster topology: shard = a neighbor-linked cluster.
  {
    exp::MultiCellConfig coop = config;
    coop.topology = exp::CellTopology::kCoopClusters;
    coop.cell_client_counts.clear();  // sharded only: clusters reject it
    coop.cells_per_cluster = 2;
    coop.cluster.object_count = config.cell.object_count;
    coop.cluster.requests_per_tick_per_cell = quick ? 8 : 20;
    coop.cluster.warmup_ticks = quick ? 5 : 20;
    coop.cluster.measure_ticks = sim::Tick(config.cell.ticks);

    const auto start = std::chrono::steady_clock::now();
    const exp::MultiCellResult coop_serial = exp::run_multi_cell(coop);
    const double coop_seconds = seconds_since(start);

    util::ThreadPool pool(quick ? 2 : 4);
    const auto pstart = std::chrono::steady_clock::now();
    const exp::MultiCellResult coop_parallel =
        exp::run_multi_cell(coop, &pool);
    const double coop_parallel_seconds = seconds_since(pstart);

    util::Table coop_table({"threads", "clusters", "seconds", "speedup",
                            "requests/s", "neighbor frac"});
    coop_table.add_row({std::string("serial"),
                        (long long)(coop_serial.shards), coop_seconds, 1.0,
                        double(coop_serial.total_requests) / coop_seconds,
                        coop_serial.coop_aggregate.neighbor_fraction()});
    coop_table.add_row(
        {std::to_string(pool.size()), (long long)(coop_parallel.shards),
         coop_parallel_seconds, coop_seconds / coop_parallel_seconds,
         double(coop_parallel.total_requests) / coop_parallel_seconds,
         coop_parallel.coop_aggregate.neighbor_fraction()});
    bench::emit(flags, "Coop-cluster topology (cells_per_cluster = 2)",
                "scale_multi_cell_coop", coop_table);
    if (coop_serial.coop_aggregate.score_sum !=
        coop_parallel.coop_aggregate.score_sum) {
      std::cerr << "FAIL: coop parallel aggregate diverged\n";
      return 1;
    }
  }
  return 0;
}
