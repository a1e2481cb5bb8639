#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mobi::util {
namespace {

// Per-index hit counts of one run(), as plain ints for one comparison.
std::vector<int> hits_of_run(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  pool.run(n, [&](std::size_t i) { ++hits[i]; });
  return std::vector<int>(hits.begin(), hits.end());
}

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  pool.run(1, [&](std::size_t) { value = 42; });
  EXPECT_EQ(value.load(), 42);
}

// Back-to-back calls publish their jobs at the same stack address, so a
// worker that woke late for one call must not run it against the next
// call's counters: any skipped or repeated index changes the total.
TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int call = 0; call < 200; ++call) {
    pool.run(5, [&](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run(2,
                        [](std::size_t i) {
                          if (i == 1) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequested) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolRun, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, pool.size(),
                              pool.size() + 1, std::size_t{1000}}) {
    EXPECT_EQ(hits_of_run(pool, n), std::vector<int>(n, 1)) << "n=" << n;
  }
}

TEST(ThreadPoolRun, RethrowsOnlyAfterEveryOtherIndexRan) {
  ThreadPool pool(3);
  std::atomic<int> others{0};
  int others_at_catch = -1;
  try {
    pool.run(64, [&](std::size_t i) {
      if (i == 0) throw std::logic_error("zero");
      ++others;
    });
  } catch (const std::logic_error&) {
    others_at_catch = others.load();
  }
  EXPECT_EQ(others_at_catch, 63);
}

// A run() from inside fn finds the pool busy and runs serially on the
// thread that called it instead of waiting for workers it is using.
TEST(ThreadPoolRun, NestedRunCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 8);
  pool.run(8, [&](std::size_t i) {
    pool.run(8, [&](std::size_t j) { ++hits[i * 8 + j]; });
  });
  EXPECT_EQ(std::vector<int>(hits.begin(), hits.end()),
            std::vector<int>(hits.size(), 1));
}

TEST(ThreadPoolRun, TwoCallingThreadsCoverEveryIndexOnce) {
  ThreadPool pool(2);
  std::vector<int> a;
  std::vector<int> b;
  std::thread other([&] {
    for (int call = 0; call < 50 && a.empty(); ++call) {
      const std::vector<int> hits = hits_of_run(pool, 300);
      if (hits != std::vector<int>(300, 1)) a = hits;
    }
  });
  for (int call = 0; call < 50 && b.empty(); ++call) {
    const std::vector<int> hits = hits_of_run(pool, 300);
    if (hits != std::vector<int>(300, 1)) b = hits;
  }
  other.join();
  EXPECT_TRUE(a.empty() && b.empty()) << "a call skipped or repeated an index";
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, 0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(&pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(&pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, RespectsGrainChunking) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(&pool, 0, 100, [&](std::size_t i) { sum += long(i); }, 16);
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

// The chunk arithmetic must not wrap when grain is huge: every index of
// [begin, end) runs once and nothing outside it runs.
TEST(ParallelFor, HugeGrainCoversRangeOnce) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(12);
  parallel_for(&pool, 5, 10, [&](std::size_t i) { ++hits[i]; }, SIZE_MAX);
  EXPECT_EQ(std::vector<int>(hits.begin(), hits.end()),
            (std::vector<int>{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0}));
}

TEST(ParallelFor, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 0, 10,
                            [&](std::size_t i) {
                              if (i == 7) throw std::logic_error("seven");
                            }),
               std::logic_error);
}

TEST(ParallelFor, NullPoolRunsInOrderOnTheCaller) {
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  parallel_for(nullptr, 3, 8, [&](std::size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  }, 2);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
  EXPECT_EQ(threads,
            std::vector<std::thread::id>(5, std::this_thread::get_id()));
}

TEST(LptPlan, PacksLongestFirstOntoLeastLoadedWorker) {
  // Classic LPT example: costs {7,6,5,4,3} on 2 workers, longest first,
  // each to the least-loaded queue (ties to the lowest queue index):
  // 7->w0 (7|0), 6->w1 (7|6), 5->w1 (7|11), 4->w0 (11|11), then the
  // tie sends 3->w0 (14|11). Makespan 14 — optimal is 13, inside LPT's
  // 4/3 bound.
  const LptPlan plan = lpt_plan({7, 6, 5, 4, 3}, 2);
  ASSERT_EQ(plan.queues.size(), 2u);
  ASSERT_EQ(plan.loads.size(), 2u);
  EXPECT_EQ(plan.loads[0], 14u);
  EXPECT_EQ(plan.loads[1], 11u);
  EXPECT_EQ(plan.makespan(), 14u);
  EXPECT_EQ(plan.queues[0], (std::vector<std::size_t>{0, 3, 4}));
  EXPECT_EQ(plan.queues[1], (std::vector<std::size_t>{1, 2}));
}

TEST(LptPlan, CoversEveryIndexOnceAndChargesZeroCostAsOne) {
  const LptPlan plan = lpt_plan({0, 0, 0, 9, 0}, 3);
  std::vector<int> seen(5, 0);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < plan.queues.size(); ++w) {
    for (std::size_t i : plan.queues[w]) ++seen[i];
    total += plan.loads[w];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  // Four zero-cost items charged one unit each + the 9.
  EXPECT_EQ(total, 13u);
  EXPECT_EQ(plan.makespan(), 9u);
}

TEST(LptPlan, MoreWorkersThanItemsLeavesQueuesEmpty) {
  const LptPlan plan = lpt_plan({5, 2}, 8);
  ASSERT_EQ(plan.queues.size(), 8u);
  EXPECT_EQ(plan.makespan(), 5u);
  std::size_t nonempty = 0;
  for (const auto& q : plan.queues) nonempty += !q.empty();
  EXPECT_EQ(nonempty, 2u);
}

TEST(WeightedParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> costs(257);
  for (std::size_t i = 0; i < costs.size(); ++i) costs[i] = i % 13;
  std::vector<std::atomic<int>> hits(costs.size());
  WeightedForStats stats;
  weighted_parallel_for(pool, costs, [&](std::size_t i) { ++hits[i]; },
                        &stats);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.planned_makespan, lpt_plan(costs, 4).makespan());
}

TEST(WeightedParallelFor, EmptyCostsIsNoopAndStatsStayZeroWork) {
  ThreadPool pool(2);
  int calls = 0;
  WeightedForStats stats;
  weighted_parallel_for(pool, {}, [&](std::size_t) { ++calls; }, &stats);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.planned_makespan, 0u);
  EXPECT_EQ(stats.steals, 0u);
}

TEST(WeightedParallelFor, ReusedStatsNeverReportAPreviousRun) {
  // Callers keep one WeightedForStats across runs (run_multi_cell does).
  // The struct must be reset on entry, not only assigned after the join:
  // otherwise a second run that throws mid-loop leaves the FIRST run's
  // workers/makespan/steals in place, and telemetry silently lies.
  ThreadPool pool(2);
  std::vector<std::uint64_t> heavy(64, 1);
  heavy[0] = 1000;  // lopsided plan: nonzero makespan for run 1
  WeightedForStats stats;
  weighted_parallel_for(pool, heavy, [](std::size_t) {}, &stats);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_GT(stats.planned_makespan, 0u);

  // Run 2 reuses the struct and throws, so the post-join assignment is
  // never reached — the entry reset is all that stands between the
  // caller and run 1's stale numbers.
  EXPECT_THROW(
      weighted_parallel_for(
          pool, std::vector<std::uint64_t>(4, 1),
          [](std::size_t) { throw std::logic_error("boom"); }, &stats),
      std::logic_error);
  EXPECT_EQ(stats.workers, 0u);
  EXPECT_EQ(stats.planned_makespan, 0u);
  EXPECT_EQ(stats.steals, 0u);

  // A clean follow-up run reports its own numbers, not a mix.
  weighted_parallel_for(pool, std::vector<std::uint64_t>(4, 1),
                        [](std::size_t) {}, &stats);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.planned_makespan, 2u);
}

TEST(WeightedParallelFor, RethrowsTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      weighted_parallel_for(pool, std::vector<std::uint64_t>(10, 1),
                            [&](std::size_t i) {
                              if (i == 7) throw std::logic_error("seven");
                            }),
      std::logic_error);
}

// Stealing exists to keep a drained worker busy: with one giant item
// pinning a worker and a long tail behind it, the other workers must
// pull the tail over. Nondeterministic *which* items get stolen, but a
// blocked-queue layout this lopsided must steal at least once, and the
// result (covered indices) is identical regardless.
TEST(WeightedParallelForStress, StealsUnderImbalanceWithoutDoubleRuns) {
  std::mt19937 rng(0x5EED);
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2 + rng() % 3);
    std::vector<std::uint64_t> costs(64);
    for (auto& c : costs) c = 1 + rng() % 100;
    std::vector<std::atomic<int>> hits(costs.size());
    std::atomic<std::uint64_t> sum{0};
    WeightedForStats stats;
    weighted_parallel_for(pool, costs,
                          [&](std::size_t i) {
                            ++hits[i];
                            sum += costs[i];
                          },
                          &stats);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
      expected += costs[i];
    }
    EXPECT_EQ(sum.load(), expected) << "round " << round;
  }
}

// Destroying a pool right after run() returns races the workers' way out
// of the job and back into their spin. Seeded, no sleeps — the
// interleavings come from scheduling jitter across many
// construct/run/destruct cycles.
TEST(ThreadPoolStress, ConstructSubmitDestructHammer) {
  std::mt19937 rng(0xD15EA5E);
  for (int round = 0; round < 200; ++round) {
    const std::size_t threads = 1 + rng() % 4;
    const std::size_t tasks = rng() % 65;
    std::atomic<std::size_t> ran{0};
    {
      ThreadPool pool(threads);
      pool.run(tasks, [&ran](std::size_t) { ++ran; });
    }
    EXPECT_EQ(ran.load(), tasks) << "round " << round;
  }
}

// Threads calling run() while another thread shuts the pool down. A call
// that loses the race runs its remaining indices on its own thread, so
// every call covers all of its indices, during shutdown and after it.
TEST(ThreadPoolStress, SubmitRacesShutdown) {
  std::mt19937 rng(0xBADF00D);
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(1 + rng() % 3);
    std::atomic<int> ran{0};
    std::vector<std::thread> submitters;
    const int submitter_count = 2 + int(rng() % 3);
    for (int s = 0; s < submitter_count; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 16; ++i) {
          pool.run(4, [&ran](std::size_t) { ++ran; });
        }
      });
    }
    pool.shutdown();
    for (auto& t : submitters) t.join();
    pool.run(4, [&ran](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), (submitter_count * 16 + 1) * 4) << "round " << round;
  }
}

}  // namespace
}  // namespace mobi::util
