// Differential fuzz + adversarial regression + work-distribution stress
// for the parallel knapsack engine (core/knapsack_parallel.hpp) and the
// word-parallel DP kernels (core/knapsack.hpp, detail::DpKernel).
//
// The contract under test: every kernel and the parallel branch-and-bound
// return *exactly* the solve_dp answer — same chosen indices, same value
// double, same used units — at every capacity and for every pool size,
// i.e. bit-identical results independent of thread count. Profits are
// multiples of 0.5 well below 2^53 (as in knapsack_diff_test.cpp), so
// partial sums are exactly representable and comparisons are exact (==).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/knapsack.hpp"
#include "core/knapsack_parallel.hpp"
#include "util/rng.hpp"

namespace mobi::core {
namespace {

std::vector<KnapsackItem> random_items(util::Rng& rng, std::size_t n,
                                       object::Units max_size) {
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.size = object::Units(rng.uniform_int(1, max_size));
    // Exactly-representable profits; ~1 in 6 items is worthless.
    item.profit = rng.bernoulli(1.0 / 6.0)
                      ? 0.0
                      : 0.5 * double(rng.uniform_int(1, 40));
  }
  return items;
}

void expect_same(const KnapsackSolution& got, const KnapsackSolution& want,
                 const std::string& what) {
  EXPECT_EQ(got.chosen, want.chosen) << what;
  EXPECT_EQ(got.value, want.value) << what;
  EXPECT_EQ(got.used, want.used) << what;
}

/// Engines for every pool size under test, configured so even small fuzz
/// instances exercise the full parallel machinery (decomposition, deques,
/// stealing) instead of the serial-cutoff inline path.
struct EngineFleet {
  static constexpr std::size_t kPools[] = {1, 2, 4, 8};

  EngineFleet() {
    ParallelBnbConfig config;
    config.serial_cutoff = 4;
    config.subproblem_target = 16;
    for (std::size_t threads : kPools) {
      config.threads = threads;
      engines.push_back(std::make_unique<ParallelKnapsackEngine>(config));
    }
  }

  void check_all(const std::vector<KnapsackItem>& items, object::Units cap,
                 const KnapsackSolution& expected, const std::string& what) {
    for (auto& engine : engines) {
      engine->solve(items, cap, ws, out);
      expect_same(out, expected,
                  what + " pool=" + std::to_string(engine->threads()));
    }
  }

  std::vector<std::unique_ptr<ParallelKnapsackEngine>> engines;
  KnapsackWorkspace ws;
  KnapsackSolution out;
};

// ---------------------------------------------------------------------------
// Differential fuzz
// ---------------------------------------------------------------------------

// Random instances (zero-profit items, items larger than the capacity)
// swept at *every* capacity 0..cap: the engine at pools 1/2/4/8 and the
// forced word-parallel DP must reproduce solve_dp bit for bit.
TEST(KnapsackParallel, DifferentialFuzzEveryCapacityAcrossPools) {
  util::Rng rng(20260808);
  EngineFleet fleet;
  KnapsackWorkspace dp_ws, wp_ws;
  KnapsackSolution expected, wp_out;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 16));
    const auto items = random_items(rng, n, 12);
    const auto cap = object::Units(rng.uniform_int(0, 40));
    for (object::Units c = 0; c <= cap; ++c) {
      const std::string what =
          "trial " + std::to_string(trial) + " cap " + std::to_string(c);
      solve_dp(items, c, dp_ws, expected);
      solve_dp_word_parallel(items, c, wp_ws, wp_out);
      expect_same(wp_out, expected, what + " word-parallel dp");
      fleet.check_all(items, c, expected, what);
    }
  }
}

// Larger instances (only the top capacity): enough depth for the BFS
// decomposition to emit many subproblems per solve.
TEST(KnapsackParallel, DifferentialFuzzLargeInstances) {
  util::Rng rng(987654321);
  EngineFleet fleet;
  KnapsackWorkspace dp_ws;
  KnapsackSolution expected;
  std::uint64_t subproblems_before = 0;
  for (auto& engine : fleet.engines) {
    subproblems_before += engine->stats().subproblems;
  }
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(24, 64));
    const auto items = random_items(rng, n, 10);
    const auto cap = object::Units(rng.uniform_int(20, 300));
    solve_dp(items, cap, dp_ws, expected);
    fleet.check_all(items, cap, expected, "trial " + std::to_string(trial));
  }
  std::uint64_t subproblems_after = 0;
  for (auto& engine : fleet.engines) {
    subproblems_after += engine->stats().subproblems;
  }
  // The parallel machinery really ran (not everything shortcut/inline).
  EXPECT_GT(subproblems_after, subproblems_before);
}

// Word-boundary capacities 63/64/65 (plus 127/128) cross the packed
// decision-row word edges in both the kernel repack and the engine.
TEST(KnapsackParallel, WordBoundaryCapacities) {
  util::Rng rng(424242);
  EngineFleet fleet;
  KnapsackWorkspace dp_ws, wp_ws;
  KnapsackSolution expected, wp_out;
  for (int trial = 0; trial < 6; ++trial) {
    const auto items = random_items(rng, 24, 6);
    for (object::Units cap : {63, 64, 65, 127, 128}) {
      const std::string what =
          "trial " + std::to_string(trial) + " cap " + std::to_string(cap);
      solve_dp(items, cap, dp_ws, expected);
      solve_dp_word_parallel(items, cap, wp_ws, wp_out);
      expect_same(wp_out, expected, what + " word-parallel dp");
      fleet.check_all(items, cap, expected, what);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel differential: every supported DpKernel produces the identical
// value curve *and* decision bit-matrix.
// ---------------------------------------------------------------------------

TEST(KnapsackParallel, DpKernelsBitIdentical) {
  using detail::DpKernel;
  util::Rng rng(1337);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 40));
    const auto items = random_items(rng, n, 9);
    const auto cap = std::size_t(rng.uniform_int(0, 150));
    const std::size_t row_words = (cap + 1 + 63) / 64;

    KnapsackWorkspace ref_ws;
    detail::dp_fill(items, cap, ref_ws, row_words, DpKernel::kScalar);
    const auto ref_values = detail::WorkspaceAccess::values(ref_ws);
    const auto ref_bits = detail::WorkspaceAccess::take_bits(ref_ws);

    for (DpKernel kernel : {DpKernel::kAuto, DpKernel::kWordParallel,
                            DpKernel::kWordParallelAvx2}) {
      if (!detail::dp_kernel_supported(kernel)) continue;
      KnapsackWorkspace ws;
      detail::dp_fill(items, cap, ws, row_words, kernel);
      EXPECT_EQ(detail::WorkspaceAccess::values(ws), ref_values)
          << "trial " << trial << " kernel " << int(kernel);
      EXPECT_EQ(detail::WorkspaceAccess::take_bits(ws), ref_bits)
          << "trial " << trial << " kernel " << int(kernel);
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial instances, pinned as named cases: future pruning changes
// must not silently reorder selections.
// ---------------------------------------------------------------------------

// Every subset of equal-density items ties the LP bound, the worst case
// for branch-and-bound pruning. Canonical tie-break: the mask-minimal
// optimal subset (lowest indices win).
TEST(KnapsackParallel, AdversarialAllEqualDensities) {
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 20; ++i) {
    items.push_back({object::Units(i + 1), 0.5 * double(i + 1)});  // density 0.5
  }
  const object::Units cap = 50;
  const KnapsackSolution expected = solve_dp(items, cap);
  // Exact fill is achievable, so the optimum is density * cap...
  EXPECT_EQ(expected.value, 25.0);
  EXPECT_EQ(expected.used, cap);
  // ...and the canonical subset is pinned.
  EXPECT_EQ(expected.chosen,
            (std::vector<std::size_t>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
  EngineFleet fleet;
  fleet.check_all(items, cap, expected, "all-equal densities");
}

// One item fills the knapsack alone against many small high-density
// items; the giant must lose to the denser pile.
TEST(KnapsackParallel, AdversarialOneGiantItem) {
  std::vector<KnapsackItem> items{{40, 30.0}};  // the giant: density 0.75
  for (int i = 0; i < 12; ++i) items.push_back({3, 3.0});  // density 1.0
  const object::Units cap = 40;
  const KnapsackSolution expected = solve_dp(items, cap);
  EXPECT_EQ(expected.value, 36.0);  // 12 * 3.0 beats the giant's 30.0
  EXPECT_EQ(expected.chosen,
            (std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  EngineFleet fleet;
  fleet.check_all(items, cap, expected, "one giant item");
}

// Duplicate (size, profit) pairs force pure index tie-breaks: only one of
// the clones fits, and the canonical answer is the lowest-index clone.
TEST(KnapsackParallel, AdversarialDuplicateProfitsTieBreak) {
  const std::vector<KnapsackItem> items{
      {5, 7.5}, {5, 7.5}, {5, 7.5}, {5, 7.5}, {2, 1.0}};
  const object::Units cap = 7;
  const KnapsackSolution expected = solve_dp(items, cap);
  EXPECT_EQ(expected.value, 8.5);
  EXPECT_EQ(expected.chosen, (std::vector<std::size_t>{0, 4}));
  EngineFleet fleet;
  fleet.check_all(items, cap, expected, "duplicate profits");
}

// Capacity larger than the total weight: the take-all shortcut fires and
// returns every positive-profit item (zero-profit ones never chosen).
TEST(KnapsackParallel, AdversarialCapLargerThanTotalWeight) {
  const std::vector<KnapsackItem> items{
      {4, 2.0}, {3, 0.0}, {5, 9.5}, {2, 1.5}, {6, 0.0}};
  const object::Units cap = 100;
  const KnapsackSolution expected = solve_dp(items, cap);
  EXPECT_EQ(expected.chosen, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(expected.value, 13.0);
  EXPECT_EQ(expected.used, 11);
  EngineFleet fleet;
  fleet.check_all(items, cap, expected, "cap > total weight");
  // It really was the shortcut, on every engine.
  for (auto& engine : fleet.engines) {
    EXPECT_GT(engine->stats().shortcut_solves, 0u);
  }
}

// Items 2-4 sit one ulp above item 1 in density, yet {0, 1} is worth
// exactly 5.0 while the density-order fill {0, 2, 3, 4} folds to
// 4.9999999999999991. Profits here are not on a binary grid, so the
// engine is held to the full profile, with the search decomposed even
// for this small instance.
TEST(KnapsackParallel, AdversarialNearTieDensities) {
  const double p = 0.33333333333333337;  // 1 - 2/3 in doubles
  const std::vector<KnapsackItem> items{
      {1, 4.0}, {6, 1.0}, {2, p}, {2, p}, {2, p}};
  const object::Units cap = 7;
  const KnapsackSolution expected =
      KnapsackProfile(items, cap).solution_at(cap);
  EXPECT_EQ(expected.chosen, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(expected.value, 5.0);
  ParallelBnbConfig config;
  config.serial_cutoff = 0;
  for (std::size_t threads : {1, 2, 4}) {
    config.threads = threads;
    ParallelKnapsackEngine engine(config);
    KnapsackWorkspace ws;
    KnapsackSolution out;
    engine.solve(items, cap, ws, out);
    expect_same(out, expected, "near tie pool=" + std::to_string(threads));
  }
}

// A tiny node budget must degrade to the DP fallback, never to a wrong or
// thread-count-dependent answer.
TEST(KnapsackParallel, NodeLimitFallbackMatchesDp) {
  util::Rng rng(5150);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 40; ++i) {
    // Equal densities again: maximally prune-resistant.
    const auto size = object::Units(rng.uniform_int(1, 9));
    items.push_back({size, 0.5 * double(size)});
  }
  const object::Units cap = 60;
  const KnapsackSolution expected = solve_dp(items, cap);
  ParallelBnbConfig config;
  config.serial_cutoff = 4;
  // Phase-1 node accounting flushes in 4096-node chunks per worker slot,
  // so a prune-friendly phase 1 may finish under any limit — but phase 2
  // counts every node exactly and needs ~n of them, so a limit of 2
  // guarantees the abort on every pool size.
  config.node_limit = 2;
  for (std::size_t threads : {1, 2, 8}) {
    config.threads = threads;
    ParallelKnapsackEngine engine(config);
    KnapsackWorkspace ws;
    KnapsackSolution out;
    engine.solve(items, cap, ws, out);
    expect_same(out, expected, "fallback pool=" + std::to_string(threads));
    EXPECT_GT(engine.stats().dp_fallbacks, 0u)
        << "pool=" << threads << ": expected the node budget to trip";
  }
}

// ---------------------------------------------------------------------------
// Work distribution stress
// ---------------------------------------------------------------------------

// Hammers one 8-thread engine with back-to-back decomposed solves: many
// subproblems per solve over the per-thread deques (and whatever steals
// the scheduler produces) must never change a single selection.
TEST(KnapsackParallel, ThreadPoolStressManySubproblemSolves) {
  util::Rng rng(777);
  ParallelBnbConfig config;
  config.threads = 8;
  config.serial_cutoff = 0;
  config.subproblem_target = 64;
  ParallelKnapsackEngine engine(config);
  ASSERT_EQ(engine.threads(), 8u);
  KnapsackWorkspace engine_ws, dp_ws;
  KnapsackSolution out, expected;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(30, 70));
    const auto items = random_items(rng, n, 8);
    const auto cap = object::Units(rng.uniform_int(30, 200));
    solve_dp(items, cap, dp_ws, expected);
    engine.solve(items, cap, engine_ws, out);
    expect_same(out, expected, "stress trial " + std::to_string(trial));
  }
  const ParallelBnbStats& stats = engine.stats();
  EXPECT_EQ(stats.solves, 40u);
  EXPECT_GT(stats.bnb_runs, 0u);
  EXPECT_GT(stats.subproblems, stats.bnb_runs);  // real decompositions
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_EQ(stats.dp_fallbacks, 0u);
}

// Same engine object reused across wildly varying instance sizes (the
// grow-only scratch contract): spikes up, collapses, spikes again.
TEST(KnapsackParallel, EngineReuseAcrossVaryingSizes) {
  util::Rng rng(31415);
  ParallelBnbConfig config;
  config.threads = 4;
  config.serial_cutoff = 4;
  ParallelKnapsackEngine engine(config);
  KnapsackWorkspace engine_ws, dp_ws;
  KnapsackSolution out, expected;
  const std::size_t sizes[] = {50, 3, 64, 0, 17, 60, 1, 33};
  for (int round = 0; round < 4; ++round) {
    for (std::size_t n : sizes) {
      const auto items = random_items(rng, n, 10);
      const auto cap = object::Units(rng.uniform_int(0, 120));
      solve_dp(items, cap, dp_ws, expected);
      engine.solve(items, cap, engine_ws, out);
      expect_same(out, expected, "reuse n=" + std::to_string(n));
    }
  }
}

// Validation parity with the serial solvers.
TEST(KnapsackParallel, RejectsBadInput) {
  ParallelBnbConfig config;
  config.threads = 1;
  ParallelKnapsackEngine engine(config);
  KnapsackWorkspace ws;
  KnapsackSolution out;
  const std::vector<KnapsackItem> bad_size{{0, 1.0}};
  EXPECT_THROW(engine.solve(bad_size, 5, ws, out), std::invalid_argument);
  const std::vector<KnapsackItem> bad_profit{{1, -1.0}};
  EXPECT_THROW(engine.solve(bad_profit, 5, ws, out), std::invalid_argument);
  const std::vector<KnapsackItem> fine{{1, 1.0}};
  EXPECT_THROW(engine.solve(fine, -1, ws, out), std::invalid_argument);
}

}  // namespace
}  // namespace mobi::core
