// Differential fuzz suite for the flat bit-matrix KnapsackProfile: seeded
// random instances — zero-profit items, items larger than the capacity,
// capacity 0 — cross-checked against solve_dp, solve_branch_and_bound and
// (for small n) solve_brute_force at *every* capacity in the profile.
//
// Profits are multiples of 0.5 well below 2^53, so every partial sum is
// exactly representable and the comparisons are deliberately exact (==):
// the solvers must agree to the bit, whatever order they add profits in.
// The near-tie cases give that up on purpose: there only solve_dp is
// compared, against the profile whose additions it must repeat exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/knapsack.hpp"
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

// Profits shaped like the simulator's: sums of recency terms
// 1 - 1/(1 + |x/c - 1|) and k/3, k/7 rationals, over sizes 1..10. An item
// either spends one of two per-instance rates per unit of size (folded unit
// by unit or multiplied out) or carries one to three fresh terms whatever
// its size, so the densities of distinct items collide or differ by an ulp.
std::vector<KnapsackItem> near_tie_items(util::Rng& rng, std::size_t n) {
  const auto draw_term = [&rng] {
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const double x = double(rng.uniform_int(0, 4));
        const double c = double(rng.uniform_int(1, 4));
        return 1.0 - 1.0 / (1.0 + std::abs(x / c - 1.0));
      }
      case 1:
        return double(rng.uniform_int(1, 3)) / 3.0;
      default:
        return double(rng.uniform_int(1, 3)) / 7.0;
    }
  };
  const double rates[] = {draw_term(), draw_term()};
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.size = object::Units(rng.uniform_int(1, 10));
    const double rate = rates[rng.uniform_int(0, 1)];
    switch (rng.uniform_int(0, 2)) {
      case 0:
        for (object::Units u = 0; u < item.size; ++u) item.profit += rate;
        break;
      case 1:
        item.profit = rate * double(item.size);
        break;
      default:
        for (auto terms = rng.uniform_int(1, 3); terms > 0; --terms) {
          item.profit += draw_term();
        }
    }
  }
  return items;
}

// Recomputes value/used from the chosen indices and checks feasibility,
// ordering, and exact agreement with the reported fields.
void check_solution(const std::vector<KnapsackItem>& items,
                    const KnapsackSolution& solution, object::Units capacity,
                    double expected_value) {
  double value = 0.0;
  object::Units used = 0;
  std::size_t previous = 0;
  for (std::size_t k = 0; k < solution.chosen.size(); ++k) {
    const std::size_t index = solution.chosen[k];
    ASSERT_LT(index, items.size());
    if (k > 0) {
      ASSERT_GT(index, previous) << "indices not strictly ascending";
    }
    previous = index;
    // Strict-improvement DP and the B&B never take worthless items.
    EXPECT_GT(items[index].profit, 0.0);
    value += items[index].profit;
    used += items[index].size;
  }
  EXPECT_EQ(value, solution.value);
  EXPECT_EQ(used, solution.used);
  EXPECT_LE(used, capacity);
  EXPECT_EQ(solution.value, expected_value);
}

// Sweeps capacities 0..cap: the workspace overload of solve_dp must return
// the full profile's solution (chosen indices, value, used units) at each.
void expect_solve_dp_matches_profile(const std::vector<KnapsackItem>& items,
                                     object::Units cap, KnapsackWorkspace& ws,
                                     KnapsackSolution& out) {
  const KnapsackProfile profile(items, cap);
  for (object::Units c = 0; c <= cap; ++c) {
    const KnapsackSolution expected = profile.solution_at(c);
    solve_dp(items, c, ws, out);
    EXPECT_EQ(out.chosen, expected.chosen) << "cap " << c;
    EXPECT_EQ(out.value, expected.value) << "cap " << c;
    EXPECT_EQ(out.used, expected.used) << "cap " << c;
  }
}

TEST(KnapsackDiff, ProfileMatchesAllSolversOnRandomInstances) {
  util::Rng rng(20260805);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 12));
    // max item size up to 12 against capacities up to 25: a healthy
    // fraction of items exceed small capacities outright.
    const auto items = random_items(rng, n, 12);
    const auto cap = object::Units(rng.uniform_int(0, 25));
    const KnapsackProfile profile(items, cap);
    ASSERT_EQ(profile.max_capacity(), cap);
    ASSERT_EQ(profile.item_count(), n);

    double previous = 0.0;
    for (object::Units c = 0; c <= cap; ++c) {
      const double value = profile.value_at(c);
      EXPECT_GE(value, previous) << "value curve must be non-decreasing";
      previous = value;

      check_solution(items, profile.solution_at(c), c, value);
      EXPECT_EQ(solve_dp(items, c).value, value) << "cap " << c;
      EXPECT_EQ(solve_branch_and_bound(items, c).value, value)
          << "cap " << c;
      if (n <= 10) {
        EXPECT_EQ(solve_brute_force(items, c).value, value) << "cap " << c;
      }
    }
  }
}

TEST(KnapsackDiff, CapacityZeroTakesNothing) {
  util::Rng rng(7);
  const auto items = random_items(rng, 8, 5);
  const KnapsackProfile profile(items, 0);
  EXPECT_EQ(profile.value_at(0), 0.0);
  const KnapsackSolution solution = profile.solution_at(0);
  EXPECT_TRUE(solution.chosen.empty());
  EXPECT_EQ(solution.used, 0);
  EXPECT_EQ(solve_branch_and_bound(items, 0).value, 0.0);
}

TEST(KnapsackDiff, AllItemsLargerThanCapacity) {
  std::vector<KnapsackItem> items{{10, 5.0}, {12, 3.0}, {11, 7.5}};
  const KnapsackProfile profile(items, 9);
  for (object::Units c = 0; c <= 9; ++c) {
    EXPECT_EQ(profile.value_at(c), 0.0);
    EXPECT_TRUE(profile.solution_at(c).chosen.empty());
    EXPECT_EQ(solve_branch_and_bound(items, c).value, 0.0);
  }
}

TEST(KnapsackDiff, ZeroProfitItemsNeverChosen) {
  std::vector<KnapsackItem> items{{1, 0.0}, {2, 4.0}, {1, 0.0}, {3, 6.0}};
  const KnapsackProfile profile(items, 6);
  const KnapsackSolution solution = profile.solution_at(6);
  EXPECT_EQ(solution.value, 10.0);
  EXPECT_EQ(solution.chosen, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(solve_branch_and_bound(items, 6).value, 10.0);
}

TEST(KnapsackDiff, EmptyInstance) {
  const std::vector<KnapsackItem> none;
  const KnapsackProfile profile(none, 5);
  for (object::Units c = 0; c <= 5; ++c) {
    EXPECT_EQ(profile.value_at(c), 0.0);
    EXPECT_TRUE(profile.solution_at(c).chosen.empty());
  }
}

// The workspace overload of solve_dp drops the items that cannot enter an
// optimum, tries the take-all shortcut, and otherwise runs the DP over the
// rest. Both steps are exact, so at every capacity the answer must equal
// the full profile's to the bit. The pinned instance comes first: items
// 2-4 sit one ulp above item 1 in density, so a density-order argument
// picks {0, 2, 3, 4} (4.9999999999999991) while the DP takes {0, 1},
// worth exactly 5.0.
TEST(KnapsackDiff, WorkspaceSolveDpMatchesProfileAtEveryCapacity) {
  KnapsackWorkspace ws;
  KnapsackSolution reused;
  const double p = 0.33333333333333337;  // 1 - 2/3 in doubles
  expect_solve_dp_matches_profile(
      {{1, 4.0}, {6, 1.0}, {2, p}, {2, p}, {2, p}}, 7, ws, reused);
  util::Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = std::size_t(rng.uniform_int(0, 14));
    const auto items = random_items(rng, n, 10);
    const auto cap = object::Units(rng.uniform_int(0, 60));
    expect_solve_dp_matches_profile(items, cap, ws, reused);
  }
}

// 1e17 + 1.0 rounds back to 1e17, so the DP cannot see item 1 and leaves
// it out. Take-all must decline rather than claim both items.
TEST(KnapsackDiff, TakeAllDeclinesWhenAProfitIsAbsorbed) {
  const std::vector<KnapsackItem> items{{1, 1e17}, {1, 1.0}};
  KnapsackWorkspace ws;
  KnapsackSolution out;
  EXPECT_FALSE(detail::take_all_shortcut(items, 2, out));
  EXPECT_EQ(solve_dp(items, 2).chosen, (std::vector<std::size_t>{0}));
  expect_solve_dp_matches_profile(items, 2, ws, out);
}

TEST(KnapsackDiff, NearTieFuzzSolveDpMatchesProfileAtEveryCapacity) {
  util::Rng rng(20000815);
  KnapsackWorkspace ws;
  KnapsackSolution out;
  for (int trial = 0; trial < 500; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = std::size_t(rng.uniform_int(2, 14));
    const auto items = near_tie_items(rng, n);
    const auto cap = object::Units(rng.uniform_int(1, 50));
    expect_solve_dp_matches_profile(items, cap, ws, out);
  }
}

// A workspace borrowed across calls with growing *and* shrinking problem
// sizes must behave exactly like a fresh solve every time — stale buffer
// contents from a larger earlier instance must never leak into a smaller
// later one. Covers both workspace solvers.
TEST(KnapsackDiff, WorkspaceReuseMatchesFreshAcrossVaryingSizes) {
  util::Rng rng(4242);
  KnapsackWorkspace ws;
  KnapsackSolution reused;
  // Capacities deliberately spike up then collapse, repeatedly.
  const object::Units caps[] = {5, 120, 0, 37, 200, 3, 64, 1, 90, 12};
  for (int round = 0; round < 8; ++round) {
    for (object::Units cap : caps) {
      const std::size_t n = std::size_t(rng.uniform_int(0, 20));
      const auto items = random_items(rng, n, 15);

      solve_dp(items, cap, ws, reused);
      const KnapsackSolution fresh_dp = solve_dp(items, cap);
      EXPECT_EQ(reused.chosen, fresh_dp.chosen);
      EXPECT_EQ(reused.value, fresh_dp.value);
      EXPECT_EQ(reused.used, fresh_dp.used);

      solve_greedy(items, cap, ws, reused);
      const KnapsackSolution fresh_greedy = solve_greedy(items, cap);
      EXPECT_EQ(reused.chosen, fresh_greedy.chosen);
      EXPECT_EQ(reused.value, fresh_greedy.value);
      EXPECT_EQ(reused.used, fresh_greedy.used);
    }
  }
}

// Wide capacities exercise multi-word bit rows (row_words > 1) including
// the word-boundary columns 63/64/127/128.
TEST(KnapsackDiff, WideCapacityCrossesWordBoundaries) {
  util::Rng rng(99);
  const auto items = random_items(rng, 10, 40);
  const object::Units cap = 200;
  const KnapsackProfile profile(items, cap);
  for (object::Units c : {0, 1, 63, 64, 65, 127, 128, 129, 199, 200}) {
    const double value = profile.value_at(c);
    check_solution(items, profile.solution_at(c), c, value);
    EXPECT_EQ(solve_branch_and_bound(items, c).value, value);
    EXPECT_EQ(solve_brute_force(items, c).value, value);
  }
}

}  // namespace
}  // namespace mobi::core
