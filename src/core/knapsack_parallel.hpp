// Parallel knapsack engine for large batches (thousands of candidates x
// large budgets): a multi-threaded branch-and-bound with a shared best
// bound and per-thread subproblem deques over util::ThreadPool, plus a
// word-parallel DP entry point (the kernel itself lives in knapsack.cpp,
// see detail::DpKernel).
//
// Determinism contract: ParallelKnapsackEngine::solve returns *exactly*
// the solve_dp answer — same chosen indices, same value double, same used
// units — for any thread count, including 1 (locked by the differential
// fuzz in tests/knapsack_parallel_test.cpp). It does so in two phases:
//
//   Phase 1 (parallel)  — find the optimal *value* V. Workers race over a
//     BFS-decomposed prefix of the density-ordered search tree; a shared
//     atomic incumbent only ever increases towards V, and pruning against
//     a racy read of it is benign (the max found is schedule-independent
//     when profit sums are exactly representable; see the caveat below).
//     Candidate incumbents are folded over ascending item indices so the
//     double matches the DP's accumulation order bit for bit.
//
//   Phase 2 (serial, caller thread) — reconstruct the DP-canonical set:
//     among all optimal subsets, solve_dp returns the mask-minimal one
//     (see knapsack.hpp). A DFS over indices n-1..0 that explores the
//     exclude branch first visits complete assignments in ascending-mask
//     order, so the first completion whose ascending-fold value reaches V
//     *is* the canonical set. LP-bound pruning and a take-the-rest
//     shortcut keep this phase tiny in practice.
//
// Exactness caveat: bit-identity across thread counts is guaranteed when
// optimal profit sums are exactly representable (e.g. profits on a
// modest binary grid, as everywhere in this codebase where scores are
// folded). With adversarial doubles whose near-optimal sums differ by
// less than the pruning epsilon (1e-12), phase 1 may keep either; the
// engine still returns an optimal-value canonical solution. Absorption
// is the other gap: when a positive profit vanishes into the running sum
// (1e17 + 1.0 == 1e17), solve_dp leaves the item out, but phase 2's
// take-the-rest step still takes it — {(1, 1e17), (1, 1.0)} at capacity
// 2 gives {0} from solve_dp and {0, 1} from the engine.
//
// If either phase exceeds its node budget the engine falls back to
// solve_dp on the caller thread — the *result* is the same either way, so
// a schedule-dependent fallback decision never shows in the output.
//
// Zero-allocation contract: all scratch (worker deques, subproblem pool,
// per-thread taken flags, reconstruction stacks) is grown to the
// high-water mark of the instances seen, exactly like KnapsackWorkspace;
// steady-state solves allocate nothing (tests/alloc_regression_test.cpp).
// The engine owns a util::ThreadPool of threads - 1 workers; phase 1 is
// one allocation-free ThreadPool::run of one index per worker slot, with
// the solving thread as the last searcher.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "core/knapsack.hpp"
#include "object/object.hpp"

namespace mobi::core {

struct ParallelBnbConfig {
  /// Searching threads, the solving thread included (the engine starts
  /// threads - 1 workers); 0 means std::thread::hardware_concurrency()
  /// (floor 1).
  std::size_t threads = 0;
  /// Target number of subproblems carved from the search-tree prefix; the
  /// decomposition depends only on the instance (never on the thread
  /// count), so work stealing cannot change what is explored.
  std::size_t subproblem_target = 64;
  /// Maximum prefix depth of the BFS decomposition (<= 60: a subproblem
  /// stores its taken-prefix as a 64-bit mask).
  std::size_t max_prefix_depth = 40;
  /// Per-phase node budget; exceeding it falls back to solve_dp.
  std::uint64_t node_limit = 20'000'000;
  /// Instances with at most this many items skip the parallel machinery
  /// and run the search inline on the caller thread.
  std::size_t serial_cutoff = 24;
};

/// Monotone since-construction totals; readable between solves.
struct ParallelBnbStats {
  std::uint64_t solves = 0;           // engine solve() calls
  std::uint64_t shortcut_solves = 0;  // settled by the take-all shortcut
  std::uint64_t bnb_runs = 0;         // reached the branch-and-bound
  std::uint64_t dp_fallbacks = 0;     // node budget hit -> solve_dp
  std::uint64_t subproblems = 0;      // prefix-tree subproblems dispatched
  std::uint64_t steals = 0;           // deque steals between workers
  std::uint64_t nodes = 0;            // phase-1 search nodes (all threads)
  std::uint64_t phase2_nodes = 0;     // canonical-reconstruction nodes
};

/// See the file comment for the algorithm and its contracts. One engine
/// per owner; solve() is not reentrant (the engine's own workers are the
/// only concurrency).
class ParallelKnapsackEngine {
 public:
  explicit ParallelKnapsackEngine(ParallelBnbConfig config = {});
  ~ParallelKnapsackEngine();
  ParallelKnapsackEngine(const ParallelKnapsackEngine&) = delete;
  ParallelKnapsackEngine& operator=(const ParallelKnapsackEngine&) = delete;

  std::size_t threads() const noexcept;

  /// Exact solve, bit-identical to solve_dp(items, capacity, ws, out).
  /// Borrows `ws` for the density order, shortcut scratch, and any DP
  /// fallback; allocation-free once engine + workspace are warm.
  void solve(std::span<const KnapsackItem> items, object::Units capacity,
             KnapsackWorkspace& ws, KnapsackSolution& out);

  /// Node and steal totals are schedule-dependent: report them, never
  /// compare them against a golden.
  const ParallelBnbStats& stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Single solve through the portable word-parallel DP kernel, whatever
/// kernel kAuto picks on this CPU; bit-identical to solve_dp.
/// Test/bench entry point for kernel differentials.
void solve_dp_word_parallel(std::span<const KnapsackItem> items,
                            object::Units capacity, KnapsackWorkspace& ws,
                            KnapsackSolution& out);

}  // namespace mobi::core
