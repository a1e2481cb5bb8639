// 0/1 knapsack solvers (paper §2: "the problem maps to the knapsack
// problem [3] and we use dynamic programming to solve it").
//
// The exact DP computes, in one pass, the optimal value at *every*
// capacity up to the bound — the KnapsackProfile — which is precisely what
// §4 plots (Average Score as a function of the upper bound on units
// downloaded) and what the bound estimator (§6 future work) consumes.
// A greedy density heuristic and an FPTAS are provided as the polynomial
// approximations the paper mentions.
//
// The solve is the per-batch hot path of every cell (docs/performance.md),
// so the DP, the greedy solver and KnapsackProfile can borrow a
// KnapsackWorkspace: a bundle of scratch buffers that grow to the
// high-water mark of the instances seen and are then reused
// allocation-free across batches. Workspace-backed solves are
// bit-identical to fresh-construction solves (locked by the differential
// fuzz in tests/knapsack_diff_test.cpp). The FPTAS, which no policy runs,
// keeps its scratch in locals.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "object/object.hpp"

namespace mobi::core {

struct KnapsackItem {
  object::Units size = 1;   // > 0
  double profit = 0.0;      // >= 0
};

struct KnapsackSolution {
  double value = 0.0;
  object::Units used = 0;
  std::vector<std::size_t> chosen;  // indices into the item span, ascending

  /// Resets to the empty solution; `chosen` keeps its capacity so a
  /// KnapsackSolution retained across batches never reallocates.
  void reset() noexcept {
    value = 0.0;
    used = 0;
    chosen.clear();
  }
};

class KnapsackProfile;

namespace detail {
struct WorkspaceAccess;
}  // namespace detail

/// Reusable scratch for the solvers and for KnapsackProfile. Buffers only
/// ever grow (capacity high-water mark); contents are overwritten by each
/// borrowing solve, so a workspace must not back two live profiles at
/// once. One workspace per policy/thread — it is not synchronized.
class KnapsackWorkspace {
 public:
  KnapsackWorkspace() = default;
  KnapsackWorkspace(const KnapsackWorkspace&) = delete;
  KnapsackWorkspace& operator=(const KnapsackWorkspace&) = delete;

 private:
  friend class KnapsackProfile;
  friend struct detail::WorkspaceAccess;
  friend void solve_dp(std::span<const KnapsackItem>, object::Units,
                       KnapsackWorkspace&, KnapsackSolution&);
  friend void solve_greedy(std::span<const KnapsackItem>, object::Units,
                           KnapsackWorkspace&, KnapsackSolution&);

  std::vector<double> values_;          // profile value curve
  std::vector<double> values_prev_;     // word-parallel kernel's second row
  std::vector<std::uint64_t> take_bits_;  // profile decision bits
  std::vector<object::Units> item_sizes_;
  std::vector<std::size_t> order_;      // density order (greedy, engine)
  std::vector<KnapsackItem> live_items_;  // solve_dp: items that can enter
  std::vector<std::size_t> live_index_;   // ... and their caller indices
};

/// Internal building blocks shared by the serial solvers, the parallel
/// engine (knapsack_parallel.hpp), and the differential tests. Not a
/// stable API for simulation code.
namespace detail {

/// Throws std::invalid_argument unless every size is > 0 and every profit
/// is finite and >= 0.
void validate_items(std::span<const KnapsackItem> items);

/// Density order shared by the greedy solver and the parallel
/// branch-and-bound: profit density descending, then size ascending, then
/// index ascending.
void density_order(std::span<const KnapsackItem> items,
                   std::vector<std::size_t>& order);

/// The exactness shortcut: all positive-profit items fit together and each
/// strictly raises the ascending profit fold. Returns true and writes the
/// (forced) DP-canonical optimum into `out`; otherwise returns false and
/// leaves `out` untouched.
bool take_all_shortcut(std::span<const KnapsackItem> items,
                       object::Units capacity, KnapsackSolution& out);

/// Inner DP kernel used to fill the profile's value curve + decision
/// bit-matrix. All kernels are bit-identical (locked by the differential
/// suite in tests/knapsack_parallel_test.cpp):
///  * kScalar       — the classic in-place descending-capacity loop.
///  * kWordParallel — two-row forward kernel: a branch-free value pass the
///    compiler auto-vectorizes, then a word-parallel repack that emits 64
///    decision bits per output word from a lane-comparison sweep.
///  * kWordParallelAvx2 — the same kernel body compiled for AVX2 via
///    function multiversioning; selected at runtime when the CPU supports
///    it (x86-64 builds only).
/// kAuto resolves, once per process, to the best kernel this CPU
/// supports; tests and benches pass a kernel explicitly to compare them.
enum class DpKernel { kAuto, kScalar, kWordParallel, kWordParallelAvx2 };

/// Whether this build/CPU can execute the given kernel.
bool dp_kernel_supported(DpKernel kernel) noexcept;

/// Resizes ws.values_ / ws.take_bits_ (and ws.values_prev_ for the
/// two-row kernels) and fills the optimal value curve for capacities
/// 0..cap plus the flat take-bit matrix (`row_words` words per item row).
/// Grow-only resizes: allocation-free once the workspace is warm.
void dp_fill(std::span<const KnapsackItem> items, std::size_t cap,
             KnapsackWorkspace& ws, std::size_t row_words,
             DpKernel kernel = DpKernel::kAuto);

/// Test/engine access to the private workspace buffers.
struct WorkspaceAccess {
  static std::vector<double>& values(KnapsackWorkspace& ws) {
    return ws.values_;
  }
  static std::vector<double>& values_prev(KnapsackWorkspace& ws) {
    return ws.values_prev_;
  }
  static std::vector<std::uint64_t>& take_bits(KnapsackWorkspace& ws) {
    return ws.take_bits_;
  }
  static std::vector<object::Units>& item_sizes(KnapsackWorkspace& ws) {
    return ws.item_sizes_;
  }
  static std::vector<std::size_t>& order(KnapsackWorkspace& ws) {
    return ws.order_;
  }
};

}  // namespace detail

/// Exact optimal values for every capacity 0..max_capacity, with item
/// reconstruction at any capacity. The decision matrix is one flat
/// allocation of n rows x (max_capacity + 1) bits, packed into 64-bit
/// words (each row padded to a whole word), so memory is exactly
/// n * ceil((max_capacity + 1) / 64) words plus O(max_capacity) doubles —
/// no per-row vector headers, and row i lives contiguously at
/// [i * row_words, (i + 1) * row_words).
///
/// Constructed with an external KnapsackWorkspace the profile borrows the
/// workspace's buffers instead of allocating its own; the profile is then
/// valid only while the workspace outlives it and until the workspace is
/// lent to another solve. Profiles are neither copyable nor movable.
class KnapsackProfile {
 public:
  KnapsackProfile(std::span<const KnapsackItem> items,
                  object::Units max_capacity);
  KnapsackProfile(std::span<const KnapsackItem> items,
                  object::Units max_capacity, KnapsackWorkspace& workspace);

  KnapsackProfile(const KnapsackProfile&) = delete;
  KnapsackProfile& operator=(const KnapsackProfile&) = delete;

  object::Units max_capacity() const noexcept {
    return object::Units(ws_->values_.size()) - 1;
  }
  std::size_t item_count() const noexcept { return ws_->item_sizes_.size(); }

  /// Optimal total profit at capacity c (0 <= c <= max_capacity).
  double value_at(object::Units c) const;
  /// The full value curve, indexed by capacity (size max_capacity + 1).
  const std::vector<double>& values() const noexcept { return ws_->values_; }

  /// An optimal item subset at capacity c.
  KnapsackSolution solution_at(object::Units c) const;
  /// Same, written into `out` (cleared first) — allocation-free once
  /// out.chosen has capacity.
  void solution_into(object::Units c, KnapsackSolution& out) const;

 private:
  struct AlreadyValidated {};
  KnapsackProfile(std::span<const KnapsackItem> items,
                  object::Units max_capacity, KnapsackWorkspace* workspace,
                  AlreadyValidated);
  friend void solve_dp(std::span<const KnapsackItem>, object::Units,
                       KnapsackWorkspace&, KnapsackSolution&);

  void build(std::span<const KnapsackItem> items, object::Units max_capacity);

  bool taken(std::size_t item, std::size_t c) const noexcept {
    return (ws_->take_bits_[item * row_words_ + (c >> 6)] >> (c & 63)) & 1u;
  }

  KnapsackWorkspace own_;        // backs ws_ when no workspace was lent
  KnapsackWorkspace* ws_;        // &own_ or the external workspace
  std::size_t row_words_ = 0;    // 64-bit words per row
};

/// Exact DP solution at a single capacity.
///
/// Tie-break contract: among all optimal subsets the DP reconstruction
/// returns the *mask-minimal* one — the subset whose characteristic
/// bitmask (item i -> bit i) is smallest as an integer, i.e. at the
/// highest index where two optimal subsets differ, the canonical one
/// excludes that item. (The strict-improvement bit test walks indices
/// from the top and takes an item only when doing so is strictly
/// better, which greedily clears the highest differing bit.) Zero-profit
/// items are never taken. Every solver that promises solve_dp-identical
/// selections — the parallel engine in knapsack_parallel.hpp — targets
/// exactly this subset.
KnapsackSolution solve_dp(std::span<const KnapsackItem> items,
                          object::Units capacity);

/// Allocation-free exact solve into `out`, borrowing `ws` for scratch.
/// Items are validated exactly once here. The DP runs only over the items
/// that can enter an optimum (positive profit, size <= capacity): a
/// zero-profit row computes max(prev[c], prev[c - s] + 0.0), which is
/// prev[c] on the monotone value curve, so it never sets a bit or moves a
/// value, and every kernel skips a row larger than the capacity. When the
/// kept items all fit, the take-all shortcut (docs/performance.md) skips
/// the DP. Both steps are exact, so chosen, value and used equal
/// KnapsackProfile(items, capacity).solution_at(capacity) bit for bit,
/// floating-point near-ties included (tests/knapsack_diff_test.cpp).
void solve_dp(std::span<const KnapsackItem> items, object::Units capacity,
              KnapsackWorkspace& ws, KnapsackSolution& out);

/// Greedy by profit density (profit/size), with the classic best-single-
/// item fallback; a 1/2-approximation. O(n log n).
KnapsackSolution solve_greedy(std::span<const KnapsackItem> items,
                              object::Units capacity);
void solve_greedy(std::span<const KnapsackItem> items, object::Units capacity,
                  KnapsackWorkspace& ws, KnapsackSolution& out);

/// Fully polynomial approximation scheme via profit scaling: returns a
/// feasible solution with value >= (1 - epsilon) * OPT.
/// Memory grows as O(n^2 * (n/epsilon)) bits; throws std::invalid_argument
/// if that would exceed ~64 MiB (keep n or 1/epsilon moderate).
KnapsackSolution solve_fptas(std::span<const KnapsackItem> items,
                             object::Units capacity, double epsilon);

/// Exhaustive search; only for tests (throws if items.size() > 30).
KnapsackSolution solve_brute_force(std::span<const KnapsackItem> items,
                                   object::Units capacity);

/// Exact branch-and-bound with the fractional (LP) relaxation bound.
/// Often much faster than DP when the capacity is large relative to n;
/// worst case exponential. `node_limit` caps the search (throws
/// std::runtime_error when exceeded) so callers cannot hang.
KnapsackSolution solve_branch_and_bound(std::span<const KnapsackItem> items,
                                        object::Units capacity,
                                        std::uint64_t node_limit = 10'000'000);

}  // namespace mobi::core
