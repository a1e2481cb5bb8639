#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mobi::core {

namespace detail {

void validate_items(std::span<const KnapsackItem> items) {
  for (const KnapsackItem& item : items) {
    if (item.size <= 0) {
      throw std::invalid_argument("knapsack: item sizes must be > 0");
    }
    if (item.profit < 0.0 || !std::isfinite(item.profit)) {
      throw std::invalid_argument("knapsack: profits must be finite, >= 0");
    }
  }
}

/// Density order shared by the greedy solver and the parallel
/// branch-and-bound: profit density descending, then size ascending, then
/// index ascending.
void density_order(std::span<const KnapsackItem> items,
                   std::vector<std::size_t>& order) {
  order.resize(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = items[a].profit / double(items[a].size);
    const double db = items[b].profit / double(items[b].size);
    if (da != db) return da > db;
    if (items[a].size != items[b].size) return items[a].size < items[b].size;
    return a < b;
  });
}

/// The one exactness shortcut. Suppose every positive-profit item fits in
/// the capacity together. By induction over the DP rows, at any capacity
/// that holds positives 0..i the value is the ascending fold F_i of their
/// profits, and row i sets its decision bit there exactly when
/// F_i > F_{i-1}. So if each profit strictly raises the fold, the DP takes
/// every positive item and its value is the fold. If a profit is absorbed
/// (1e17 + 1.0 == 1e17) the DP leaves that item out; the shortcut then
/// declines and lets the DP decide.
bool take_all_shortcut(std::span<const KnapsackItem> items,
                       object::Units capacity, KnapsackSolution& out) {
  object::Units need = 0;
  double sum = 0.0;
  for (const KnapsackItem& item : items) {
    if (item.profit > 0.0) {
      need += item.size;
      const double raised = sum + item.profit;
      if (need > capacity || !(raised > sum)) return false;
      sum = raised;
    }
  }
  out.reset();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].profit > 0.0) {
      out.chosen.push_back(i);
      out.used += items[i].size;
    }
  }
  out.value = sum;
  return true;
}

// ---------------------------------------------------------------------------
// DP kernels. All three produce bit-identical value curves and decision
// matrices; the word-parallel pair trades the scalar loop's early-exit
// branch for straight-line lane math that vectorizes.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) && defined(__GNUC__)
#define MOBI_KNAPSACK_AVX2_DISPATCH 1
#else
#define MOBI_KNAPSACK_AVX2_DISPATCH 0
#endif

namespace {

/// The classic in-place descending-capacity row update. `values` must be
/// zero-filled, `bits` zero-filled with `row_words` words per item row.
void dp_kernel_scalar(std::span<const KnapsackItem> items, std::size_t cap,
                      double* values, std::uint64_t* bits,
                      std::size_t row_words) {
  std::uint64_t* row = bits;
  for (std::size_t i = 0; i < items.size(); ++i, row += row_words) {
    const auto size = std::size_t(items[i].size);
    const double profit = items[i].profit;
    if (size > cap) continue;
    for (std::size_t c = cap; c >= size; --c) {
      const double candidate = values[c - size] + profit;
      if (candidate > values[c]) {
        values[c] = candidate;
        row[c >> 6] |= std::uint64_t{1} << (c & 63);
      }
      if (c == size) break;  // avoid size_t underflow
    }
  }
}

/// Two-row word-parallel kernel body. Instead of updating one row in
/// place right-to-left (a loop-carried dependence plus an unpredictable
/// store branch), each item reads `prev` and writes `curr`:
///
///   curr[c] = max(prev[c], prev[c - size] + profit)      (c >= size)
///   curr[c] = prev[c]                                    (c <  size)
///
/// which is the same recurrence, so values are bit-identical — and the
/// max form is branch-free, letting the compiler turn the value pass into
/// packed-double maxpd lanes. The decision bit is `curr[c] > prev[c]`
/// (taking strictly improved), packed 64 columns per word so each output
/// word of the flat bit-matrix is produced by one lane-comparison sweep.
/// `curr > prev` equals the scalar kernel's `candidate > values[c]` test:
/// curr is either prev (bit 0) or a strictly greater candidate (bit 1).
///
/// Buffer parity: the caller pre-swaps so that after one swap per
/// *effective* item (size <= cap; skipped rows advance `row` but not the
/// buffers) the final curve lands in ws.values_ without a copy.
///
/// Marked always_inline so the AVX2-targeted wrapper below absorbs the
/// body and recompiles it with 256-bit lanes.
__attribute__((always_inline)) inline void dp_kernel_two_row_body(
    std::span<const KnapsackItem> items, std::size_t cap, double* a, double* b,
    std::uint64_t* bits, std::size_t row_words) {
  std::uint64_t* row = bits;
  for (std::size_t i = 0; i < items.size(); ++i, row += row_words) {
    const auto size = std::size_t(items[i].size);
    const double profit = items[i].profit;
    if (size > cap) continue;
    const double* __restrict prev = a;
    double* __restrict curr = b;
    for (std::size_t c = 0; c < size; ++c) curr[c] = prev[c];
    for (std::size_t c = size; c <= cap; ++c) {
      const double cand = prev[c - size] + profit;
      curr[c] = cand > prev[c] ? cand : prev[c];
    }
    for (std::size_t w = 0; w < row_words; ++w) {
      const std::size_t base = w << 6;
      const std::size_t lanes = std::min<std::size_t>(64, cap + 1 - base);
      std::uint64_t packed = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        packed |= std::uint64_t(curr[base + l] > prev[base + l]) << l;
      }
      row[w] = packed;
      if (base + 64 > cap) break;
    }
    std::swap(a, b);
  }
}

void dp_kernel_two_row(std::span<const KnapsackItem> items, std::size_t cap,
                       double* a, double* b, std::uint64_t* bits,
                       std::size_t row_words) {
  dp_kernel_two_row_body(items, cap, a, b, bits, row_words);
}

#if MOBI_KNAPSACK_AVX2_DISPATCH
/// Same body, recompiled for AVX2 (4 double lanes per op). Only additions
/// and max/compare on non-negative finite doubles — no FMA contraction is
/// possible, so the lanes compute the exact same IEEE results.
__attribute__((target("avx2"))) void dp_kernel_two_row_avx2(
    std::span<const KnapsackItem> items, std::size_t cap, double* a, double* b,
    std::uint64_t* bits, std::size_t row_words) {
  dp_kernel_two_row_body(items, cap, a, b, bits, row_words);
}
#endif

DpKernel detect_best_kernel() noexcept {
#if MOBI_KNAPSACK_AVX2_DISPATCH
  if (__builtin_cpu_supports("avx2")) return DpKernel::kWordParallelAvx2;
#endif
  return DpKernel::kWordParallel;
}

}  // namespace

bool dp_kernel_supported(DpKernel kernel) noexcept {
  switch (kernel) {
    case DpKernel::kAuto:
    case DpKernel::kScalar:
    case DpKernel::kWordParallel:
      return true;
    case DpKernel::kWordParallelAvx2:
#if MOBI_KNAPSACK_AVX2_DISPATCH
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

void dp_fill(std::span<const KnapsackItem> items, std::size_t cap,
             KnapsackWorkspace& ws, std::size_t row_words, DpKernel kernel) {
  const std::size_t n = items.size();
  std::vector<double>& values = WorkspaceAccess::values(ws);
  std::vector<std::uint64_t>& bits = WorkspaceAccess::take_bits(ws);
  // resize + fill instead of assign: once the workspace has seen its
  // high-water capacity, later fills touch no allocator at all.
  values.resize(cap + 1);
  bits.resize(n * row_words);
  std::fill(bits.begin(), bits.end(), 0);
  if (kernel == DpKernel::kAuto) {
    static const DpKernel best = detect_best_kernel();
    kernel = best;
  }
  if (kernel == DpKernel::kScalar) {
    std::fill(values.begin(), values.end(), 0.0);
    dp_kernel_scalar(items, cap, values.data(), bits.data(), row_words);
    return;
  }
  std::vector<double>& prev = WorkspaceAccess::values_prev(ws);
  prev.resize(cap + 1);
  double* a = values.data();
  double* b = prev.data();
  std::size_t effective = 0;
  for (const KnapsackItem& item : items) {
    if (std::size_t(item.size) <= cap) ++effective;
  }
  // One buffer swap per effective item: start so the result ends in a.
  if (effective & 1) std::swap(a, b);
  std::fill(a, a + cap + 1, 0.0);
#if MOBI_KNAPSACK_AVX2_DISPATCH
  if (kernel == DpKernel::kWordParallelAvx2) {
    dp_kernel_two_row_avx2(items, cap, a, b, bits.data(), row_words);
    return;
  }
#endif
  dp_kernel_two_row(items, cap, a, b, bits.data(), row_words);
}

}  // namespace detail

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity)
    : ws_(&own_) {
  detail::validate_items(items);
  build(items, max_capacity);
}

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity,
                                 KnapsackWorkspace& workspace)
    : ws_(&workspace) {
  detail::validate_items(items);
  build(items, max_capacity);
}

KnapsackProfile::KnapsackProfile(std::span<const KnapsackItem> items,
                                 object::Units max_capacity,
                                 KnapsackWorkspace* workspace,
                                 AlreadyValidated)
    : ws_(workspace ? workspace : &own_) {
  build(items, max_capacity);
}

void KnapsackProfile::build(std::span<const KnapsackItem> items,
                            object::Units max_capacity) {
  if (max_capacity < 0) {
    throw std::invalid_argument("KnapsackProfile: negative capacity");
  }
  const std::size_t n = items.size();
  const auto cap = std::size_t(max_capacity);
  ws_->item_sizes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws_->item_sizes_[i] = items[i].size;

  // Row-by-row DP through the pluggable kernel (detail::DpKernel); strict
  // improvement keeps solutions minimal (zero-profit items never taken).
  // The decision matrix is a single flat allocation; each item touches
  // only its own contiguous row — prefetch-friendly, no pointer chasing.
  row_words_ = (cap + 1 + 63) / 64;
  detail::dp_fill(items, cap, *ws_, row_words_);
}

double KnapsackProfile::value_at(object::Units c) const {
  if (c < 0 || c > max_capacity()) {
    throw std::out_of_range("KnapsackProfile::value_at");
  }
  return ws_->values_[std::size_t(c)];
}

KnapsackSolution KnapsackProfile::solution_at(object::Units c) const {
  KnapsackSolution solution;
  solution_into(c, solution);
  return solution;
}

void KnapsackProfile::solution_into(object::Units c,
                                    KnapsackSolution& out) const {
  if (c < 0 || c > max_capacity()) {
    throw std::out_of_range("KnapsackProfile::solution_at");
  }
  out.reset();
  out.value = ws_->values_[std::size_t(c)];
  auto remaining = std::size_t(c);
  const std::vector<object::Units>& sizes = ws_->item_sizes_;
  for (std::size_t i = sizes.size(); i-- > 0;) {
    if (taken(i, remaining)) {
      out.chosen.push_back(i);
      out.used += sizes[i];
      remaining -= std::size_t(sizes[i]);
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
}

KnapsackSolution solve_dp(std::span<const KnapsackItem> items,
                          object::Units capacity) {
  KnapsackWorkspace ws;
  KnapsackSolution out;
  solve_dp(items, capacity, ws, out);
  return out;
}

void solve_dp(std::span<const KnapsackItem> items, object::Units capacity,
              KnapsackWorkspace& ws, KnapsackSolution& out) {
  // The batch is validated exactly once here; the profile construction
  // below skips re-validation (AlreadyValidated route).
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("KnapsackProfile: negative capacity");
  }
  // Only items that can enter an optimum get DP rows (knapsack.hpp says
  // why that changes nothing). Sizing the buffers to the whole batch keeps
  // them grow-only in the batch size, like the profile's own.
  ws.live_items_.resize(items.size());
  ws.live_index_.resize(items.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].profit > 0.0 && items[i].size <= capacity) {
      ws.live_items_[live] = items[i];
      ws.live_index_[live++] = i;
    }
  }
  const std::span<const KnapsackItem> kept(ws.live_items_.data(), live);
  if (!detail::take_all_shortcut(kept, capacity, out)) {
    const KnapsackProfile profile(kept, capacity, &ws,
                                  KnapsackProfile::AlreadyValidated{});
    profile.solution_into(capacity, out);
  }
  for (std::size_t& index : out.chosen) index = ws.live_index_[index];
}

KnapsackSolution solve_greedy(std::span<const KnapsackItem> items,
                              object::Units capacity) {
  KnapsackWorkspace ws;
  KnapsackSolution out;
  solve_greedy(items, capacity, ws, out);
  return out;
}

void solve_greedy(std::span<const KnapsackItem> items, object::Units capacity,
                  KnapsackWorkspace& ws, KnapsackSolution& out) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_greedy: negative capacity");
  }
  detail::density_order(items, ws.order_);
  out.reset();
  object::Units left = capacity;
  for (std::size_t index : ws.order_) {
    if (items[index].profit <= 0.0) break;  // sorted: the rest are worthless
    if (items[index].size <= left) {
      out.chosen.push_back(index);
      out.value += items[index].profit;
      out.used += items[index].size;
      left -= items[index].size;
    }
  }
  // 1/2-approximation guarantee needs max(greedy, best single item).
  std::size_t best_single = items.size();
  double best_value = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].size <= capacity && items[i].profit > best_value) {
      best_single = i;
      best_value = items[i].profit;
    }
  }
  if (best_value > out.value) {
    out.reset();
    out.chosen.push_back(best_single);
    out.value = best_value;
    out.used = items[best_single].size;
    return;
  }
  std::sort(out.chosen.begin(), out.chosen.end());
}

KnapsackSolution solve_fptas(std::span<const KnapsackItem> items,
                             object::Units capacity, double epsilon) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_fptas: negative capacity");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    throw std::invalid_argument("solve_fptas: epsilon must be in (0, 1)");
  }
  KnapsackSolution out;
  const std::size_t n = items.size();
  double max_profit = 0.0;
  for (const auto& item : items) {
    if (item.size <= capacity) max_profit = std::max(max_profit, item.profit);
  }
  if (n == 0 || max_profit <= 0.0) return out;

  // Scale profits to integers: q_i = floor(p_i / K), K = eps * P / n.
  const double scale = epsilon * max_profit / double(n);
  std::vector<std::uint64_t> scaled(n);
  std::uint64_t total_scaled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = std::uint64_t(items[i].profit / scale);
    total_scaled += scaled[i];
  }
  // Guard the decision-matrix footprint (bits = n * (total_scaled + 1)).
  constexpr std::uint64_t kMaxBits = 64ULL * 1024 * 1024 * 8;
  if (std::uint64_t(n) * (total_scaled + 1) > kMaxBits) {
    throw std::invalid_argument(
        "solve_fptas: instance too large for reconstruction memory budget");
  }

  // min_weight[q] = least total size achieving scaled profit exactly q.
  // The take matrix is flat 64-bit words, one padded row per item.
  const auto q_max = std::size_t(total_scaled);
  constexpr object::Units kInfeasible = std::numeric_limits<object::Units>::max();
  std::vector<object::Units> min_weight(q_max + 1, kInfeasible);
  min_weight[0] = 0;
  const std::size_t row_words = (q_max + 1 + 63) / 64;
  std::vector<std::uint64_t> take_bits(n * row_words, 0);
  std::uint64_t* row = take_bits.data();
  for (std::size_t i = 0; i < n; ++i, row += row_words) {
    const auto q_i = std::size_t(scaled[i]);
    if (q_i == 0) continue;  // adds no scaled profit; skip (keeps DP tight)
    for (std::size_t q = q_max; q >= q_i; --q) {
      if (min_weight[q - q_i] == kInfeasible) {
        if (q == q_i) break;
        continue;
      }
      const object::Units weight = min_weight[q - q_i] + items[i].size;
      if (weight < min_weight[q]) {
        min_weight[q] = weight;
        row[q >> 6] |= std::uint64_t{1} << (q & 63);
      }
      if (q == q_i) break;
    }
  }
  std::size_t best_q = 0;
  for (std::size_t q = 0; q <= q_max; ++q) {
    if (min_weight[q] <= capacity) best_q = q;
  }
  // Reconstruct and report the *true* (unscaled) value of the chosen set.
  std::size_t q = best_q;
  for (std::size_t i = n; i-- > 0;) {
    if (q == 0) break;
    if ((take_bits[i * row_words + (q >> 6)] >> (q & 63)) & 1u) {
      out.chosen.push_back(i);
      out.value += items[i].profit;
      out.used += items[i].size;
      q -= std::size_t(scaled[i]);
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
  return out;
}

KnapsackSolution solve_brute_force(std::span<const KnapsackItem> items,
                                   object::Units capacity) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_brute_force: negative capacity");
  }
  if (items.size() > 30) {
    throw std::invalid_argument("solve_brute_force: too many items");
  }
  const std::uint32_t n = std::uint32_t(items.size());
  KnapsackSolution best;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    double value = 0.0;
    object::Units used = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) {
        value += items[i].profit;
        used += items[i].size;
      }
    }
    if (used <= capacity && value > best.value) {
      best.value = value;
      best.used = used;
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) best.chosen.push_back(i);
      }
    }
  }
  return best;
}

namespace {

/// Depth-first branch and bound over items pre-sorted by profit density.
class BranchAndBound {
 public:
  BranchAndBound(std::span<const KnapsackItem> items, object::Units capacity,
                 std::uint64_t node_limit)
      : items_(items), capacity_(capacity), node_limit_(node_limit) {
    order_.resize(items.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const double da = items[a].profit / double(items[a].size);
      const double db = items[b].profit / double(items[b].size);
      if (da != db) return da > db;
      return a < b;
    });
    taken_.assign(items.size(), false);
  }

  KnapsackSolution run() {
    descend(0, 0, 0.0);
    std::sort(best_.chosen.begin(), best_.chosen.end());
    return best_;
  }

 private:
  /// LP relaxation: fill greedily from `depth`, fractionally at the end.
  double fractional_bound(std::size_t depth, object::Units used,
                          double value) const {
    object::Units left = capacity_ - used;
    for (std::size_t i = depth; i < order_.size() && left > 0; ++i) {
      const KnapsackItem& item = items_[order_[i]];
      if (item.profit <= 0.0) break;  // density-sorted: rest are worthless
      if (item.size <= left) {
        value += item.profit;
        left -= item.size;
      } else {
        value += item.profit * double(left) / double(item.size);
        left = 0;
      }
    }
    return value;
  }

  void descend(std::size_t depth, object::Units used, double value) {
    if (++nodes_ > node_limit_) {
      throw std::runtime_error("solve_branch_and_bound: node limit exceeded");
    }
    if (value > best_.value) {
      best_.value = value;
      best_.used = used;
      best_.chosen.clear();
      for (std::size_t i = 0; i < depth; ++i) {
        if (taken_[i]) best_.chosen.push_back(order_[i]);
      }
    }
    if (depth == order_.size()) return;
    // A strict comparison would also prune ties with the incumbent, which
    // is correct but makes zero-profit instances degenerate; epsilon keeps
    // the pruning strict on real profit.
    if (fractional_bound(depth, used, value) <= best_.value + 1e-12) return;

    const KnapsackItem& item = items_[order_[depth]];
    if (item.size <= capacity_ - used && item.profit > 0.0) {
      taken_[depth] = true;
      descend(depth + 1, used + item.size, value + item.profit);
      taken_[depth] = false;
    }
    descend(depth + 1, used, value);
  }

  std::span<const KnapsackItem> items_;
  object::Units capacity_;
  std::uint64_t node_limit_;
  std::uint64_t nodes_ = 0;
  std::vector<std::size_t> order_;
  std::vector<bool> taken_;
  KnapsackSolution best_;
};

}  // namespace

KnapsackSolution solve_branch_and_bound(std::span<const KnapsackItem> items,
                                        object::Units capacity,
                                        std::uint64_t node_limit) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_branch_and_bound: negative capacity");
  }
  return BranchAndBound(items, capacity, node_limit).run();
}

}  // namespace mobi::core
