#include "core/knapsack_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mobi::core {

namespace {

// Same pruning convention as the serial solve_branch_and_bound: a strict
// comparison would also prune ties with the incumbent, which is correct
// but makes zero-profit instances degenerate; epsilon keeps the pruning
// strict on real profit.
constexpr double kPruneEps = 1e-12;

/// A fixed prefix of decisions along the density order: positions
/// [0, depth) decided, bit j of take_mask set iff position j was taken.
/// The prefix decomposition depends only on the instance and the config —
/// never on the thread count — so stealing cannot change what the search
/// explores, only who explores it.
struct Subproblem {
  std::uint32_t depth = 0;
  std::uint64_t take_mask = 0;
};

}  // namespace

struct ParallelKnapsackEngine::Impl {
  /// Per-worker state. Deques hold indices into subs_; the owner pops
  /// from the back (deepest subproblems first, closest to plain DFS),
  /// thieves take from the front. Cache-line aligned so the per-solve
  /// node counters never false-share.
  struct alignas(64) WorkerSlot {
    std::vector<std::uint32_t> deque;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::mutex mu;
    std::vector<std::uint8_t> taken;     // decisions along the density order
    std::vector<std::size_t> scratch;    // incumbent canonical-fold buffer
    std::uint64_t nodes = 0;             // this solve's phase-1 nodes
    std::uint64_t steals = 0;
  };

  explicit Impl(ParallelBnbConfig cfg) : config(cfg) {
    if (config.threads == 0) {
      config.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    config.max_prefix_depth = std::min<std::size_t>(config.max_prefix_depth, 60);
    config.subproblem_target = std::max<std::size_t>(1, config.subproblem_target);
    threads = config.threads;
    slots.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      slots.push_back(std::make_unique<WorkerSlot>());
      slots.back()->deque.reserve(config.subproblem_target + 2);
    }
    subs.reserve(2 * config.subproblem_target + 8);
    // The solving thread is the last of the `threads` searchers.
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
  }

  // -- configuration / lifetime ------------------------------------------
  ParallelBnbConfig config;
  std::size_t threads = 1;
  std::unique_ptr<util::ThreadPool> pool;  // only when threads > 1
  std::vector<std::unique_ptr<WorkerSlot>> slots;

  // -- per-solve job state (written by the caller before pool->run, which
  //    publishes it to the workers) --------------------------------------
  const KnapsackItem* items = nullptr;
  std::size_t n = 0;
  object::Units capacity = 0;
  const std::size_t* order = nullptr;  // density order, |order| == n
  std::vector<Subproblem> subs;        // BFS prefix decomposition
  std::size_t subs_begin = 0;          // live range [subs_begin, subs.size())
  std::uint32_t depth_limit = 0;
  std::atomic<double> best{0.0};       // canonical (ascending-fold) incumbent
  std::atomic<std::uint64_t> nodes{0};
  std::atomic<bool> aborted{false};

  // -- phase-2 scratch (caller thread only) ------------------------------
  std::vector<std::size_t> chosen_hi;        // taken indices, descending
  std::vector<object::Units> pos_size_pref;  // eligible-positive size prefix
  std::vector<double> pos_value_pref;        // eligible-positive value fold
  std::vector<std::size_t> seed_chosen;
  std::uint64_t p2_nodes = 0;
  double vstar = 0.0;
  double slack = 0.0;

  ParallelBnbStats stats;

  // ----------------------------------------------------------------------

  void ensure_capacity(std::size_t items_count) {
    for (auto& slot : slots) {
      if (slot->taken.size() < items_count) slot->taken.resize(items_count);
      slot->scratch.reserve(items_count);
    }
    chosen_hi.reserve(items_count);
    seed_chosen.reserve(items_count);
    if (pos_size_pref.size() < items_count + 1) {
      pos_size_pref.resize(items_count + 1);
      pos_value_pref.resize(items_count + 1);
    }
  }

  /// LP relaxation from `depth` along the density order; identical to the
  /// serial solver's bound.
  double fractional_bound(std::size_t depth, object::Units used,
                          double value) const {
    object::Units left = capacity - used;
    for (std::size_t i = depth; i < n && left > 0; ++i) {
      const KnapsackItem& item = items[order[i]];
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

  /// Canonical ascending-index fold of the positions flagged in
  /// slot.taken[0, depth); CAS-max into the shared incumbent. The fold
  /// order matches the DP's accumulation exactly, so the winning double
  /// is the DP's double.
  void try_improve(WorkerSlot& slot, std::size_t depth) {
    slot.scratch.clear();
    for (std::size_t j = 0; j < depth; ++j) {
      if (slot.taken[j]) slot.scratch.push_back(order[j]);
    }
    std::sort(slot.scratch.begin(), slot.scratch.end());
    double canon = 0.0;
    for (std::size_t index : slot.scratch) canon += items[index].profit;
    double cur = best.load(std::memory_order_relaxed);
    while (canon > cur &&
           !best.compare_exchange_weak(cur, canon, std::memory_order_relaxed)) {
    }
  }

  void dfs(WorkerSlot& slot, std::size_t depth, object::Units used,
           double value) {
    if ((++slot.nodes & 4095) == 0) {
      if (nodes.fetch_add(4096, std::memory_order_relaxed) + 4096 >=
          config.node_limit) {
        aborted.store(true, std::memory_order_relaxed);
      }
    }
    if (aborted.load(std::memory_order_relaxed)) return;
    if (value > best.load(std::memory_order_relaxed)) try_improve(slot, depth);
    if (depth == n) return;
    if (fractional_bound(depth, used, value) <=
        best.load(std::memory_order_relaxed) + kPruneEps) {
      return;
    }
    const KnapsackItem& item = items[order[depth]];
    if (item.profit > 0.0 && item.size <= capacity - used) {
      slot.taken[depth] = 1;
      dfs(slot, depth + 1, used + item.size, value + item.profit);
    }
    // Unconditional clear: when the include branch is skipped the bit
    // still holds whatever the previous subproblem on this slot left
    // behind, and a stale 1 would fold a phantom item into try_improve's
    // incumbent (inflating best past the true optimum and forcing a
    // spurious phase-2 fallback).
    slot.taken[depth] = 0;
    dfs(slot, depth + 1, used, value);
  }

  /// Replays a subproblem's decided prefix into slot.taken and runs the
  /// DFS below it. Path values accumulate in density-position order, the
  /// same order any DFS reaching this node would have used.
  void run_subproblem(WorkerSlot& slot, const Subproblem& sub) {
    object::Units used = 0;
    double value = 0.0;
    for (std::uint32_t j = 0; j < sub.depth; ++j) {
      const bool take = (sub.take_mask >> j) & 1u;
      slot.taken[j] = take ? 1 : 0;
      if (take) {
        const KnapsackItem& item = items[order[j]];
        used += item.size;
        value += item.profit;
      }
    }
    dfs(slot, sub.depth, used, value);
  }

  std::int64_t pop_back(WorkerSlot& slot) {
    std::lock_guard lock(slot.mu);
    if (slot.head == slot.tail) return -1;
    return std::int64_t(slot.deque[--slot.tail]);
  }

  std::int64_t pop_front(WorkerSlot& slot) {
    std::lock_guard lock(slot.mu);
    if (slot.head == slot.tail) return -1;
    return std::int64_t(slot.deque[slot.head++]);
  }

  void drain(std::size_t w) {
    WorkerSlot& self = *slots[w];
    for (;;) {
      std::int64_t id = pop_back(self);
      if (id < 0) {
        for (std::size_t off = 1; off < threads && id < 0; ++off) {
          id = pop_front(*slots[(w + off) % threads]);
        }
        if (id < 0) return;  // nobody pushes after the kick: done
        ++self.steals;
      }
      run_subproblem(self, subs[std::size_t(id)]);
    }
  }

  /// BFS expansion of the density-ordered tree into ~subproblem_target
  /// leaves. Pruning here uses only the greedy seed incumbent (computed
  /// before any worker runs), so the decomposition is deterministic.
  void decompose() {
    subs.clear();
    subs_begin = 0;
    subs.push_back(Subproblem{});
    depth_limit = std::uint32_t(std::min(n, config.max_prefix_depth));
    const double seed = best.load(std::memory_order_relaxed);
    // The size cap bounds both the vector (within its reservation — no
    // steady-state allocation) and the expansion work on prune-heavy
    // instances; stopping early just leaves a coarser partition.
    while (subs.size() - subs_begin < config.subproblem_target &&
           subs.size() < 2 * config.subproblem_target &&
           subs_begin < subs.size() &&
           subs[subs_begin].depth < depth_limit) {
      const Subproblem sub = subs[subs_begin++];
      object::Units used = 0;
      double value = 0.0;
      for (std::uint32_t j = 0; j < sub.depth; ++j) {
        if ((sub.take_mask >> j) & 1u) {
          const KnapsackItem& item = items[order[j]];
          used += item.size;
          value += item.profit;
        }
      }
      if (fractional_bound(sub.depth, used, value) <= seed + kPruneEps) {
        continue;  // the whole subtree is dominated by the greedy seed
      }
      const KnapsackItem& item = items[order[sub.depth]];
      if (item.profit > 0.0 && item.size <= capacity - used) {
        subs.push_back(Subproblem{sub.depth + 1,
                                  sub.take_mask | (std::uint64_t{1} << sub.depth)});
      }
      subs.push_back(Subproblem{sub.depth + 1, sub.take_mask});
    }
  }

  /// Phase 1: optimal canonical value into `best`.
  void find_optimal_value() {
    const std::size_t live = subs.size() - subs_begin;
    stats.subproblems += live;
    for (auto& slot : slots) {
      slot->nodes = 0;
      slot->steals = 0;
      slot->head = slot->tail = 0;
      slot->deque.clear();
    }
    if (live == 0) return;  // seed is optimal; nothing left to search
    // Round-robin distribution; owner pops from the back.
    for (std::size_t j = 0; j < live; ++j) {
      WorkerSlot& slot = *slots[j % threads];
      slot.deque.push_back(std::uint32_t(subs_begin + j));
      ++slot.tail;
    }
    pool->run(threads, [this](std::size_t w) { drain(w); });
    for (auto& slot : slots) {
      stats.nodes += slot->nodes;
      stats.steals += slot->steals;
    }
  }

  /// Runs the whole tree inline on the caller thread (threads == 1 or a
  /// small instance): same search, same subproblem accounting.
  void find_optimal_value_inline() {
    stats.subproblems += 1;
    WorkerSlot& slot = *slots[0];
    slot.nodes = 0;
    slot.steals = 0;
    run_subproblem(slot, Subproblem{});
    stats.nodes += slot.nodes;
  }

  // -- phase 2: canonical reconstruction ---------------------------------

  /// LP bound over items with index <= i_limit only, walked in density
  /// order; `extra` is the already-committed high-index profit.
  double lp_bound_below(std::ptrdiff_t i_limit, object::Units left,
                        double extra) const {
    for (std::size_t k = 0; k < n && left > 0; ++k) {
      const std::size_t index = order[k];
      if (std::ptrdiff_t(index) > i_limit) continue;
      const KnapsackItem& item = items[index];
      if (item.profit <= 0.0) break;  // density-sorted: rest are worthless
      if (item.size <= left) {
        extra += item.profit;
        left -= item.size;
      } else {
        extra += item.profit * double(left) / double(item.size);
        left = 0;
      }
    }
    return extra;
  }

  /// Ascending fold of (low set = eligible positives 0..i | explicit
  /// base) plus chosen_hi (which holds descending indices, all > i).
  double canon_fold(double base) const {
    double value = base;
    for (std::size_t k = chosen_hi.size(); k-- > 0;) {
      value += items[chosen_hi[k]].profit;
    }
    return value;
  }

  enum class RecResult { kFound, kNotFound, kAborted };

  /// Decides indices i..0 (exclude branch first => completions visited in
  /// ascending characteristic-mask order); accepts the first completion
  /// whose canonical fold reaches vstar. That completion is exactly the
  /// mask-minimal optimal subset — solve_dp's answer.
  RecResult reconstruct(std::ptrdiff_t i, object::Units left,
                        double hi_sum, KnapsackSolution& out) {
    if (++p2_nodes > config.node_limit) return RecResult::kAborted;
    // Forced excludes: infeasible or zero-profit items are never in the
    // canonical set (the DP takes only strict improvements).
    while (i >= 0 &&
           (items[i].profit <= 0.0 || items[i].size > left)) {
      --i;
    }
    if (i < 0) {
      const double canon = canon_fold(0.0);
      if (canon < vstar) return RecResult::kNotFound;
      emit(i, left, canon, out);
      return RecResult::kFound;
    }
    // Take-the-rest shortcut: every eligible positive with index <= i
    // fits in the residual capacity, so the unique best completion takes
    // them all; O(1) acceptance or pruning for the whole subtree.
    if (pos_size_pref[std::size_t(i) + 1] <= left) {
      const double canon = canon_fold(pos_value_pref[std::size_t(i) + 1]);
      if (canon < vstar) return RecResult::kNotFound;
      emit(i, left, canon, out);
      return RecResult::kFound;
    }
    const KnapsackItem& item = items[i];
    if (lp_bound_below(i - 1, left, hi_sum) >= vstar - slack) {
      const RecResult r = reconstruct(i - 1, left, hi_sum, out);
      if (r != RecResult::kNotFound) return r;
    }
    if (lp_bound_below(i - 1, left - item.size, hi_sum + item.profit) >=
        vstar - slack) {
      chosen_hi.push_back(std::size_t(i));
      const RecResult r =
          reconstruct(i - 1, left - item.size, hi_sum + item.profit, out);
      if (r != RecResult::kNotFound) return r;
      chosen_hi.pop_back();
    }
    return RecResult::kNotFound;
  }

  /// Writes the accepted completion: eligible positives 0..i (the
  /// take-the-rest low set; empty when i < 0) then chosen_hi ascending.
  void emit(std::ptrdiff_t i, object::Units /*left*/, double canon,
            KnapsackSolution& out) {
    out.reset();
    for (std::ptrdiff_t j = 0; j <= i; ++j) {
      if (items[j].profit > 0.0 && items[j].size <= capacity) {
        out.chosen.push_back(std::size_t(j));
        out.used += items[j].size;
      }
    }
    for (std::size_t k = chosen_hi.size(); k-- > 0;) {
      out.chosen.push_back(chosen_hi[k]);
      out.used += items[chosen_hi[k]].size;
    }
    out.value = canon;
  }

  bool reconstruct_canonical(KnapsackSolution& out) {
    p2_nodes = 0;
    chosen_hi.clear();
    slack = 1e-9 * (1.0 + std::abs(vstar));
    // Eligibility: positive profit and individually feasible. Prefix
    // folds are ascending-index, matching the DP's accumulation.
    pos_size_pref[0] = 0;
    pos_value_pref[0] = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const bool eligible = items[j].profit > 0.0 && items[j].size <= capacity;
      pos_size_pref[j + 1] = pos_size_pref[j] + (eligible ? items[j].size : 0);
      pos_value_pref[j + 1] =
          eligible ? pos_value_pref[j] + items[j].profit : pos_value_pref[j];
    }
    const RecResult r =
        reconstruct(std::ptrdiff_t(n) - 1, capacity, 0.0, out);
    stats.phase2_nodes += p2_nodes;
    return r == RecResult::kFound;
  }

  // ----------------------------------------------------------------------

  /// Greedy walk down the density order as the phase-1 seed; the value is
  /// refolded over ascending indices so it is a genuine canonical value.
  double greedy_seed() {
    seed_chosen.clear();
    object::Units left = capacity;
    for (std::size_t k = 0; k < n; ++k) {
      const KnapsackItem& item = items[order[k]];
      if (item.profit <= 0.0) break;
      if (item.size <= left) {
        seed_chosen.push_back(order[k]);
        left -= item.size;
      }
    }
    std::sort(seed_chosen.begin(), seed_chosen.end());
    double value = 0.0;
    for (std::size_t index : seed_chosen) value += items[index].profit;
    return value;
  }

  void solve(std::span<const KnapsackItem> item_span, object::Units cap,
             KnapsackWorkspace& ws, KnapsackSolution& out) {
    detail::validate_items(item_span);
    if (cap < 0) {
      throw std::invalid_argument("ParallelKnapsackEngine: negative capacity");
    }
    ++stats.solves;
    if (detail::take_all_shortcut(item_span, cap, out)) {
      ++stats.shortcut_solves;
      return;
    }
    ++stats.bnb_runs;
    std::vector<std::size_t>& density = detail::WorkspaceAccess::order(ws);
    detail::density_order(item_span, density);
    items = item_span.data();
    n = item_span.size();
    capacity = cap;
    order = density.data();
    ensure_capacity(n);
    best.store(greedy_seed(), std::memory_order_relaxed);
    nodes.store(0, std::memory_order_relaxed);
    aborted.store(false, std::memory_order_relaxed);

    if (threads == 1 || n <= config.serial_cutoff) {
      find_optimal_value_inline();
    } else {
      decompose();
      find_optimal_value();
    }
    if (aborted.load(std::memory_order_relaxed)) {
      ++stats.dp_fallbacks;
      solve_dp(item_span, cap, ws, out);
      return;
    }
    vstar = best.load(std::memory_order_relaxed);
    if (!reconstruct_canonical(out)) {
      // Phase-2 budget exceeded (or an FP pathology defeated the bound):
      // the DP answer is the contract, so fall back to it.
      ++stats.dp_fallbacks;
      solve_dp(item_span, cap, ws, out);
    }
  }
};

ParallelKnapsackEngine::ParallelKnapsackEngine(ParallelBnbConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

ParallelKnapsackEngine::~ParallelKnapsackEngine() = default;

std::size_t ParallelKnapsackEngine::threads() const noexcept {
  return impl_->threads;
}

void ParallelKnapsackEngine::solve(std::span<const KnapsackItem> items,
                                   object::Units capacity,
                                   KnapsackWorkspace& ws,
                                   KnapsackSolution& out) {
  impl_->solve(items, capacity, ws, out);
}

const ParallelBnbStats& ParallelKnapsackEngine::stats() const noexcept {
  return impl_->stats;
}

void solve_dp_word_parallel(std::span<const KnapsackItem> items,
                            object::Units capacity, KnapsackWorkspace& ws,
                            KnapsackSolution& out) {
  detail::validate_items(items);
  if (capacity < 0) {
    throw std::invalid_argument("solve_dp_word_parallel: negative capacity");
  }
  if (detail::take_all_shortcut(items, capacity, out)) return;
  const std::size_t n = items.size();
  const auto cap = std::size_t(capacity);
  const std::size_t row_words = (cap + 1 + 63) / 64;
  detail::dp_fill(items, cap, ws, row_words, detail::DpKernel::kWordParallel);
  // Reconstruction mirrors KnapsackProfile::solution_into.
  const std::vector<double>& values = detail::WorkspaceAccess::values(ws);
  const std::vector<std::uint64_t>& bits = detail::WorkspaceAccess::take_bits(ws);
  out.reset();
  out.value = values[cap];
  std::size_t remaining = cap;
  for (std::size_t i = n; i-- > 0;) {
    if ((bits[i * row_words + (remaining >> 6)] >> (remaining & 63)) & 1u) {
      out.chosen.push_back(i);
      out.used += items[i].size;
      remaining -= std::size_t(items[i].size);
    }
  }
  std::reverse(out.chosen.begin(), out.chosen.end());
}

}  // namespace mobi::core
