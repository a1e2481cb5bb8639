// Multi-seed replication: run an experiment across independent seeds and
// report mean / stddev / a normal-approximation 95% confidence halfwidth.
// The paper reports single-run curves; replication quantifies how much of
// each curve is signal.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mobi::exp {

struct Replication {
  std::size_t runs = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// 1.96 * stddev / sqrt(runs); 0 for fewer than two runs.
  double ci95_halfwidth = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Replication summarize(const util::Summary& summary);

/// Runs `metric(seed)` once per seed: serially when `pool` is null,
/// otherwise dispatched onto the pool, in which case `metric` must be
/// safe to call concurrently (each call self-contained — the norm for
/// this library's experiment runners). Values are collected into a
/// seed-indexed buffer and reduced in seed order, so the result is
/// bit-identical whatever the pool size.
Replication replicate(const std::function<double(std::uint64_t)>& metric,
                      const std::vector<std::uint64_t>& seeds,
                      util::ThreadPool* pool = nullptr);

/// seeds {base, base+1, ..., base+count-1} — convenient default ladder.
std::vector<std::uint64_t> seed_ladder(std::uint64_t base, std::size_t count);

}  // namespace mobi::exp
