#include "exp/replicate.hpp"

#include <cmath>
#include <stdexcept>

namespace mobi::exp {

Replication summarize(const util::Summary& summary) {
  Replication result;
  result.runs = summary.count();
  result.mean = summary.mean();
  result.stddev = summary.stddev();
  result.min = summary.min();
  result.max = summary.max();
  if (summary.count() >= 2) {
    result.ci95_halfwidth =
        1.96 * summary.stddev() / std::sqrt(double(summary.count()));
  }
  return result;
}

Replication replicate(const std::function<double(std::uint64_t)>& metric,
                      const std::vector<std::uint64_t>& seeds,
                      util::ThreadPool* pool) {
  if (!metric) throw std::invalid_argument("replicate: null metric");
  std::vector<double> values(seeds.size());
  util::parallel_for(pool, 0, seeds.size(), [&](std::size_t i) {
    values[i] = metric(seeds[i]);
  });
  util::Summary summary;
  for (double v : values) summary.add(v);
  return summarize(summary);
}

std::vector<std::uint64_t> seed_ladder(std::uint64_t base, std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = base + i;
  return seeds;
}

}  // namespace mobi::exp
