// Two-tier extension: mobile clients with local caches (Barbara &
// Imielinski style invalidation listening, paper §5 [8]) in front of the
// on-demand base station. Sweeps the client-cache size, the invalidation
// report period, and the disconnect rate, reporting how much traffic the
// client tier absorbs and what sleeps cost.
#include <iostream>

#include "bench_common.hpp"
#include "client/cell.hpp"

namespace {

// One table row, built cell by cell. A braced list of these cells makes
// GCC 12 at -O3 warn -Wmaybe-uninitialized inside std::string.
template <typename... Values>
std::vector<mobi::util::Cell> row(Values... values) {
  std::vector<mobi::util::Cell> cells;
  cells.reserve(sizeof...(values));
  (cells.emplace_back(values), ...);
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  client::CellConfig base;
  base.seed = seed;

  util::Table by_cache({"client cache (units)", "local hit rate",
                        "avg score", "base downloads (units)"});
  for (object::Units cache_units : {4, 10, 20, 40, 80}) {
    auto config = base;
    config.client.cache_units = cache_units;
    const auto result = client::run_cell(config);
    by_cache.add_row(row((long long)(cache_units), result.local_hit_rate(),
                         result.average_score(),
                         (long long)(result.base_downloaded)));
  }
  bench::emit(flags, "Client-cache size sweep (no disconnects)",
              "client_cache_size", by_cache);

  util::Table by_report({"report period (ticks)", "local hit rate",
                         "avg score", "sleeper drops"});
  for (sim::Tick period : {1, 2, 5, 10, 20}) {
    auto config = base;
    config.report_period = period;
    config.client.cache_units = 40;
    const auto result = client::run_cell(config);
    by_report.add_row(row((long long)(period), result.local_hit_rate(),
                          result.average_score(),
                          (long long)(result.sleeper_drops)));
  }
  bench::emit(flags, "Invalidation report period sweep",
              "client_report_period", by_report);

  util::Table by_disconnect({"disconnect rate", "disconnect ticks",
                             "sleeper drops", "local hit rate", "avg score"});
  for (double rate : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    auto config = base;
    config.client.cache_units = 40;
    config.client.disconnect_rate = rate;
    config.client.reconnect_rate = 0.3;
    const auto result = client::run_cell(config);
    by_disconnect.add_row(row(rate, (long long)(result.disconnect_ticks),
                              (long long)(result.sleeper_drops),
                              result.local_hit_rate(),
                              result.average_score()));
  }
  bench::emit(flags,
              "Disconnect-rate sweep (sleeper rule drops local caches on "
              "reconnect after a missed report window)",
              "client_disconnects", by_disconnect);
  return 0;
}
