#include "cache/invalidation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "object/builders.hpp"
#include "util/rng.hpp"

namespace mobi::cache {
namespace {

server::FetchResult fetched(server::Version version = 1) {
  return server::FetchResult{version, 0, 1};
}

// A cache whose capacity holds the whole catalog, so replacement never
// interferes with what a listener does to it.
BoundedCache whole_catalog_cache(const object::Catalog& catalog) {
  return BoundedCache(catalog, make_harmonic_decay(), catalog.total_size(),
                      lru_policy());
}

// A report over `catalog` that counts no update.
InvalidationReport quiet_report(const object::Catalog& catalog,
                                sim::Tick start, sim::Tick end) {
  return InvalidationReport{start, end,
                            std::vector<std::uint32_t>(catalog.size())};
}

// The servers' version counters are the update log a report is cut from.
TEST(InvalidationLog, RecordsAndReports) {
  const auto catalog = object::make_uniform_catalog(4, 1);
  server::ServerPool servers(catalog, 1);
  InvalidationReporter reporter(servers);
  servers.apply_update(1, 3);
  servers.apply_update(2, 5);
  servers.apply_update(1, 7);

  InvalidationReport report;
  reporter.cut(10, report);
  EXPECT_EQ(report.window_start, 0);
  EXPECT_EQ(report.window_end, 10);
  EXPECT_EQ(report.updates, (std::vector<std::uint32_t>{0, 2, 1, 0}));
}

TEST(InvalidationLog, EmptyWindowAndValidation) {
  const auto catalog = object::make_uniform_catalog(2, 1);
  server::ServerPool servers(catalog, 1);
  InvalidationReporter reporter(servers);
  InvalidationReport report;
  reporter.cut(100, report);
  EXPECT_EQ(report.updates, (std::vector<std::uint32_t>{0, 0}));
  // A cut before the last one throws and leaves the reporter where it was.
  servers.apply_update(0, 100);
  EXPECT_THROW(reporter.cut(50, report), std::invalid_argument);
  reporter.cut(105, report);
  EXPECT_EQ(report.window_start, 100);
  EXPECT_EQ(report.updates, (std::vector<std::uint32_t>{1, 0}));
  // Ids outside the catalog never reach a report: the servers reject them.
  EXPECT_THROW(servers.apply_update(9, 0), std::out_of_range);
}

// The reports the cell engine broadcast before the version cut: one
// sorted tick history per object, counted over [from, to) by binary
// search and pruned to the last window after each report.
class TimeIndexedLog {
 public:
  explicit TimeIndexedLog(std::size_t objects) : history_(objects) {}

  void record(object::ObjectId id, sim::Tick tick) {
    history_[id].push_back(tick);
  }

  std::vector<std::uint32_t> counts(sim::Tick from, sim::Tick to) const {
    std::vector<std::uint32_t> counts(history_.size());
    for (std::size_t id = 0; id < history_.size(); ++id) {
      const auto& ticks = history_[id];
      const auto lo = std::lower_bound(ticks.begin(), ticks.end(), from);
      const auto hi = std::lower_bound(ticks.begin(), ticks.end(), to);
      counts[id] = std::uint32_t(hi - lo);
    }
    return counts;
  }

  void drop_before(sim::Tick before) {
    for (auto& ticks : history_) {
      ticks.erase(ticks.begin(),
                  std::lower_bound(ticks.begin(), ticks.end(), before));
    }
  }

 private:
  std::vector<std::vector<sim::Tick>> history_;
};

// Each engine in its own order: the log recorded a tick's updates and
// then reported [t - period, t); the reporter cuts at t and then the
// servers update. Every report must agree, window and counts.
TEST(InvalidationReporter, MatchesTimeIndexedLogOnRandomStreams) {
  const auto catalog = object::make_uniform_catalog(12, 1);
  std::size_t reports = 0, quiet = 0, repeated = 0;
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const std::size_t server_count : {1u, 3u}) {
      for (sim::Tick period = 1; period <= 7; ++period) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(server_count) + " servers, period " +
                     std::to_string(period));
        util::Rng rng(seed);
        server::ServerPool servers(catalog, server_count);
        InvalidationReporter reporter(servers);
        InvalidationReport report;
        TimeIndexedLog log(catalog.size());
        for (sim::Tick t = 0; t < 80; ++t) {
          const bool report_tick = t > 0 && t % period == 0;
          if (report_tick) reporter.cut(t, report);
          // One tick in three updates nothing; the rest update up to six
          // objects drawn with repeats, so a window can count one object
          // several times.
          const auto burst =
              rng.uniform_u64(0, 2) == 0 ? 0 : rng.uniform_u64(1, 6);
          for (std::uint64_t u = 0; u < burst; ++u) {
            const auto id = object::ObjectId(rng.uniform_u64(0, 11));
            servers.apply_update(id, t);
            log.record(id, t);
          }
          if (!report_tick) continue;
          ASSERT_EQ(report.window_start, t - period) << "tick " << t;
          ASSERT_EQ(report.window_end, t) << "tick " << t;
          ASSERT_EQ(report.updates, log.counts(t - period, t)) << "tick " << t;
          log.drop_before(t - period);
          ++reports;
          const auto most =
              *std::max_element(report.updates.begin(), report.updates.end());
          if (most == 0) ++quiet;
          if (most > 1) ++repeated;
        }
      }
    }
  }
  // The streams reached windows with no update and windows that count
  // one object more than once.
  EXPECT_GT(reports, 0u);
  EXPECT_GT(quiet, 0u);
  EXPECT_GT(repeated, 0u);
}

TEST(InvalidationListener, AppliesDecayPerReportedUpdate) {
  const object::Catalog catalog({1, 1, 1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  cache.admit(1, 0);
  InvalidationListener listener;

  // Object 2 is counted but not cached: ignored.
  const InvalidationReport report{0, 5, {2, 0, 1}};
  const int decayed = listener.apply(report, cache);
  EXPECT_EQ(decayed, 2);
  EXPECT_NEAR(*cache.recency(0), 1.0 / 3.0, 1e-12);  // two decays
  EXPECT_DOUBLE_EQ(*cache.recency(1), 1.0);          // untouched
  EXPECT_EQ(cache.stats().decays, 2u);
  EXPECT_EQ(listener.reports_applied(), 1u);
  EXPECT_EQ(listener.last_heard_end(), 5);
}

TEST(InvalidationListener, ContiguousReportsKeepCache) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  InvalidationListener listener;
  listener.apply(quiet_report(catalog, 0, 5), cache);
  listener.apply(quiet_report(catalog, 5, 10), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, SleeperRuleDropsCacheOnGap) {
  const object::Catalog catalog({1, 1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  cache.admit(1, 0);
  InvalidationListener listener;
  listener.apply(quiet_report(catalog, 0, 5), cache);
  // Missed the [5, 10) report entirely; next heard is [10, 15).
  const int result = listener.apply(quiet_report(catalog, 10, 15), cache);
  EXPECT_EQ(result, -1);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used(), 0);
  EXPECT_EQ(listener.cache_drops(), 1u);
  EXPECT_EQ(listener.last_heard_end(), 15);
}

TEST(InvalidationListener, FirstReportNeverTriggersSleeperRule) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  InvalidationListener listener;
  // First heard report starts late — but there is no established history,
  // so the cache survives (this models "tuned in for the first time").
  listener.apply(quiet_report(catalog, 100, 105), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, OverlappingReportsAreAccepted) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  InvalidationListener listener;
  listener.apply(quiet_report(catalog, 0, 10), cache);
  // A re-broadcast overlapping window is not a gap.
  listener.apply(quiet_report(catalog, 5, 15), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.last_heard_end(), 15);
}

TEST(InvalidationListener, BadWindowThrows) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  InvalidationListener listener;
  EXPECT_THROW(listener.apply(quiet_report(catalog, 5, 3), cache),
               std::invalid_argument);
}

// A count vector that is not the catalog's size cannot be indexed by a
// resident's id; it is rejected before the listener or the cache changes,
// even where the sleeper rule would otherwise drop the cache.
TEST(InvalidationListener, RejectsReportNotSizedToTheCatalog) {
  const object::Catalog catalog({1, 1, 1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  cache.admit(2, 0);
  InvalidationListener listener;
  listener.apply(quiet_report(catalog, 0, 5), cache);
  for (const std::size_t size : {0u, 2u, 4u}) {
    SCOPED_TRACE("count vector of " + std::to_string(size));
    const InvalidationReport contiguous{
        5, 10, std::vector<std::uint32_t>(size, 1)};
    const InvalidationReport after_gap{
        20, 25, std::vector<std::uint32_t>(size, 1)};
    EXPECT_THROW(listener.apply(contiguous, cache), std::invalid_argument);
    EXPECT_THROW(listener.apply(after_gap, cache), std::invalid_argument);
    EXPECT_EQ(listener.reports_applied(), 1u);
    EXPECT_EQ(listener.last_heard_end(), 5);
    EXPECT_EQ(listener.cache_drops(), 0u);
    EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
    EXPECT_DOUBLE_EQ(*cache.recency(2), 1.0);
    EXPECT_EQ(cache.stats().decays, 0u);
  }
}

TEST(EndToEnd, PeriodicReportsTrackTrueStaleness) {
  // Server updates every 2 ticks; reports cut every 4 ticks, before that
  // tick's update. After two reports the cache's recency matches as if it
  // had heard each update.
  const object::Catalog catalog({1});
  server::ServerPool servers(catalog, 1);
  Cache direct(1, make_harmonic_decay());
  auto via_reports = whole_catalog_cache(catalog);
  direct.refresh(0, fetched(), 0);
  via_reports.admit(0, 0);
  InvalidationReporter reporter(servers);
  InvalidationReport report;
  InvalidationListener listener;

  for (sim::Tick t = 1; t <= 8; ++t) {
    if (t % 4 == 0) {
      reporter.cut(t, report);
      listener.apply(report, via_reports);
    }
    if (t % 2 == 0) {
      direct.on_server_update(0);
      servers.apply_update(0, t);
    }
  }
  // Reports lag by one window: [0,4) and [4,8) have been heard, so the
  // update at t=8 is still unreported and the listener is one decay
  // behind the omniscient cache...
  EXPECT_GT(*via_reports.recency(0), *direct.recency(0));
  // ...until the next report catches it up.
  reporter.cut(12, report);
  listener.apply(report, via_reports);
  EXPECT_DOUBLE_EQ(*via_reports.recency(0), *direct.recency(0));
}

}  // namespace
}  // namespace mobi::cache
