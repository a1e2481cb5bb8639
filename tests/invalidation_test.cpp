#include "cache/invalidation.hpp"

#include <gtest/gtest.h>

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

TEST(InvalidationLog, RecordsAndReports) {
  InvalidationLog log(4);
  log.record_update(1, 3);
  log.record_update(1, 7);
  log.record_update(2, 5);
  EXPECT_EQ(log.recorded_updates(), 3u);

  const auto report = log.make_report(0, 10);
  ASSERT_EQ(report.items().size(), 2u);
  EXPECT_EQ(report.items()[0].object, 1u);
  EXPECT_EQ(report.items()[0].updates, 2u);
  EXPECT_EQ(report.items()[1].object, 2u);
  EXPECT_EQ(report.items()[1].updates, 1u);
}

TEST(InvalidationLog, WindowIsHalfOpen) {
  InvalidationLog log(2);
  log.record_update(0, 5);
  EXPECT_EQ(log.make_report(0, 5).items().size(), 0u);  // [0, 5) excludes 5
  EXPECT_EQ(log.make_report(5, 6).items().size(), 1u);
}

TEST(InvalidationLog, EmptyWindowAndValidation) {
  InvalidationLog log(2);
  EXPECT_TRUE(log.make_report(0, 100).items().empty());
  EXPECT_THROW(log.make_report(5, 3), std::invalid_argument);
  EXPECT_THROW(log.record_update(9, 0), std::out_of_range);
}

TEST(InvalidationLog, RejectsTimeTravel) {
  InvalidationLog log(1);
  log.record_update(0, 10);
  EXPECT_THROW(log.record_update(0, 5), std::logic_error);
  log.record_update(0, 10);  // equal tick is fine
}

TEST(InvalidationLog, PruneDropsOldRecords) {
  InvalidationLog log(1);
  log.record_update(0, 1);
  log.record_update(0, 5);
  log.record_update(0, 9);
  log.prune(5);
  EXPECT_TRUE(log.make_report(0, 5).items().empty());
  EXPECT_EQ(log.make_report(5, 10).items()[0].updates, 2u);
}

TEST(InvalidationReport, AcceptsStrictlyAscendingIds) {
  InvalidationReport report(0, 5);
  report.add(0, 2);
  report.add(3, 1);
  ASSERT_EQ(report.items().size(), 2u);
  EXPECT_EQ(report.items()[1].object, 3u);
  report.reset(5, 10);
  EXPECT_TRUE(report.items().empty());
  EXPECT_EQ(report.window_start(), 5);
  EXPECT_EQ(report.window_end(), 10);
  report.add(0, 1);  // a reset report starts a new id sequence
}

TEST(InvalidationReport, RejectsOutOfOrderId) {
  InvalidationReport report(0, 5);
  report.add(4, 1);
  EXPECT_THROW(report.add(2, 1), std::invalid_argument);
  ASSERT_EQ(report.items().size(), 1u);  // the rejected item is not kept
}

TEST(InvalidationReport, RejectsRepeatedId) {
  InvalidationReport report(0, 5);
  report.add(4, 1);
  EXPECT_THROW(report.add(4, 2), std::invalid_argument);
  ASSERT_EQ(report.items().size(), 1u);
  EXPECT_EQ(report.items()[0].updates, 1u);
}

TEST(InvalidationListener, AppliesDecayPerReportedUpdate) {
  const object::Catalog catalog({1, 1, 1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  cache.admit(1, 0);
  InvalidationListener listener;

  InvalidationReport report(0, 5);
  report.add(0, 2);
  report.add(2, 1);  // object 2 not cached: ignored
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
  listener.apply(InvalidationReport(0, 5), cache);
  listener.apply(InvalidationReport(5, 10), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, SleeperRuleDropsCacheOnGap) {
  const object::Catalog catalog({1, 1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  cache.admit(1, 0);
  InvalidationListener listener;
  listener.apply(InvalidationReport(0, 5), cache);
  // Missed the [5, 10) report entirely; next heard is [10, 15).
  const int result = listener.apply(InvalidationReport(10, 15), cache);
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
  listener.apply(InvalidationReport(100, 105), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, OverlappingReportsAreAccepted) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  cache.admit(0, 0);
  InvalidationListener listener;
  listener.apply(InvalidationReport(0, 10), cache);
  // A re-broadcast overlapping window is not a gap.
  listener.apply(InvalidationReport(5, 15), cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.last_heard_end(), 15);
}

TEST(InvalidationListener, BadWindowThrows) {
  const object::Catalog catalog({1});
  auto cache = whole_catalog_cache(catalog);
  InvalidationListener listener;
  EXPECT_THROW(listener.apply(InvalidationReport(5, 3), cache),
               std::invalid_argument);
}

TEST(EndToEnd, PeriodicReportsTrackTrueStaleness) {
  // Server updates every 2 ticks; reports cut every 4 ticks. After two
  // reports the cache's recency matches as if it had heard each update.
  const object::Catalog catalog({1});
  Cache direct(1, make_harmonic_decay());
  auto via_reports = whole_catalog_cache(catalog);
  direct.refresh(0, fetched(), 0);
  via_reports.admit(0, 0);
  InvalidationLog log(1);
  InvalidationListener listener;

  for (sim::Tick t = 1; t <= 8; ++t) {
    if (t % 2 == 0) {
      direct.on_server_update(0);
      log.record_update(0, t);
    }
    if (t % 4 == 0) {
      listener.apply(log.make_report(t - 4, t), via_reports);
    }
  }
  // Reports lag by one window: [0,4) and [4,8) have been heard, so the
  // update at t=8 is still unreported and the listener is one decay
  // behind the omniscient cache...
  EXPECT_GT(*via_reports.recency(0), *direct.recency(0));
  // ...until the next report catches it up.
  listener.apply(log.make_report(8, 12), via_reports);
  EXPECT_DOUBLE_EQ(*via_reports.recency(0), *direct.recency(0));
}

}  // namespace
}  // namespace mobi::cache
