#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace mobi::cache {
namespace {

Cache make_cache(std::size_t n = 4) {
  return Cache(n, make_harmonic_decay(1.0));
}

server::FetchResult fetched(server::Version version, sim::Tick at = 0,
                            object::Units size = 1) {
  return server::FetchResult{version, at, size};
}

TEST(Cache, StartsEmpty) {
  const auto cache = make_cache();
  EXPECT_EQ(cache.object_count(), 4u);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.recency(0).has_value());
  EXPECT_EQ(cache.recency_or_zero(0), 0.0);
  EXPECT_FALSE(cache.version(0).has_value());
}

TEST(Cache, NullDecayThrows) {
  EXPECT_THROW(Cache(4, nullptr), std::invalid_argument);
}

TEST(Cache, RefreshInstallsFreshCopy) {
  auto cache = make_cache();
  cache.refresh(1, fetched(3, 7), 7);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_DOUBLE_EQ(*cache.recency(1), 1.0);
  EXPECT_EQ(*cache.version(1), 3u);
  EXPECT_EQ(cache.entry(1).fetched_at, 7);
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

TEST(Cache, ServerUpdateDecaysRecency) {
  auto cache = make_cache();
  cache.refresh(0, fetched(1), 0);
  cache.on_server_update(0);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.5);
  cache.on_server_update(0);
  EXPECT_NEAR(*cache.recency(0), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(cache.stats().decays, 2u);
}

TEST(Cache, UpdateOnAbsentEntryIsNoop) {
  auto cache = make_cache();
  cache.on_server_update(2);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.stats().decays, 0u);
}

TEST(Cache, RefreshResetsRecency) {
  auto cache = make_cache();
  cache.refresh(0, fetched(1), 0);
  cache.on_server_update(0);
  cache.refresh(0, fetched(2), 5);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
  EXPECT_EQ(*cache.version(0), 2u);
  EXPECT_EQ(cache.resident(), 1u);  // same object, not double-counted
}

TEST(Cache, StalenessComparesVersions) {
  auto cache = make_cache();
  EXPECT_TRUE(cache.is_stale(0, 0));  // absent is always stale
  cache.refresh(0, fetched(2), 0);
  EXPECT_FALSE(cache.is_stale(0, 2));
  EXPECT_FALSE(cache.is_stale(0, 1));
  EXPECT_TRUE(cache.is_stale(0, 3));
}

TEST(Cache, ReadAccounting) {
  auto cache = make_cache();
  EXPECT_FALSE(cache.record_read(0).has_value());  // miss
  cache.refresh(0, fetched(1), 0);
  EXPECT_EQ(cache.record_read(0), 1.0);  // hit, fresh copy
  cache.on_server_update(0);
  // A hit returns the served copy's recency, decayed or not.
  EXPECT_EQ(cache.record_read(0), cache.recency(0));
  EXPECT_LT(*cache.recency(0), 1.0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.entry(0).hits, 2u);
}

TEST(Cache, EvictRemovesEntry) {
  auto cache = make_cache();
  cache.refresh(0, fetched(1), 0);
  EXPECT_TRUE(cache.evict(0));
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_FALSE(cache.evict(0));  // already gone
}

TEST(Cache, EntryOnAbsentThrows) {
  const auto cache = make_cache();
  EXPECT_THROW(cache.entry(0), std::logic_error);
}

TEST(Cache, BadIdThrows) {
  auto cache = make_cache(2);
  EXPECT_THROW(cache.contains(2), std::out_of_range);
  EXPECT_THROW(cache.refresh(5, fetched(1), 0), std::out_of_range);
  EXPECT_THROW(cache.recency(9), std::out_of_range);
  EXPECT_THROW(cache.recency_or_zero(9), std::out_of_range);
}

TEST(Cache, ExponentialDecayModelIsHonored) {
  Cache cache(1, make_exponential_decay(0.5));
  cache.refresh(0, fetched(1), 0);
  cache.on_server_update(0);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.5);
  cache.on_server_update(0);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.25);
}

TEST(Cache, RefreshWithInitialRecency) {
  auto cache = make_cache();
  cache.refresh(0, fetched(1), 0, 0.4);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.4);
  // The relayed copy decays from where it started.
  cache.on_server_update(0);
  EXPECT_NEAR(*cache.recency(0), 0.4 / 1.4, 1e-12);
}

TEST(Cache, RefreshRejectsBadInitialRecency) {
  auto cache = make_cache();
  EXPECT_THROW(cache.refresh(0, fetched(1), 0, 0.0), std::invalid_argument);
  EXPECT_THROW(cache.refresh(0, fetched(1), 0, 1.5), std::invalid_argument);
}

TEST(Cache, ManyObjectsIndependent) {
  auto cache = make_cache(4);
  cache.refresh(0, fetched(1), 0);
  cache.refresh(1, fetched(1), 0);
  cache.on_server_update(0);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.5);
  EXPECT_DOUBLE_EQ(*cache.recency(1), 1.0);
  EXPECT_EQ(cache.resident(), 2u);
}

}  // namespace
}  // namespace mobi::cache
