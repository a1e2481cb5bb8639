#include "cache/replacement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cache/invalidation.hpp"
#include "object/builders.hpp"
#include "util/rng.hpp"

namespace mobi::cache {
namespace {

TEST(BoundedCache, AdmitsWithinCapacity) {
  const auto catalog = object::Catalog({3, 4, 5});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  EXPECT_TRUE(cache.admit(0, 0));
  EXPECT_TRUE(cache.admit(1, 0));
  EXPECT_EQ(cache.used(), 7);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(BoundedCache, EvictsToMakeRoom) {
  const auto catalog = object::Catalog({3, 4, 5});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  cache.admit(2, 2);  // needs 5, only 3 free -> evict
  EXPECT_LE(cache.used(), 10);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(BoundedCache, RejectsObjectLargerThanCapacity) {
  const auto catalog = object::Catalog({3, 20});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, 0);
  EXPECT_FALSE(cache.admit(1, 1));
  EXPECT_TRUE(cache.contains(0));  // nothing was evicted for the reject
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(BoundedCache, ReAdmitRefreshesInPlace) {
  const auto catalog = object::Catalog({3, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, 0);
  cache.on_server_update(0);
  EXPECT_LT(*cache.recency(0), 1.0);
  cache.admit(0, 1);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
  EXPECT_EQ(cache.used(), 3);
}

TEST(BoundedCache, LruEvictsLeastRecentlyUsed) {
  const auto catalog = object::make_uniform_catalog(3, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lru_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  cache.read(0, 5);  // 0 is now more recent than 1
  cache.admit(2, 6);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BoundedCache, LfuEvictsLeastFrequentlyUsed) {
  const auto catalog = object::make_uniform_catalog(3, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lfu_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  cache.read(1, 2);
  cache.read(1, 3);
  cache.read(0, 4);
  cache.admit(2, 5);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(0));
}

TEST(BoundedCache, SizeAwareEvictsLargest) {
  const auto catalog = object::Catalog({2, 6, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 8, size_aware_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  cache.admit(2, 2);  // must free 4: evicts the 6-unit object
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BoundedCache, RecencyProfitKeepsPopularFreshSmall) {
  const auto catalog = object::Catalog({2, 2, 2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4,
                     recency_profit_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  // Object 0: popular; object 1: stale and unpopular.
  cache.read(0, 2);
  cache.read(0, 3);
  cache.on_server_update(1);
  cache.on_server_update(1);
  cache.admit(2, 4);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(BoundedCache, ReadOnMissReturnsNullopt) {
  const auto catalog = object::Catalog({2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  EXPECT_FALSE(cache.read(0, 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BoundedCache, ResidentsReportMetadata) {
  const auto catalog = object::Catalog({2, 3});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  cache.read(1, 4);
  const auto residents = cache.residents();
  ASSERT_EQ(residents.size(), 2u);
  const auto& r1 = residents[0].id == 1 ? residents[0] : residents[1];
  EXPECT_EQ(r1.size, 3);
  EXPECT_EQ(r1.last_access, 4);
  EXPECT_EQ(r1.access_count, 1u);
}

TEST(BoundedCache, Validation) {
  const auto catalog = object::Catalog({2});
  EXPECT_THROW(BoundedCache(catalog, make_harmonic_decay(), 0, lru_policy()),
               std::invalid_argument);
  EXPECT_THROW(BoundedCache(catalog, nullptr, 4, lru_policy()),
               std::invalid_argument);
}

TEST(BoundedCache, IdsOutsideTheCatalogThrow) {
  const auto catalog = object::Catalog({2, 2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  cache.admit(1, 0);
  const object::ObjectId past_end = 2;  // the catalog size
  EXPECT_THROW(cache.read(past_end, 1), std::out_of_range);
  EXPECT_THROW(cache.contains(past_end), std::out_of_range);
  EXPECT_THROW(cache.recency(past_end), std::out_of_range);
  EXPECT_THROW(cache.on_server_update(past_end), std::out_of_range);
  EXPECT_THROW(cache.evict(past_end), std::out_of_range);
  EXPECT_THROW(cache.admit(past_end, 1), std::out_of_range);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.used(), 2);
}

TEST(BoundedCache, RejectedAdmitEvictsNothing) {
  // A full cache: admitting a third object would evict one, but the
  // recency is rejected first, so every resident stays.
  const auto catalog = object::Catalog({2, 2, 2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  for (const double bad : {0.0, -0.5, 1.5}) {
    try {
      cache.admit(2, 2, bad);
      ADD_FAILURE() << "recency " << bad << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("BoundedCache::admit"),
                std::string::npos)
          << error.what();
    }
  }
  // ...and a resident's re-admission keeps its score.
  EXPECT_THROW(cache.admit(0, 3, 0.0), std::invalid_argument);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.used(), 4);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
  EXPECT_EQ(cache.stats().refreshes, 2u);
}

TEST(BoundedCache, PolicyNamesExposed) {
  EXPECT_EQ(lru_policy().name, "lru");
  EXPECT_EQ(lfu_policy().name, "lfu");
  EXPECT_EQ(size_aware_policy().name, "size-aware");
  EXPECT_EQ(recency_profit_policy().name, "recency-profit");
}

TEST(BoundedCache, ExplicitEvictReleasesSpace) {
  const auto catalog = object::Catalog({3, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, 0);
  cache.admit(1, 1);
  EXPECT_EQ(cache.used(), 7);
  EXPECT_TRUE(cache.evict(0));
  EXPECT_EQ(cache.used(), 4);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.evict(0));  // already gone
  EXPECT_EQ(cache.used(), 4);
}

TEST(BoundedCache, AdmitWithRelayedRecency) {
  const auto catalog = object::Catalog({2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  cache.admit(0, 0, 0.6);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.6);
  const auto residents = cache.residents();
  ASSERT_EQ(residents.size(), 1u);
  EXPECT_DOUBLE_EQ(residents[0].recency, 0.6);
}

TEST(BoundedCache, ChurnNeverExceedsCapacity) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(50, 1, 8, rng);
  BoundedCache cache(catalog, make_harmonic_decay(), 20, lru_policy());
  for (sim::Tick t = 0; t < 500; ++t) {
    const auto id = object::ObjectId(rng.uniform_u64(0, 49));
    cache.admit(id, t);
    ASSERT_LE(cache.used(), 20);
  }
}

// Ties: the victim scan runs in ascending id with a strict `>`, so among
// equal priorities the lowest id is evicted, whatever the admission order.

TEST(BoundedCache, LruTieEvictsLowestId) {
  const auto catalog = object::make_uniform_catalog(4, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lru_policy());
  cache.admit(2, 3);
  cache.admit(1, 3);  // same last_access as 2
  cache.admit(3, 5);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BoundedCache, LfuTieEvictsLowestId) {
  const auto catalog = object::make_uniform_catalog(4, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lfu_policy());
  cache.admit(2, 0);
  cache.admit(1, 1);
  cache.read(1, 2);
  cache.read(2, 3);  // one access each
  cache.admit(3, 4);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BoundedCache, SizeAwareTieEvictsLowestId) {
  const auto catalog = object::Catalog({2, 4, 4, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 10,
                     size_aware_policy());
  cache.admit(2, 0);
  cache.admit(0, 1);
  cache.admit(1, 2);  // 1 and 2 share the largest size
  cache.admit(3, 3);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BoundedCache, RecencyProfitTieEvictsLowestId) {
  const auto catalog = object::make_uniform_catalog(4, 2);
  BoundedCache cache(catalog, make_harmonic_decay(), 4,
                     recency_profit_policy());
  cache.admit(2, 0);
  cache.admit(1, 1);
  cache.read(2, 2);
  cache.read(1, 3);
  cache.on_server_update(1);
  cache.on_server_update(2);  // equal popularity, recency and size
  cache.admit(3, 4);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

// The oracle's own copy of the four policies' eviction priorities.
double priority(ReplacementPolicy::Kind kind, const Residency& r,
                sim::Tick now) {
  switch (kind) {
    case ReplacementPolicy::Kind::kLru:
      return double(now - r.last_access);
    case ReplacementPolicy::Kind::kLfu:
      return -double(r.access_count);
    case ReplacementPolicy::Kind::kSizeAware:
      return double(r.size);
    case ReplacementPolicy::Kind::kRecencyProfit: {
      const double popularity = double(r.access_count) + 1.0;
      const double value = popularity * r.recency / double(r.size);
      return -value;
    }
  }
  return 0.0;
}

// The oracle for the differential fuzz below: a bounded cache and listener
// laid out one slot per catalog object beside a per-catalog Cache that
// holds the recencies and the stats, victims picked by a scan over every
// slot in id order, each reported update probed one at a time, and the
// sleeper rule dropping every catalog id.
class SlotPerObjectCache {
 public:
  SlotPerObjectCache(const object::Catalog& catalog, object::Units capacity,
                     ReplacementPolicy policy)
      : catalog_(&catalog),
        cache_(catalog.size(), make_harmonic_decay()),
        capacity_(capacity),
        policy_(policy),
        slots_(catalog.size()) {}

  bool admit(object::ObjectId id, sim::Tick now, double recency) {
    const object::Units size = catalog_->object_size(id);
    if (size > capacity_) return false;
    const server::FetchResult fetch{server::Version(now), now, size};
    if (cache_.contains(id)) {
      cache_.refresh(id, fetch, now, recency);
      slots_[id]->recency = recency;
      return true;
    }
    while (capacity_ - used_ < size) {
      double best = -std::numeric_limits<double>::infinity();
      std::optional<object::ObjectId> victim;
      for (const auto& slot : slots_) {
        if (!slot) continue;
        const double p = priority(policy_.kind, *slot, now);
        if (p > best) {
          best = p;
          victim = slot->id;
        }
      }
      used_ -= slots_[*victim]->size;
      slots_[*victim].reset();
      cache_.evict(*victim);
      ++evictions_;
    }
    cache_.refresh(id, fetch, now, recency);
    slots_[id] = Residency{id, size, recency, now, 0};
    used_ += size;
    return true;
  }

  std::optional<double> read(object::ObjectId id, sim::Tick now) {
    cache_.record_read(id);
    const auto score = cache_.recency(id);
    if (score) {
      slots_[id]->last_access = now;
      ++slots_[id]->access_count;
      slots_[id]->recency = *score;
    }
    return score;
  }

  void on_server_update(object::ObjectId id) {
    cache_.on_server_update(id);
    if (auto& slot = slots_[id]) slot->recency = *cache_.recency(id);
  }

  bool evict(object::ObjectId id) {
    if (!cache_.evict(id)) return false;
    used_ -= slots_[id]->size;
    slots_[id].reset();
    return true;
  }

  int apply(const InvalidationReport& report) {
    if (heard_any_ && report.window_start > last_end_) {
      for (object::ObjectId id = 0; id < slots_.size(); ++id) evict(id);
      ++drops_;
      last_end_ = report.window_end;
      return -1;
    }
    int decayed = 0;
    for (object::ObjectId id = 0; id < report.updates.size(); ++id) {
      for (std::uint32_t k = 0; k < report.updates[id]; ++k) {
        if (cache_.contains(id)) {
          on_server_update(id);
          ++decayed;
        }
      }
    }
    heard_any_ = true;
    last_end_ = std::max(last_end_, report.window_end);
    return decayed;
  }

  std::vector<Residency> residents() const {
    std::vector<Residency> result;
    for (const auto& slot : slots_) {
      if (slot) result.push_back(*slot);
    }
    return result;
  }

  const Cache& inner() const { return cache_; }
  object::Units used() const { return used_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t drops() const { return drops_; }

 private:
  const object::Catalog* catalog_;
  Cache cache_;
  object::Units capacity_;
  object::Units used_ = 0;
  ReplacementPolicy policy_;
  std::vector<std::optional<Residency>> slots_;
  std::uint64_t evictions_ = 0;
  sim::Tick last_end_ = 0;
  bool heard_any_ = false;
  std::uint64_t drops_ = 0;
};

::testing::AssertionResult same_state(const BoundedCache& cache,
                                      const InvalidationListener& listener,
                                      const SlotPerObjectCache& oracle) {
  if (cache.used() != oracle.used()) {
    return ::testing::AssertionFailure()
           << "used " << cache.used() << " vs " << oracle.used();
  }
  if (cache.evictions() != oracle.evictions()) {
    return ::testing::AssertionFailure()
           << "evictions " << cache.evictions() << " vs "
           << oracle.evictions();
  }
  if (listener.cache_drops() != oracle.drops()) {
    return ::testing::AssertionFailure() << "cache_drops differ";
  }
  for (object::ObjectId id = 0; id < oracle.inner().object_count(); ++id) {
    if (cache.contains(id) != oracle.inner().contains(id) ||
        cache.recency(id) != oracle.inner().recency(id)) {
      return ::testing::AssertionFailure() << "object " << id << " differs";
    }
  }
  const auto expected = oracle.residents();
  const auto& actual = cache.residents();
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << actual.size() << " residents vs " << expected.size();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const Residency& a = actual[i];
    const Residency& e = expected[i];
    if (a.id != e.id || a.size != e.size || a.recency != e.recency ||
        a.last_access != e.last_access || a.access_count != e.access_count) {
      return ::testing::AssertionFailure() << "resident " << i << " differs";
    }
  }
  const CacheStats& as = cache.stats();
  const CacheStats& es = oracle.inner().stats();
  if (as.hits != es.hits || as.misses != es.misses ||
      as.refreshes != es.refreshes || as.decays != es.decays) {
    return ::testing::AssertionFailure() << "stats differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(BoundedCache, MatchesSlotPerObjectOracleUnderRandomSteps) {
  util::Rng rng(20260);
  const auto catalog = object::make_random_catalog(24, 1, 8, rng);
  const ReplacementPolicy policies[] = {lru_policy(), lfu_policy(),
                                        size_aware_policy(),
                                        recency_profit_policy()};
  const auto pick = [&](std::uint64_t n) {
    return std::size_t(rng.uniform_u64(0, n - 1));
  };
  std::uint64_t evictions = 0, drops = 0;
  for (const auto& policy : policies) {
    for (object::Units capacity = 1; capacity <= 40; ++capacity) {
      BoundedCache cache(catalog, make_harmonic_decay(), capacity, policy);
      InvalidationListener listener;
      SlotPerObjectCache oracle(catalog, capacity, policy);
      sim::Tick report_end = 0;
      sim::Tick now = 0;
      for (int steps = 0; steps < 200; ++steps) {
        now += sim::Tick(pick(2));  // some steps share a tick: LRU ties
        const auto id = object::ObjectId(pick(catalog.size()));
        std::string step;
        switch (pick(6)) {
          case 0: {
            step = "admit";
            const double recency = pick(2) ? 1.0 : rng.uniform(0.05, 1.0);
            ASSERT_EQ(cache.admit(id, now, recency),
                      oracle.admit(id, now, recency));
            break;
          }
          case 1:
            step = "read";
            ASSERT_EQ(cache.read(id, now), oracle.read(id, now));
            break;
          case 2:
            step = "on_server_update";
            cache.on_server_update(id);
            oracle.on_server_update(id);
            break;
          case 3:
            step = "evict";
            ASSERT_EQ(cache.evict(id), oracle.evict(id));
            break;
          default: {
            // A contiguous report, or (one time in three) one after a
            // gap, which fires the sleeper rule once a report was heard.
            const bool gap = pick(3) == 0;
            step = gap ? "sleeper gap" : "report";
            const sim::Tick start =
                report_end + (gap ? 1 + sim::Tick(pick(4)) : 0);
            report_end = start + 1 + sim::Tick(pick(5));
            InvalidationReport report{
                start, report_end, std::vector<std::uint32_t>(catalog.size())};
            for (std::uint32_t& updates : report.updates) {
              if (pick(3) == 0) updates = 1 + std::uint32_t(pick(3));
            }
            ASSERT_EQ(listener.apply(report, cache), oracle.apply(report))
                << "policy " << policy.name << " capacity " << capacity
                << " tick " << now;
            break;
          }
        }
        ASSERT_TRUE(same_state(cache, listener, oracle))
            << "policy " << policy.name << " capacity " << capacity
            << " tick " << now << " after " << step;
      }
      evictions += cache.evictions();
      drops += listener.cache_drops();
    }
  }
  // The steps really reached replacement and the sleeper rule.
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(drops, 0u);
}

}  // namespace
}  // namespace mobi::cache
