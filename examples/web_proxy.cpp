// Web proxy caching scenario.
//
// The paper notes (§1) that its results "could be applied to web proxy
// caching": a proxy with a *bounded* cache sits between browsers and
// origin servers, pages change at the origins, and clients tolerate
// slightly stale pages. This example combines the on-demand knapsack
// download policy with the bounded cache + replacement policies from the
// paper's future-work section, and compares replacement policies on the
// same trace.
//
//   $ ./web_proxy [--cache-units=300] [--ticks=200] [--seed=42]
#include <cstdio>
#include <iostream>
#include <memory>

#include "cache/replacement.hpp"
#include "core/benefit.hpp"
#include "core/knapsack.hpp"
#include "core/scoring.hpp"
#include "object/builders.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/trace.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

struct ProxyOutcome {
  std::string policy;
  double hit_rate = 0.0;
  double average_score = 0.0;
  object::Units bytes_from_origin = 0;
  std::uint64_t evictions = 0;
};

/// Makes `view` hold exactly the proxy's residents, at their recencies.
void mirror(const cache::BoundedCache& proxy_cache, cache::Cache& view,
            sim::Tick now) {
  for (object::ObjectId id = 0; id < view.object_count(); ++id) {
    view.evict(id);
  }
  for (const auto& resident : proxy_cache.residents()) {
    view.refresh(resident.id, server::FetchResult{}, now, resident.recency);
  }
}

/// One proxy run: bounded cache + per-tick knapsack refresh budget.
ProxyOutcome run_proxy(const object::Catalog& catalog,
                       const workload::Trace& trace, sim::Tick ticks,
                       object::Units cache_units,
                       cache::ReplacementPolicy policy) {
  server::ServerPool origins(catalog, 4);
  const std::shared_ptr<const cache::DecayModel> decay =
      cache::make_harmonic_decay();
  cache::BoundedCache proxy_cache(catalog, decay, cache_units, policy);
  // build_candidates reads recencies from a per-catalog Cache; this one
  // mirrors the proxy's residents before each solve.
  cache::Cache view(catalog.size(), decay);
  auto page_updates = workload::make_periodic_staggered(catalog.size(), 8);
  core::ReciprocalScorer scorer;
  const object::Units refresh_budget = 40;

  ProxyOutcome outcome;
  outcome.policy = proxy_cache.policy_name();
  std::size_t requests = 0, hits = 0;
  double score_sum = 0.0;

  for (sim::Tick t = 0; t < ticks; ++t) {
    page_updates->for_each_updated(t, [&](object::ObjectId id) {
      origins.apply_update(id, t);
      proxy_cache.on_server_update(id);
    });

    const auto batch = trace.batch_at(t);
    // Decide which requested pages to revalidate at the origin: knapsack
    // over profit computed against the bounded cache's recency state.
    mirror(proxy_cache, view, t);
    const auto set = core::build_candidates(batch, catalog, view, scorer);
    std::vector<core::KnapsackItem> items;
    for (const auto& cand : set.candidates) {
      items.push_back(core::KnapsackItem{cand.size, cand.profit});
    }
    const auto solution = core::solve_dp(items, refresh_budget);
    for (std::size_t index : solution.chosen) {
      const auto id = set.candidates[index].object;
      proxy_cache.admit(id, t);
      outcome.bytes_from_origin += catalog.object_size(id);
    }

    // Serve the batch.
    for (const auto& request : batch) {
      ++requests;
      const auto recency = proxy_cache.read(request.object, t);
      if (recency) {
        ++hits;
        score_sum += scorer.score(*recency, request.target_recency);
      } else {
        // Miss: fetch on demand (compulsory traffic), serve fresh.
        proxy_cache.admit(request.object, t);
        outcome.bytes_from_origin += catalog.object_size(request.object);
        score_sum += 1.0;
      }
    }
  }
  outcome.hit_rate = requests ? double(hits) / double(requests) : 0.0;
  outcome.average_score = requests ? score_sum / double(requests) : 0.0;
  outcome.evictions = proxy_cache.evictions();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto ticks = sim::Tick(flags.get_int("ticks", 200));
  const auto cache_units = object::Units(flags.get_int("cache-units", 300));
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));

  // 400 pages, 1-12 units each; zipf popularity (the web's signature).
  const object::Catalog catalog = object::make_random_catalog(400, 1, 12, rng);
  workload::RequestGenerator generator(
      workload::make_zipf_access(catalog.size(), 1.0),
      workload::UniformTarget{0.6, 1.0}, 60, rng.split());
  const workload::Trace trace = workload::generate_trace(generator, ticks);

  std::cout << "Web proxy: " << catalog.size() << " pages ("
            << catalog.total_size() << " units at origin), cache holds "
            << cache_units << " units ("
            << 100 * cache_units / catalog.total_size() << "%), " << ticks
            << " ticks\n\n";
  std::printf("%-16s %9s %10s %13s %10s\n", "replacement", "hit rate",
              "avg score", "origin bytes", "evictions");
  for (auto policy :
       {cache::lru_policy(), cache::lfu_policy(), cache::size_aware_policy(),
        cache::recency_profit_policy()}) {
    const auto outcome =
        run_proxy(catalog, trace, ticks, cache_units, policy);
    std::printf("%-16s %9.4f %10.4f %13lld %10llu\n", outcome.policy.c_str(),
                outcome.hit_rate, outcome.average_score,
                (long long)outcome.bytes_from_origin,
                (unsigned long long)outcome.evictions);
  }
  std::cout << "\nAll four policies replay the same request trace; the "
               "recency-profit policy uses both popularity and staleness, "
               "as suggested in the paper's future work.\n";
  return 0;
}
