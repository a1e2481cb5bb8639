// Ablation: how stale *knowledge* (not stale data) degrades the on-demand
// policy. The paper's base model lets the base station observe every
// server update instantly; with Barbara-Imielinski invalidation reports
// the base station only learns of updates when a report arrives. Between
// reports the cache's believed recency is optimistic, so the knapsack
// assigns too little profit to quietly-updated objects and spends its
// budget elsewhere. We sweep the report period and measure the *true*
// average client score (computed against an omniscient shadow cache).
#include <iostream>

#include "bench_common.hpp"
#include "cache/invalidation.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

int main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  const std::size_t n = 200;
  const object::Units budget = 60;
  const sim::Tick warmup = 30, measure = 200;

  util::Table table({"report period (ticks)", "true avg score",
                     "believed-vs-true recency gap", "units downloaded"});
  for (sim::Tick report_period : {1, 2, 5, 10, 20}) {
    util::Rng rng(seed);
    const object::Catalog catalog = object::make_random_catalog(n, 1, 8, rng);
    server::ServerPool servers(catalog, 1);
    // `believed`: decayed only when a report arrives (what the policy sees).
    // `truth`: decayed on every update (what clients actually experience).
    cache::Cache believed(n, cache::make_harmonic_decay());
    cache::Cache truth(n, cache::make_harmonic_decay());
    cache::InvalidationReporter reporter(servers);
    cache::InvalidationReport report;
    core::ReciprocalScorer scorer;
    core::OnDemandKnapsackPolicy policy;
    auto updates = workload::make_periodic_staggered(n, 3);
    workload::RequestGenerator generator(workload::make_zipf_access(n, 1.0),
                                         workload::ConstantTarget{1.0}, 80,
                                         rng.split());

    double true_score = 0.0, gap = 0.0;
    std::size_t scored = 0;
    object::Units downloaded = 0;
    for (sim::Tick t = 0; t < warmup + measure; ++t) {
      // Reports are contiguous, so a listener's sleeper rule never fires:
      // each reported update decays the believed copy once. The cut comes
      // before this tick's updates, which go into the next report.
      if (t > 0 && t % report_period == 0) {
        reporter.cut(t, report);
        for (object::ObjectId id = 0; id < n; ++id) {
          for (std::uint32_t k = 0; k < report.updates[id]; ++k) {
            believed.on_server_update(id);
          }
        }
      }
      updates->for_each_updated(t, [&](object::ObjectId id) {
        servers.apply_update(id, t);
        truth.on_server_update(id);
      });

      const auto batch = generator.next_batch();
      core::PolicyContext ctx;
      ctx.catalog = &catalog;
      ctx.cache = &believed;  // the policy acts on reported knowledge
      ctx.servers = &servers;
      ctx.scorer = &scorer;
      ctx.now = t;
      ctx.budget = budget;
      for (object::ObjectId id : policy.select(batch, ctx)) {
        const auto fetch = servers.fetch(id);
        believed.refresh(id, fetch, t);
        truth.refresh(id, fetch, t);
        if (t >= warmup) downloaded += fetch.size;
      }
      if (t >= warmup) {
        for (const auto& request : batch) {
          const double x_true = truth.recency_or_zero(request.object);
          true_score += scorer.score(x_true, request.target_recency);
          gap += believed.recency_or_zero(request.object) - x_true;
          ++scored;
        }
      }
    }
    table.add_row({(long long)(report_period), true_score / double(scored),
                   gap / double(scored), (long long)(downloaded)});
  }
  bench::emit(flags,
              "Ablation: invalidation-report period vs true client score "
              "(knapsack policy on believed recency)",
              "ablation_invalidation", table);
  std::cout << "Read: period 1 reproduces the paper's instant-knowledge "
               "model; longer periods widen the believed-vs-true gap and "
               "drag the true score down.\n";
  return 0;
}
