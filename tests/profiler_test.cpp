// PhaseProfiler suite: the Σself == root-total attribution invariant,
// deterministic sim-cost accounting (calls and caller-supplied units are
// pure functions of the simulation), collapsed-stack flamegraph format,
// live-counter registry attachment and re-attachment, overflow/dropped
// accounting, and reset semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mobi::obs {
namespace {

// Spin a little so spans accumulate nonzero wall time (steady_clock has
// ns resolution; a few thousand iterations are plenty).
void burn() {
  volatile std::uint64_t x = 0;
  for (int i = 0; i < 5000; ++i) x = x + std::uint64_t(i);
}

TEST(PhaseProfiler, SelfTimesSumExactlyToRootTotal) {
  PhaseProfiler profiler;
  const auto outer = profiler.phase("outer");
  const auto inner = profiler.phase("inner");
  const auto leaf = profiler.phase("leaf");

  for (int pass = 0; pass < 3; ++pass) {
    ScopedPhase outer_span(&profiler, outer);
    burn();
    {
      ScopedPhase inner_span(&profiler, inner);
      burn();
      ScopedPhase leaf_span(&profiler, leaf);
      burn();
    }
    {
      ScopedPhase leaf_span(&profiler, leaf);  // second path to "leaf"
      burn();
    }
  }

  // The invariant the header promises: self attribution never clamps,
  // so the sum over every phase equals root wall time *exactly*.
  std::uint64_t self_sum = 0;
  for (std::size_t id = 0; id < profiler.phase_count(); ++id) {
    self_sum += profiler.self_wall_ns(PhaseProfiler::PhaseId(id));
  }
  EXPECT_EQ(self_sum, profiler.root_total_wall_ns());
  EXPECT_GT(profiler.root_total_wall_ns(), 0u);

  // Totals nest: a parent's total covers its children's.
  EXPECT_GE(profiler.total_wall_ns(outer),
            profiler.total_wall_ns(inner));
  EXPECT_GE(profiler.total_wall_ns(inner), profiler.self_wall_ns(inner));
  EXPECT_EQ(profiler.calls(outer), 3u);
  EXPECT_EQ(profiler.calls(inner), 3u);
  EXPECT_EQ(profiler.calls(leaf), 6u);
}

TEST(PhaseProfiler, SimCostAttributesToInnermostOpenSpan) {
  PhaseProfiler profiler;
  const auto a = profiler.phase("a");
  const auto b = profiler.phase("b");
  {
    ScopedPhase span_a(&profiler, a);
    span_a.add_cost(10);
    {
      ScopedPhase span_b(&profiler, b);
      // Issued through span_a's handle, but attribution follows the
      // innermost open span — the stack, not the RAII object.
      span_a.add_cost(7);
    }
    span_a.add_cost(5);
  }
  EXPECT_EQ(profiler.sim_cost(a), 15u);
  EXPECT_EQ(profiler.sim_cost(b), 7u);
  EXPECT_EQ(profiler.dropped_cost(), 0u);

  profiler.add_cost(3);  // no open span
  EXPECT_EQ(profiler.dropped_cost(), 3u);
  EXPECT_EQ(profiler.sim_cost(a), 15u);
}

TEST(PhaseProfiler, DeterministicSeriesAreReproducible) {
  // calls/sim_cost are pure functions of the call sequence — two
  // identical runs agree exactly (wall_ns of course does not).
  const auto run = [] {
    PhaseProfiler profiler;
    const auto tick = profiler.phase("tick");
    const auto serve = profiler.phase("serve");
    std::vector<std::uint64_t> series;
    for (int t = 0; t < 8; ++t) {
      ScopedPhase tick_span(&profiler, tick);
      tick_span.add_cost(std::uint64_t(t));
      ScopedPhase serve_span(&profiler, serve);
      serve_span.add_cost(std::uint64_t(2 * t + 1));
    }
    series.push_back(profiler.calls(tick));
    series.push_back(profiler.calls(serve));
    series.push_back(profiler.sim_cost(tick));
    series.push_back(profiler.sim_cost(serve));
    return series;
  };
  EXPECT_EQ(run(), run());
}

TEST(PhaseProfiler, NullProfilerIsFullyDisabled) {
  ScopedPhase span(nullptr, 0);
  span.add_cost(42);  // must not crash; nothing to observe
}

TEST(PhaseProfiler, FlamegraphCollapsedStacksArePathAwareAndSorted) {
  PhaseProfiler profiler;
  const auto tick = profiler.phase("tick");
  const auto serve = profiler.phase("serve");
  const auto fetch = profiler.phase("fetch");
  {
    ScopedPhase tick_span(&profiler, tick);
    burn();
    {
      ScopedPhase serve_span(&profiler, serve);
      burn();
      ScopedPhase fetch_span(&profiler, fetch);
      burn();
    }
  }
  {
    ScopedPhase fetch_span(&profiler, fetch);  // root-level second path
    burn();
  }

  const std::string flame = profiler.flamegraph_collapsed();
  std::vector<std::string> paths;
  std::uint64_t self_sum = 0;
  std::istringstream lines(flame);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    paths.push_back(line.substr(0, space));
    self_sum += std::stoull(line.substr(space + 1));
  }
  // One line per observed call path, sorted lexicographically; the same
  // phase appears at both a nested and a root path.
  EXPECT_EQ(paths, (std::vector<std::string>{"fetch", "tick",
                                             "tick;serve",
                                             "tick;serve;fetch"}));
  // Collapsed-stack self values are a partition of root wall time.
  EXPECT_EQ(self_sum, profiler.root_total_wall_ns());
}

TEST(PhaseProfiler, LiveCountersFollowAttachAndReattach) {
  PhaseProfiler profiler;
  const auto work = profiler.phase("work");

  MetricsRegistry first;
  profiler.attach_registry(&first);
  ASSERT_TRUE(first.contains("prof.phase.work.calls"));
  ASSERT_TRUE(first.contains("prof.phase.work.sim_cost"));
  ASSERT_TRUE(first.contains("prof.phase.work.wall_ns"));
  {
    ScopedPhase span(&profiler, work);
    span.add_cost(4);
  }
  EXPECT_EQ(first.scalar_value("prof.phase.work.calls"), 1.0);
  EXPECT_EQ(first.scalar_value("prof.phase.work.sim_cost"), 4.0);

  // Phases registered after attachment get counters immediately.
  const auto late = profiler.phase("late");
  ASSERT_TRUE(first.contains("prof.phase.late.calls"));
  { ScopedPhase span(&profiler, late); }
  EXPECT_EQ(first.scalar_value("prof.phase.late.calls"), 1.0);

  // Re-attaching to the same registry would re-register the same names;
  // the strict-registry contract turns that into a throw.
  EXPECT_THROW(profiler.attach_registry(&first), std::invalid_argument);

  // A fresh registry accumulates from zero — the profiler's own totals
  // keep counting across the switch.
  MetricsRegistry second;
  profiler.attach_registry(&second);
  {
    ScopedPhase span(&profiler, work);
    span.add_cost(6);
  }
  EXPECT_EQ(second.scalar_value("prof.phase.work.calls"), 1.0);
  EXPECT_EQ(second.scalar_value("prof.phase.work.sim_cost"), 6.0);
  EXPECT_EQ(first.scalar_value("prof.phase.work.calls"), 1.0);
  EXPECT_EQ(profiler.calls(work), 2u);
  EXPECT_EQ(profiler.sim_cost(work), 10u);

  // Detach: spans keep accumulating internally, no registry is touched.
  profiler.attach_registry(nullptr);
  { ScopedPhase span(&profiler, work); }
  EXPECT_EQ(second.scalar_value("prof.phase.work.calls"), 1.0);
  EXPECT_EQ(profiler.calls(work), 3u);
}

TEST(PhaseProfiler, ExportMetricsSnapshotsIncludeSelfWall) {
  PhaseProfiler profiler;
  const auto outer = profiler.phase("outer");
  const auto inner = profiler.phase("inner");
  {
    ScopedPhase outer_span(&profiler, outer);
    outer_span.add_cost(2);
    burn();
    ScopedPhase inner_span(&profiler, inner);
    burn();
  }

  MetricsRegistry snapshot;
  profiler.export_metrics(snapshot, "p");
  EXPECT_EQ(snapshot.scalar_value("p.outer.calls"), 1.0);
  EXPECT_EQ(snapshot.scalar_value("p.outer.sim_cost"), 2.0);
  EXPECT_EQ(snapshot.scalar_value("p.outer.wall_ns"),
            double(profiler.total_wall_ns(outer)));
  EXPECT_EQ(snapshot.scalar_value("p.outer.self_wall_ns"),
            double(profiler.self_wall_ns(outer)));
  EXPECT_EQ(snapshot.scalar_value("p.inner.self_wall_ns"),
            double(profiler.self_wall_ns(inner)));
}

TEST(PhaseProfiler, DepthOverflowIsCountedAndBalanced) {
  PhaseProfiler::Config config;
  config.max_depth = 2;
  PhaseProfiler profiler(config);
  const auto a = profiler.phase("a");
  {
    ScopedPhase s1(&profiler, a);
    ScopedPhase s2(&profiler, a);
    {
      ScopedPhase s3(&profiler, a);  // past max_depth: counted, not tracked
      s3.add_cost(9);                // dropped with the overflowed span
    }
    s2.add_cost(1);  // back in tracked territory
  }
  EXPECT_EQ(profiler.depth_overflows(), 1u);
  EXPECT_EQ(profiler.dropped_cost(), 9u);
  EXPECT_EQ(profiler.sim_cost(a), 1u);
  EXPECT_EQ(profiler.calls(a), 2u);  // only the tracked spans count
  // The stack unwound cleanly: Σself == root total still holds.
  EXPECT_EQ(profiler.self_wall_ns(a), profiler.root_total_wall_ns());
}

TEST(PhaseProfiler, PhaseLimitThrowsAndResetKeepsIds) {
  PhaseProfiler::Config config;
  config.max_phases = 2;
  PhaseProfiler profiler(config);
  const auto a = profiler.phase("a");
  const auto b = profiler.phase("b");
  EXPECT_EQ(profiler.phase("a"), a);  // lookup, not creation
  EXPECT_THROW(profiler.phase("c"), std::length_error);

  {
    ScopedPhase span(&profiler, a);
    span.add_cost(5);
  }
  profiler.reset();
  EXPECT_EQ(profiler.phase_count(), 2u);
  EXPECT_EQ(profiler.phase("b"), b);  // ids survive reset
  EXPECT_EQ(profiler.calls(a), 0u);
  EXPECT_EQ(profiler.sim_cost(a), 0u);
  EXPECT_EQ(profiler.root_total_wall_ns(), 0u);
  EXPECT_EQ(profiler.flamegraph_collapsed(), "");  // trie paths forgotten
}

}  // namespace
}  // namespace mobi::obs
