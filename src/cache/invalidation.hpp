// Invalidation reports (related work, paper §5 [8]: Barbara & Imielinski,
// "Sleepers and Workaholics").
//
// In the paper's base model the base station learns of every server
// update instantly. Realistically, servers broadcast periodic
// *invalidation reports* listing the objects updated in a recent window;
// a cache that has been listening continuously applies each report to
// decay/invalidate affected entries, while a cache that slept through
// more than the report's window can no longer trust anything it holds.
// This module implements report cutting on the server side, report
// application on a BoundedCache, and the sleeper rule.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "object/object.hpp"
#include "server/remote_server.hpp"
#include "sim/tick.hpp"

namespace mobi::cache {

/// The updates of one window [window_start, window_end): `updates[id]` is
/// how many times object `id` changed in the window, one count per
/// catalog object.
struct InvalidationReport {
  sim::Tick window_start = 0;
  sim::Tick window_end = 0;
  std::vector<std::uint32_t> updates;
};

/// Server-side: cuts periodic reports from the servers' version counters.
/// The servers already count every object's versions, so the reporter
/// keeps only the versions as of its last cut; the updates of a window are
/// the versions' growth since then.
class InvalidationReporter {
 public:
  /// The first window starts at tick 0, as of the servers' versions now.
  /// The pool must outlive the reporter.
  explicit InvalidationReporter(const server::ServerPool& servers);

  /// Writes the updates since the last cut into `report`, with the window
  /// [last cut, now), and moves the cut to `now`. An update applied at
  /// `now` after this call goes into the next report. `report.updates` is
  /// resized to the catalog, so a reused report allocates nothing once
  /// sized. Throws std::invalid_argument if `now` precedes the last cut.
  void cut(sim::Tick now, InvalidationReport& report);

 private:
  const server::ServerPool* servers_;
  std::vector<server::Version> last_;  // per object, as of the last cut
  sim::Tick last_cut_ = 0;
};

/// Cache-side listener. Tracks the last report heard; applies decay for
/// each reported update to the cache it is handed. If a gap is detected
/// (the new report's window starts after the previous one ended), the
/// listener must assume it missed updates and — per the sleeper rule —
/// drops every cached entry. It holds no reference to a cache, so an
/// owner that holds both can be copied or moved freely.
class InvalidationListener {
 public:
  /// Applies a report to `cache`, decaying each resident once per update
  /// the report counts for it. Returns the number of decays applied, or -1
  /// if the sleeper rule fired and the cache was dropped. A reversed window
  /// or a count vector that is not the cache's catalog size throws
  /// std::invalid_argument before the listener or the cache changes.
  int apply(const InvalidationReport& report, BoundedCache& cache);

  sim::Tick last_heard_end() const noexcept { return last_end_; }
  std::uint64_t reports_applied() const noexcept { return applied_; }
  std::uint64_t cache_drops() const noexcept { return drops_; }

 private:
  sim::Tick last_end_ = 0;
  bool heard_any_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace mobi::cache
