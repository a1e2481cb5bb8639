// Invalidation reports (related work, paper §5 [8]: Barbara & Imielinski,
// "Sleepers and Workaholics").
//
// In the paper's base model the base station learns of every server
// update instantly. Realistically, servers broadcast periodic
// *invalidation reports* listing the objects updated in a recent window;
// a cache that has been listening continuously applies each report to
// decay/invalidate affected entries, while a cache that slept through
// more than the report's window can no longer trust anything it holds.
// This module implements report generation on the server side, report
// application on a BoundedCache, and the sleeper rule.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/replacement.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::cache {

/// The updates of one window [window_start, window_end): each updated
/// object appears once with its update multiplicity (an object updated k
/// times in the window has count k). Items are in strictly ascending id,
/// an invariant add() enforces, so a listener can binary-search them.
class InvalidationReport {
 public:
  struct Item {
    object::ObjectId object = 0;
    std::uint32_t updates = 0;
  };

  InvalidationReport() = default;
  InvalidationReport(sim::Tick window_start, sim::Tick window_end)
      : window_start_(window_start), window_end_(window_end) {}

  sim::Tick window_start() const noexcept { return window_start_; }
  sim::Tick window_end() const noexcept { return window_end_; }
  const std::vector<Item>& items() const noexcept { return items_; }

  /// Appends `object` updated `updates` times. Throws
  /// std::invalid_argument unless `object` is above every id already in
  /// the report.
  void add(object::ObjectId object, std::uint32_t updates);

  /// Empties the items and sets a new window; the items keep their
  /// capacity, so a reused report stops allocating once reserved.
  void reset(sim::Tick window_start, sim::Tick window_end);
  void reserve(std::size_t items) { items_.reserve(items); }

 private:
  sim::Tick window_start_ = 0;
  sim::Tick window_end_ = 0;
  std::vector<Item> items_;
};

/// Server-side: records updates as they happen and cuts periodic reports.
class InvalidationLog {
 public:
  explicit InvalidationLog(std::size_t object_count);

  void record_update(object::ObjectId id, sim::Tick tick);

  /// Builds the report covering [from, to); items appear in id order.
  InvalidationReport make_report(sim::Tick from, sim::Tick to) const;

  /// make_report into a caller-owned report (reset first). Reusing one
  /// scratch report per reporting site makes the periodic-report tick
  /// allocation-free once its items reach their high-water capacity —
  /// the mobility fleet's steady state depends on this.
  void make_report_into(sim::Tick from, sim::Tick to,
                        InvalidationReport& out) const;

  /// Drops records older than `before` (bounded memory for long runs).
  void prune(sim::Tick before);

  std::size_t recorded_updates() const noexcept { return total_; }

 private:
  std::size_t object_count_;
  // Per-object sorted update ticks; simulations are append-only in time.
  std::vector<std::vector<sim::Tick>> updates_;
  std::size_t total_ = 0;
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
  /// the report lists for it. Returns the number of decays applied, or -1
  /// if the sleeper rule fired and the cache was dropped.
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
