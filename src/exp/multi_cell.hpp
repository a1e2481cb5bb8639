// Sharded multi-cell scale-out driver.
//
// The paper evaluates one base station per cell; a production deployment
// runs many cells at once. Per-cell caching decisions are independent
// (MobiCacher makes the same observation for small cells), so the natural
// unit of parallelism is the *shard*: either a single client::run_cell
// simulation, or — when cells are linked by cooperative neighbor fetch —
// a whole coop::run_cooperative cluster (cells inside a cluster share
// caches and must step together; distinct clusters never touch).
//
// Determinism contract: every shard draws from its own RNG stream whose
// seed is a pure function of (master seed, shard index), and shards share
// no mutable state, so a K-thread pool run is bit-identical to the serial
// run for every K. tests/multi_cell_test.cpp pins this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client/cell.hpp"
#include "coop/cooperative.hpp"
#include "obs/event_log.hpp"
#include "sim/mobility.hpp"
#include "util/thread_pool.hpp"

namespace mobi::obs {
class SeriesRecorder;
class WindowAggregator;
class PhaseProfiler;
}  // namespace mobi::obs

namespace mobi::exp {

enum class CellTopology {
  kSharded,       // independent cells; shard = one client::run_cell
  kCoopClusters,  // neighbor-linked clusters; shard = one coop cluster
};

const char* cell_topology_name(CellTopology topology) noexcept;

/// How shards are assigned to pool workers. Scheduling never touches
/// simulation state (every shard's seed is a pure function of its index),
/// so all three produce bit-identical results — they differ only in how
/// well they pack skewed shard costs onto the workers.
enum class ShardSchedule {
  kStaticBlocked,  // contiguous index blocks, one task per worker
  kQueue,          // shared grain-1 FIFO queue (the pre-scheduling default)
  kLptSteal,       // cost-estimated LPT plan + dynamic work stealing
};

const char* shard_schedule_name(ShardSchedule schedule) noexcept;

struct MultiCellConfig {
  std::size_t cell_count = 8;
  CellTopology topology = CellTopology::kSharded;
  /// Sharded-mode template; `cell.seed` is overridden per cell with
  /// shard_seed(seed, index).
  client::CellConfig cell;
  /// Coop-mode template; `cluster.seed` and `cluster.cell_count` are
  /// overridden per cluster.
  coop::CoopConfig cluster;
  /// Coop mode: cells per cluster (the last cluster takes the remainder).
  std::size_t cells_per_cluster = 3;
  /// Retain the per-shard per-tick series in the result (the driver
  /// always collects them internally when a recorder is attached).
  bool keep_series = false;
  /// Request-lifecycle tracing (sharded topology only; coop clusters
  /// reject a nonzero value). 0 disables; N >= 1 gives every shard its own
  /// RequestTracer sampling every N-th arrival. Each shard's sim-time
  /// latency histograms land in a private per-shard registry and are
  /// merged — in shard order, after the join — into the recorder's
  /// registry as `mc.lat.*`, alongside `mc.trace.events` /
  /// `mc.trace.dropped` counters; a pool-of-K run merges to the same
  /// bits as the serial run.
  std::size_t trace_sample_every = 0;
  std::size_t trace_event_capacity = 1 << 16;
  /// Retain each shard's EventLog in the result (sharded + tracing only).
  bool keep_trace = false;
  /// Worker assignment policy for pooled runs (ignored when the pool is
  /// null). The default LPT + stealing plan packs by estimated shard cost
  /// (clients x ticks), which matters once cell populations are skewed.
  ShardSchedule schedule = ShardSchedule::kLptSteal;
  /// Sharded mode: per-cell client_count override (size must equal
  /// cell_count when non-empty; empty keeps the template's count for
  /// every cell). This is how skewed fleets — a few giant downtown cells
  /// among many small ones — are expressed.
  std::vector<std::size_t> cell_client_counts;
  /// When non-empty (sharded + tracing), each shard also streams its
  /// events to `<dir>/trace_cell<i>.jsonl` through an inline-flush
  /// JsonlTraceSink, so the on-disk trace is complete even when the
  /// in-memory log drops. The directory must already exist.
  std::string trace_jsonl_dir;
  /// Client mobility over the cell grid (sim/mobility.hpp). The default
  /// (kOff) takes the pre-mobility sharded path bit for bit — zero extra
  /// RNG draws, byte-identical registry JSON. A non-empty config routes
  /// the run through exp::MobilityFleet: the cells and the model's client
  /// blocks run in one parallel fan-out per tick, then a single-threaded
  /// barrier queues, for each crossing, the roster moves each cell
  /// applies at the start of its next tick. Sharded topology only. The
  /// mobility seed is remixed with `seed`, so runs with different master
  /// seeds get independent trajectories.
  sim::MobilityConfig mobility;
  /// Mobility mode: attach a ResidencyProbe to every station so the
  /// knapsack scales per-client benefit by predicted residency (the
  /// MobiCacher term). Off = the residence-blind twin, same trajectories.
  bool mobility_predictive = true;
  /// Fetch-landing horizon for the residency predictor, in ticks.
  sim::Tick mobility_horizon = 8;
  /// Mobility mode: downlink delivery latency in ticks. A base-station
  /// serve decided at tick t lands on the client at t + delivery; the
  /// payload is LOST (units spent, no score) if the client has crossed
  /// to another cell or is off the air when it lands — the physical
  /// waste the residency-weighted knapsack exists to avoid. 0 = legacy
  /// instant delivery (the pre-mobility serve accounting, where
  /// residency cannot matter).
  sim::Tick mobility_delivery_ticks = 2;
  std::uint64_t seed = 42;
};

/// Mobility accounting, cumulative. Also the per-tick row type of the
/// fleet's mobility series (row t = totals through tick t), from which
/// the recorder derives the `mc.mobility.*` per-tick counters.
struct MobilityRunStats {
  std::uint64_t crossings = 0;       // boundary crossings observed
  std::uint64_t migrations = 0;      // crossings whose roster moves queued
  std::uint64_t migrated_units = 0;  // client-cache units that rode along
  // Delivery-latency accounting (zero when mobility_delivery_ticks == 0).
  std::uint64_t deliveries = 0;       // payloads that landed on their client
  std::uint64_t lost_deliveries = 0;  // client moved/off-air before landing
};

struct MultiCellResult {
  // Sharded mode, indexed by cell. cell_series[i] holds cell i's
  // cumulative per-tick snapshots when keep_series was set.
  std::vector<client::CellResult> per_cell;
  std::vector<std::vector<client::CellResult>> cell_series;
  client::CellResult aggregate;  // field-wise sum over cells

  // Coop mode, indexed by cluster.
  std::vector<coop::CoopResult> per_cluster;
  std::vector<std::vector<coop::CoopResult>> cluster_series;
  coop::CoopResult coop_aggregate;

  std::size_t cells = 0;          // actual cell count simulated
  std::size_t shards = 0;         // units of parallelism
  std::size_t total_requests = 0; // mode-independent, for throughput math

  /// Per-shard lifecycle traces, indexed by cell (sharded topology with
  /// trace_sample_every > 0 and keep_trace set; empty otherwise).
  std::vector<obs::EventLog> shard_traces;

  /// Scheduling telemetry for pooled runs: worker count, the LPT plan's
  /// modeled makespan (kLptSteal only; the busiest worker's estimated
  /// cost), and observed steals. Diagnostic only — `steals` depends on
  /// thread timing and must never feed back into simulation or metrics.
  util::WeightedForStats schedule_stats;

  /// Mobility runs only: handoff totals and the final client -> cell
  /// residency map (indexed by global client id), for invariant checks.
  MobilityRunStats mobility;
  std::vector<std::uint32_t> client_cells;
};

/// Seed for shard `index` of master stream `master`: the index-th output
/// of the SplitMix64 stream seeded by `master`. Position-addressable
/// (SplitMix64's state advances by a fixed increment), so any shard can
/// derive its seed without iterating the others — cells can be resharded
/// across machines without replaying a sequential seed chain.
std::uint64_t shard_seed(std::uint64_t master, std::size_t index) noexcept;

/// Estimated cost per shard, the scheduler's packing weight: clients x
/// ticks for sharded cells (honoring cell_client_counts), cluster cells x
/// requests-per-tick x total ticks for coop clusters. A pure function of
/// the config, so plans are reproducible across runs and machines.
std::vector<std::uint64_t> shard_cost_estimates(const MultiCellConfig& config);

/// Optional observation hooks for run_multi_cell, all owned by the
/// caller and attachable independently (mirrors exp::SimObservers).
struct MultiCellObservers {
  obs::SeriesRecorder* recorder = nullptr;
  /// Windowed aggregation over the recorder's registry. Requires
  /// `recorder` (throws otherwise). The aggregator's begin() runs after
  /// every `mc.*` registration, then ticks once per recorded sample —
  /// window frames key on recorded ticks, so a pool-of-K run produces
  /// bit-identical frames to the serial run for every K.
  obs::WindowAggregator* windows = nullptr;
  /// Driver-thread phase spans: `mc.dispatch` around the (possibly
  /// pooled) shard dispatch — mobility fleets nest their `fleet.*`
  /// spans under it — and `mc.record` around the post-join series
  /// recording. Never shared with parallel shard workers.
  obs::PhaseProfiler* profiler = nullptr;
};

/// Runs the configured cells. `pool == nullptr` runs shards serially in
/// shard order; otherwise shards are dispatched onto the pool. With a
/// recorder attached, per-tick shard series are summed (in shard order)
/// into `mc.*` registry metrics and sampled once per tick after all
/// shards complete — identical output whatever the pool size. Invalid
/// configs throw std::invalid_argument before any work, including a
/// negative cell.ticks on the sharded topology, a negative
/// cluster.warmup_ticks or cluster.measure_ticks on coop clusters, and
/// the sharded-only options (tracing, per-cell client counts, mobility)
/// on coop clusters.
MultiCellResult run_multi_cell(const MultiCellConfig& config,
                               util::ThreadPool* pool = nullptr,
                               const MultiCellObservers& observers = {});

}  // namespace mobi::exp
