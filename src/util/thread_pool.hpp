// A small fixed-size thread pool with one way to run work: run(n, fn), a
// fork-join in which the calling thread claims indices beside the
// workers. A call publishes one job (the callable by pointer plus
// atomic next-index and finished counters) and allocates nothing, so it
// can fan out every simulated tick. parallel_for and
// weighted_parallel_for are built on it. On single-core hosts the pool
// degrades to near-serial execution with identical results: work items
// never share mutable state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mobi::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (with a floor of 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Stops and joins the workers. Idempotent; the destructor calls it. A
  /// run() that races it, or comes after it, still runs every index: the
  /// caller claims whatever no worker took.
  void shutdown();

  /// Runs fn(i) once for every i in [0, n) on the workers and the calling
  /// thread, and returns when all have finished. fn must be safe to call
  /// concurrently for distinct i. A run() entered while another is in
  /// flight on this pool (a nested call from inside fn, or a second
  /// calling thread) runs its indices serially on its own thread, so
  /// calls never deadlock. The first exception thrown by fn is rethrown
  /// only after every index has run.
  template <typename F>
  void run(std::size_t n, const F& fn) {
    run_job(n, &fn, [](const void* f, std::size_t i) {
      (*static_cast<const F*>(f))(i);
    });
  }

 private:
  struct Job;

  void run_job(std::size_t n, const void* fn,
               void (*call)(const void*, std::size_t));
  void drain(Job& job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // parked workers wait for a new epoch
  std::condition_variable done_cv_;  // a parked caller waits for its job
  std::atomic<std::uint64_t> epoch_{0};   // bumped once per published job
  std::atomic<Job*> job_{nullptr};        // the job in flight, if any
  std::atomic<std::size_t> parked_{0};    // workers blocked on work_cv_
  std::atomic<std::size_t> inside_{0};    // workers that may touch *job_
  std::atomic<bool> busy_{false};         // a pooled run() is in flight
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [begin, end) across the pool in contiguous
/// chunks of `grain` indices (one run() index per chunk) and waits for
/// completion. A throw ends its own chunk; the first exception is
/// rethrown after every other chunk has run. A null pool runs every
/// index in order on the calling thread, and a throw stops it there.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

/// Longest-processing-time-first assignment of weighted items onto
/// `workers` queues: items sorted by (cost desc, index asc) land on the
/// least-loaded queue (ties broken toward the lowest queue index), so
/// the plan is a pure function of the costs — deterministic whatever
/// thread later executes which queue.
struct LptPlan {
  std::vector<std::vector<std::size_t>> queues;  // item indices per worker
  std::vector<std::uint64_t> loads;              // summed cost per worker
  /// Modeled makespan: the busiest worker's load, i.e. the wall-clock
  /// lower bound this assignment achieves on `workers` ideal cores.
  std::uint64_t makespan() const noexcept;
};

LptPlan lpt_plan(const std::vector<std::uint64_t>& costs, std::size_t workers);

/// Per-run counters for weighted_parallel_for (all zero-initialized).
struct WeightedForStats {
  std::size_t workers = 0;
  std::uint64_t planned_makespan = 0;  // lpt_plan(costs).makespan()
  std::uint64_t steals = 0;            // items run off another queue
};

/// Imbalance-aware parallel_for: runs fn(i) once for every cost index,
/// scheduling via an LPT plan over `costs` plus dynamic work-stealing —
/// a worker that drains its own queue pulls remaining items from the
/// other queues, so one mis-estimated straggler cannot idle the pool.
/// One run() of pool.size() indices, one per queue, however many items
/// there are. fn must be safe to call concurrently for distinct i (same
/// contract as parallel_for); which thread runs which item is
/// unspecified, so fn must keep results independent of placement.
/// Rethrows the first exception once every queue's pass has returned.
void weighted_parallel_for(ThreadPool& pool,
                           const std::vector<std::uint64_t>& costs,
                           const std::function<void(std::size_t)>& fn,
                           WeightedForStats* stats = nullptr);

}  // namespace mobi::util
