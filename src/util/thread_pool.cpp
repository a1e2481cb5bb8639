#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <numeric>

namespace mobi::util {

namespace {

// Idle workers, and a caller that has run out of indices, spin this many
// times before blocking on a condition variable: long enough to bridge
// the serial gap between back-to-back jobs (a fleet's handoff barrier
// between two ticks), short enough that a waiting thread does not hold
// a CPU through a long serial phase.
constexpr unsigned kSpinBudget = 1u << 14;
// Spinners yield this often, so a pool larger than the host (8 workers
// on 4 CPUs) does not starve the threads doing the work.
constexpr unsigned kYieldEvery = 64;

// Spins until done() holds or the budget runs out; returns done().
template <typename Done>
bool spin_until(const Done& done) {
  for (unsigned spin = 1; spin <= kSpinBudget; ++spin) {
    if (done()) return true;
    if (spin % kYieldEvery == 0) std::this_thread::yield();
  }
  return done();
}

}  // namespace

// One run() call, on the caller's stack. run_job clears job_ and waits
// for inside_ to reach zero before returning, so no worker touches a
// Job after its frame is gone. All atomics keep the default seq_cst
// order: the parking handshakes (epoch_/parked_, finished/caller_parked,
// job_/inside_) each pair a store with a load of the other variable.
struct ThreadPool::Job {
  const void* fn;
  void (*call)(const void*, std::size_t);
  std::size_t n;
  std::atomic<std::size_t> next{0};      // next unclaimed index
  std::atomic<std::size_t> finished{0};  // indices that have returned
  std::atomic<bool> caller_parked{false};
  std::exception_ptr error{};  // first exception, written under mutex_
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Thread creation failed partway: the destructor will not run, so the
    // workers already started must be stopped here or the process would
    // abort destroying joinable threads.
    shutdown();
    throw;
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;  // idempotent; workers already joined or joining
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  const auto woken = [&] { return epoch_ != seen || stopping_; };
  for (;;) {
    if (!spin_until(woken)) {
      std::unique_lock lock(mutex_);
      ++parked_;
      work_cv_.wait(lock, woken);
      --parked_;
    }
    if (stopping_) return;
    seen = epoch_;
    ++inside_;
    if (Job* job = job_) drain(*job);
    --inside_;
  }
}

void ThreadPool::drain(Job& job) {
  for (std::size_t i = job.next++; i < job.n; i = job.next++) {
    try {
      job.call(job.fn, i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    if (++job.finished == job.n && job.caller_parked) {
      std::lock_guard lock(mutex_);
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_job(std::size_t n, const void* fn,
                         void (*call)(const void*, std::size_t)) {
  if (n == 0) return;
  Job job{fn, call, n};
  // One job in flight per pool: a nested or concurrent call drains its
  // own job alone instead of waiting on workers that may be its callers.
  const bool pooled = n > 1 && !busy_.exchange(true);
  if (pooled) {
    job_ = &job;
    ++epoch_;
    if (parked_ != 0) {
      std::lock_guard lock(mutex_);
      work_cv_.notify_all();
    }
  }
  drain(job);
  if (pooled) {
    job_ = nullptr;  // every index is claimed; latecomers find nothing
    const auto done = [&] { return job.finished == n; };
    if (!spin_until(done)) {
      std::unique_lock lock(mutex_);
      job.caller_parked = true;
      done_cv_.wait(lock, done);
    }
    while (inside_ != 0) std::this_thread::yield();
    busy_ = false;
  }
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  if (!pool) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  grain = std::max<std::size_t>(1, grain);
  // Both forms stay in range when grain is near SIZE_MAX.
  const std::size_t chunks = (end - begin - 1) / grain + 1;
  pool->run(chunks, [&](std::size_t chunk) {
    const std::size_t first = begin + chunk * grain;
    const std::size_t last = first + std::min(grain, end - first);
    for (std::size_t i = first; i < last; ++i) fn(i);
  });
}

std::uint64_t LptPlan::makespan() const noexcept {
  std::uint64_t worst = 0;
  for (const std::uint64_t load : loads) worst = std::max(worst, load);
  return worst;
}

LptPlan lpt_plan(const std::vector<std::uint64_t>& costs,
                 std::size_t workers) {
  LptPlan plan;
  plan.queues.resize(std::max<std::size_t>(1, workers));
  plan.loads.assign(plan.queues.size(), 0);

  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  for (const std::size_t item : order) {
    std::size_t target = 0;
    for (std::size_t w = 1; w < plan.loads.size(); ++w) {
      if (plan.loads[w] < plan.loads[target]) target = w;
    }
    plan.queues[target].push_back(item);
    // Cost-0 items still charge one unit so they spread instead of all
    // piling onto whichever queue happened to be lightest.
    plan.loads[target] += std::max<std::uint64_t>(1, costs[item]);
  }
  return plan;
}

void weighted_parallel_for(ThreadPool& pool,
                           const std::vector<std::uint64_t>& costs,
                           const std::function<void(std::size_t)>& fn,
                           WeightedForStats* stats) {
  // Reset up front so a reused stats struct never reports a previous
  // run's numbers — in particular when fn throws below, where the late
  // assignment after the join is never reached.
  if (stats) *stats = WeightedForStats{};
  if (costs.empty()) {
    if (stats) *stats = WeightedForStats{pool.size(), 0, 0};
    return;
  }
  const LptPlan plan = lpt_plan(costs, pool.size());
  const std::size_t workers = plan.queues.size();

  // One cursor per queue. Owners drain their own queue front-to-back
  // (largest item first — it was assigned first); a drained owner turns
  // thief and pulls from the most-loaded victim's remaining tail. Every
  // index is claimed by exactly one fetch_add, so fn(i) runs once
  // whatever the interleaving.
  std::vector<std::atomic<std::size_t>> cursors(workers);
  for (auto& cursor : cursors) cursor.store(0, std::memory_order_relaxed);
  std::atomic<std::uint64_t> steals{0};

  const auto drain = [&](std::size_t victim, bool stealing) {
    const std::vector<std::size_t>& queue = plan.queues[victim];
    for (;;) {
      const std::size_t slot =
          cursors[victim].fetch_add(1, std::memory_order_relaxed);
      if (slot >= queue.size()) return;
      if (stealing) steals.fetch_add(1, std::memory_order_relaxed);
      fn(queue[slot]);
    }
  };

  pool.run(workers, [&](std::size_t w) {
    drain(w, /*stealing=*/false);
    // Steal pass: visit every other queue (starting after our own so
    // thieves fan out instead of mobbing queue 0).
    for (std::size_t k = 1; k < workers; ++k) {
      drain((w + k) % workers, /*stealing=*/true);
    }
  });

  if (stats) {
    stats->workers = workers;
    stats->planned_makespan = plan.makespan();
    stats->steals = steals.load(std::memory_order_relaxed);
  }
}

}  // namespace mobi::util
