// Fixed worker pool with a chunked work queue.
//
// Host-side parallelism for the experiment harness (the firmware side of
// the simulator stays strictly single-threaded). A pool of N-1 worker
// threads plus the calling thread drain a [0, count) index range in
// chunks claimed off an atomic counter, so load-imbalanced cells (a slow
// technique next to a fast one) rebalance dynamically. Determinism is
// the CALLER's contract: bodies must key all randomness on the index
// they receive, never on which thread ran it or in what order (see
// study::SweepRunner).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace distscroll::sim {

/// CPUs this process may run on: the size of its sched_getaffinity mask
/// (so `taskset` and cpuset limits count), falling back to
/// std::thread::hardware_concurrency() where no mask is available.
/// Never 0.
[[nodiscard]] std::size_t available_cpus();

class ThreadPool {
 public:
  /// `threads` counts the calling thread; 0 means available_cpus().
  /// threads == 1 spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in parallel_for (workers + caller).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Invoke `body(i)` for every i in [0, count), exactly once each, in
  /// `chunk`-sized contiguous claims. Blocks until all are done. Not
  /// re-entrant: one parallel_for at a time, from one caller thread.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    std::size_t chunk = 1);

 private:
  void worker_loop();
  void drain();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::uint64_t job_id_ = 0;        // bumped per parallel_for; wakes workers
  std::size_t busy_workers_ = 0;    // workers still inside drain()
  bool stopping_ = false;

  // Current job (written under mutex_ before workers wake).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t end_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};
};

}  // namespace distscroll::sim
