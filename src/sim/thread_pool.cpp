#include "sim/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

namespace distscroll::sim {

std::size_t available_cpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = available_cpus();
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t chunk) {
  if (count == 0) return;
  if (workers_.empty()) {  // single-threaded pool: no handoff at all
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    end_ = count;
    chunk_ = std::max<std::size_t>(1, chunk);
    next_.store(0, std::memory_order_relaxed);
    busy_workers_ = workers_.size();
    ++job_id_;
  }
  work_ready_.notify_all();
  drain();  // the caller participates
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return busy_workers_ == 0; });
  body_ = nullptr;
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= end_) return;
    const std::size_t stop = std::min(end_, begin + chunk_);
    for (std::size_t i = begin; i < stop; ++i) (*body_)(i);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t last_job = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stopping_ || job_id_ != last_job; });
      if (stopping_) return;
      last_job = job_id_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--busy_workers_ == 0) work_done_.notify_one();
    }
  }
}

}  // namespace distscroll::sim
