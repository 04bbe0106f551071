#include "common/thread_pool.h"

#include <algorithm>
#include <system_error>

namespace ocular {

namespace {
/// Slot index of the current thread within the pool that owns it. A thread
/// belongs to at most one pool, so a plain thread_local is unambiguous.
thread_local size_t tls_worker_index = ThreadPool::kNotAWorker;
}  // namespace

size_t ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t grain) {
  ParallelForChunked(
      begin, end,
      [&fn](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

void ThreadPool::ParallelForChunked(
    size_t begin, size_t end, const std::function<void(size_t, size_t)>& fn,
    size_t grain) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t target_chunks = workers_.size() * 4;
  size_t chunk = std::max(grain, (n + target_chunks - 1) / target_chunks);
  if (chunk == 0) chunk = 1;
  if (n <= chunk) {
    fn(begin, end);  // Run inline; not worth dispatching.
    return;
  }
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve((n + chunk - 1) / chunk);
  for (size_t lo = begin; lo < end; lo += chunk) {
    ranges.emplace_back(lo, std::min(end, lo + chunk));
  }
  RunAndWait(ranges, fn);
}

void ThreadPool::ParallelForRanges(
    const std::vector<std::pair<size_t, size_t>>& ranges,
    const std::function<void(size_t, size_t)>& fn) {
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    fn(ranges[0].first, ranges[0].second);
    return;
  }
  RunAndWait(ranges, fn);
}

void ThreadPool::RunAndWait(
    const std::vector<std::pair<size_t, size_t>>& ranges,
    const std::function<void(size_t, size_t)>& fn) {
  std::atomic<size_t> pending{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (const auto& [lo, hi] : ranges) {
    pending.fetch_add(1, std::memory_order_relaxed);
    Submit([&, lo = lo, hi = hi] {
      fn(lo, hi);
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock,
               [&] { return pending.load(std::memory_order_acquire) == 0; });
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void ForkJoin(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n > 1 ? n - 1 : 0);
  for (size_t k = 1; k < n; ++k) {
    try {
      threads.emplace_back(std::cref(fn), k);
    } catch (const std::system_error&) {
      fn(k);
    }
  }
  if (n > 0) fn(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace ocular
