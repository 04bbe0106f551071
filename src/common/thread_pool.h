#ifndef OCULAR_COMMON_THREAD_POOL_H_
#define OCULAR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace ocular {

/// Fixed-size worker pool with a simple FIFO task queue.
///
/// A multi-thread OcularTrainer fit runs its row ranges on one (the CPU
/// stand-in for the paper's GPU parallelism, Section VI), and bulk serving
/// (serving/batch.h) its user ranges. The pool is intentionally minimal:
/// Submit() for fire-and-forget tasks, ParallelFor() for blocking
/// index-range decomposition, and Wait() to drain.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means UsableCpus().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed.
  void Wait();

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the workers, and blocks until all complete. `grain` is the
  /// minimum chunk size (guards against tiny-task overheads).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn, size_t grain = 64);

  /// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end) and
  /// blocks. Useful when the body wants to amortize per-chunk setup.
  void ParallelForChunked(
      size_t begin, size_t end,
      const std::function<void(size_t, size_t)>& fn, size_t grain = 64);

  /// Runs fn(lo, hi) for every caller-supplied half-open range and blocks.
  /// This is the entry point for weight-balanced decompositions (e.g.
  /// equal-nnz row ranges from BalancedRowRanges) where uniform chunking
  /// would serialize on a few heavy chunks. A single range runs inline on
  /// the calling thread.
  void ParallelForRanges(
      const std::vector<std::pair<size_t, size_t>>& ranges,
      const std::function<void(size_t, size_t)>& fn);

  /// Index of the calling pool worker in [0, num_threads()), or
  /// kNotAWorker when called from a thread that is not a pool worker (e.g.
  /// the caller of ParallelFor* running a chunk inline). Lets parallel
  /// bodies pick a per-worker scratch slot without locking.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);
  static size_t CurrentWorkerIndex();

  /// Scratch slot for the calling thread given a scratch array of
  /// `num_threads` + 1 entries: pool workers use their own index, anything
  /// else — the caller running a single-range phase inline, including a
  /// worker of some OTHER pool whose thread-local index would alias the
  /// array — shares the extra slot at the end. (Only one thread ever runs
  /// inline per fork-join phase, so the shared slot is uncontended.)
  static size_t ScratchSlot(size_t num_threads) {
    const size_t idx = CurrentWorkerIndex();
    return idx < num_threads ? idx : num_threads;
  }

 private:
  void WorkerLoop(size_t worker_index);

  /// Shared waiter for the fork-join entry points: submits fn over the
  /// given ranges and blocks until all complete.
  void RunAndWait(const std::vector<std::pair<size_t, size_t>>& ranges,
                  const std::function<void(size_t, size_t)>& fn);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;   // signalled when a task is available
  std::condition_variable cv_done_;   // signalled when the pool drains
  size_t in_flight_ = 0;              // queued + running tasks
  bool shutdown_ = false;
};

/// Runs fn(0), ..., fn(n - 1) at once and returns when all have returned:
/// fn(0) on the calling thread, every other call on a thread started for it
/// (or on the calling thread, if the system refuses a new thread); n <= 1
/// starts no thread. For a few large one-shot tasks, where a pool would
/// outlive its use and measured slower: a four-range `--datasets` load of
/// 416,651 lines took 13-15 ms on a ThreadPool's workers and 10 ms here
/// (4-vCPU guest, medians of 41 loads).
void ForkJoin(size_t n, const std::function<void(size_t)>& fn);

/// CPUs the calling thread may run on (at least 1): its affinity mask,
/// which taskset and cpusets narrow and std::thread::hardware_concurrency
/// does not see. The one CPU count of the library: the one-shot parallel
/// passes (the `--datasets` load's ranges, the packing of exclusion rows)
/// start at most this many ForkJoin threads, and a ThreadPool or a daemon
/// asked for 0 threads runs this many.
size_t UsableCpus();

}  // namespace ocular

#endif  // OCULAR_COMMON_THREAD_POOL_H_
