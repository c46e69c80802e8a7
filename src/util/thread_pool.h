#ifndef FSJOIN_UTIL_THREAD_POOL_H_
#define FSJOIN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsjoin {

/// Fixed-size worker pool used by the MR engine to run map/reduce tasks
/// concurrently. Tasks are plain std::function<void()>; exceptions must not
/// escape a task (the library is Status-based).
class ThreadPool {
 public:
  /// Creates num_threads workers. num_threads == 0 means "run inline on the
  /// calling thread" (useful for deterministic debugging).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe from any thread.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Waits on the whole pool (Wait), so it must not be called from inside
  /// a task running on this same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Chunked, work-stealing variant: runs fn(begin, end) over chunks of
  /// `chunk` consecutive indices (the last chunk may be short). Chunks are
  /// claimed dynamically from a shared counter by up to num_threads() pool
  /// workers *and* the calling thread, so a slow chunk never idles the
  /// rest — and concurrent ParallelFor calls from different threads steal
  /// from one shared pool. With num_threads() == 0 the chunks run inline on
  /// the caller, in ascending order (deterministic-debug mode). `chunk`
  /// of 0 is treated as 1. Safe to call concurrently from many threads,
  /// including from inside a task running on this same pool: a chunk is
  /// only ever claimed by a thread that runs it at once, the caller drains
  /// chunks until none is left, and a helper that finds none returns, so
  /// the caller waits only on chunks that are already running and never
  /// on a queued helper (the fragment joins' morsels rely on this).
  void ParallelFor(size_t n, size_t chunk,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_THREAD_POOL_H_
