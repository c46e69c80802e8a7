#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace fsjoin {

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();  // Inline mode.
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (threads_.empty() || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    Submit([&fn, i] { fn(i); });
  }
  Wait();
}

void ThreadPool::ParallelFor(size_t n, size_t chunk,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t step = chunk == 0 ? 1 : chunk;
  const size_t num_chunks = (n + step - 1) / step;
  if (threads_.empty() || num_chunks == 1) {
    for (size_t begin = 0; begin < n; begin += step) {
      fn(begin, std::min(n, begin + step));
    }
    return;
  }

  // Shared claim state, kept alive by the last task to touch it — a worker
  // that wakes up after the caller already returned only reads `next`.
  struct Shared {
    std::function<void(size_t, size_t)> fn;
    size_t n = 0;
    size_t step = 0;
    size_t num_chunks = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = fn;
  shared->n = n;
  shared->step = step;
  shared->num_chunks = num_chunks;

  auto drain = [](const std::shared_ptr<Shared>& s) {
    size_t completed = 0;
    for (;;) {
      const size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->num_chunks) break;
      const size_t begin = c * s->step;
      s->fn(begin, std::min(s->n, begin + s->step));
      ++completed;
    }
    if (completed > 0) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->done += completed;
      if (s->done == s->num_chunks) s->cv.notify_all();
    }
  };

  // The caller participates, so progress never depends on a free worker —
  // a caller that is itself a worker of this pool (or of another) keeps
  // working, and helpers still queued when the chunks run out find none
  // and return.
  const size_t helpers = std::min(threads_.size(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([shared, drain] { drain(shared); });
  }
  drain(shared);
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->done == shared->num_chunks; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace fsjoin
