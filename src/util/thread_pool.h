// A small persistent worker pool with an indexed parallel-for.
//
// The snapshot-serving bench (bench/serve_throughput.cc) drives its reader
// threads through it. Threads persist across ParallelFor calls, and each
// task body gets a worker index so per-worker scratch can be picked without
// locks. Tasks are claimed from a shared atomic counter (work stealing, so
// skewed task costs still balance) and the calling thread participates as
// worker 0.
//
// ParallelFor is a barrier: it returns only after every task ran, which is
// the happens-before edge between the tasks' writes and the caller.
// Task bodies must not throw and must not call ParallelFor reentrantly.

#ifndef PW_UTIL_THREAD_POOL_H_
#define PW_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pw {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the thread calling ParallelFor is the
  /// remaining one. `num_threads` is clamped to at least 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(task, worker) for every task in [0, count), distributed over
  /// all threads; worker is in [0, num_threads()) and identifies the thread
  /// for scratch selection. Returns after every task completed. Must not be
  /// called concurrently or reentrantly.
  void ParallelFor(size_t count,
                   const std::function<void(size_t task, size_t worker)>& fn);

 private:
  void WorkerLoop(size_t worker);
  void DrainTasks(const std::function<void(size_t, size_t)>& fn,
                  size_t worker);

  size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t, size_t)>* job_ = nullptr;  // guarded
  size_t job_count_ = 0;                                      // guarded
  uint64_t job_id_ = 0;                                       // guarded
  size_t workers_busy_ = 0;                                   // guarded
  bool stop_ = false;                                         // guarded
  std::atomic<size_t> next_task_{0};
};

}  // namespace pw

#endif  // PW_UTIL_THREAD_POOL_H_
