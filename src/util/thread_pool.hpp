// Fixed-size thread pool used to parallelize the distributed batch-GCD
// computation (the in-process stand-in for the paper's 22-machine cluster).
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::util {

class ThreadPool {
 public:
  /// Starts `workers` threads (at least 1; 0 means hardware_concurrency).
  /// With a telemetry bundle attached the pool reports `threadpool.*`
  /// instruments: queue depth (gauge), per-task execution latency
  /// (`threadpool.task_us` histogram), and tasks completed (counter). The
  /// telemetry object must outlive the pool.
  explicit ThreadPool(std::size_t workers = 0,
                      obs::Telemetry* telemetry = nullptr);

  /// Drain guarantee: destruction runs every task already submitted to
  /// completion before joining — pending work is never discarded, so a
  /// future obtained from submit() always becomes ready (with a value or
  /// an exception), even when the pool is destroyed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Schedules `fn` and returns a future for its result. Exceptions thrown
  /// by `fn` propagate through the future (and never touch the worker
  /// thread, so one throwing task cannot wedge the pool).
  ///
  /// Contract: submitting to a pool whose destructor has begun throws
  /// std::runtime_error. Reaching that state requires racing submit()
  /// against destruction, which is a caller lifetime bug; the throw makes
  /// it loud instead of deadlocking on a task that will never run.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [task_us = task_us_, tasks_completed = tasks_completed_,
         fn = std::forward<Fn>(fn)]() mutable -> R {
          const TaskRecord record(task_us, tasks_completed);
          return fn();
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      queue_.emplace([task] { (*task)(); });
    }
    if (queue_depth_) queue_depth_->add(1);
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Waits for *all* n tasks even when some throw — `fn` is only borrowed
  /// for the duration of the call — then rethrows the first exception.
  ///
  /// With a cancellation token: submission stops at the first index whose
  /// poll sees the token tripped, every already-submitted task is still
  /// drained (the drain guarantee is unconditional), and the call throws
  /// exactly one util::Cancelled — task-thrown Cancelled exceptions are
  /// collapsed into it rather than racing it. A non-cancellation exception
  /// from a task takes precedence over the cancellation report.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    const CancellationToken* cancel = nullptr);

 private:
  void worker_loop();

  /// Records one task's latency and completion as it leaves scope. It lives
  /// inside the packaged task, so the instruments are complete before the
  /// task's future becomes ready (a snapshot taken right after
  /// parallel_for returns counts every task).
  class TaskRecord {
   public:
    TaskRecord(obs::Histogram* task_us, obs::Counter* tasks_completed)
        : task_us_(task_us), tasks_completed_(tasks_completed) {
      if (task_us_) t0_ = std::chrono::steady_clock::now();
    }
    ~TaskRecord() {
      if (!task_us_) return;
      task_us_->record(obs::elapsed_us(t0_, std::chrono::steady_clock::now()));
      tasks_completed_->inc();
    }
    TaskRecord(const TaskRecord&) = delete;
    TaskRecord& operator=(const TaskRecord&) = delete;

   private:
    obs::Histogram* task_us_;
    obs::Counter* tasks_completed_;
    std::chrono::steady_clock::time_point t0_;
  };

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  // Instruments resolved once at construction (null when no telemetry):
  // immutable afterwards, so workers read them without the queue lock.
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* task_us_ = nullptr;
  obs::Counter* tasks_completed_ = nullptr;
};

}  // namespace weakkeys::util
