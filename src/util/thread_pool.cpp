#include "util/thread_pool.hpp"

#include "obs/prof_stack.hpp"

namespace weakkeys::util {

ThreadPool::ThreadPool(std::size_t workers, obs::Telemetry* telemetry) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  if (telemetry) {
    queue_depth_ = &telemetry->metrics().gauge("threadpool.queue_depth");
    task_us_ = &telemetry->metrics().histogram("threadpool.task_us");
    tasks_completed_ = &telemetry->metrics().counter("threadpool.tasks_completed");
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop();
    }
    if (queue_depth_) queue_depth_->add(-1);
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const CancellationToken* cancel) {
  // Tasks run under the caller's profiler frames, so a profile shows pool
  // work below the stage that submitted it, and the caller waits under
  // "threadpool.wait" instead of adding to that stage's self time.
  const obs::prof::StackSample caller =
      obs::prof::enabled() ? obs::prof::current_stack() : obs::prof::StackSample{};
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  bool stopped_enqueuing = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (cancel && cancel->cancelled()) {
      stopped_enqueuing = true;
      break;
    }
    futures.push_back(submit([&fn, &caller, i] {
      obs::prof::AdoptedStack adopted(caller);
      fn(i);
    }));
  }
  // Drain every future before rethrowing: queued tasks reference `fn` and
  // `caller`, so returning (or throwing) while any are outstanding would
  // dangle.
  obs::prof::Frame wait("threadpool.wait");
  std::exception_ptr first;
  bool task_cancelled = false;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const Cancelled&) {
      // Collapse per-task cancellations into the single report below.
      task_cancelled = true;
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
  if (stopped_enqueuing || task_cancelled) {
    throw Cancelled(cancel && cancel->cancelled() ? cancel->reason()
                                                  : "parallel_for task");
  }
}

}  // namespace weakkeys::util
