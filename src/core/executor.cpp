#include "rfdump/core/executor.hpp"

#include <algorithm>

#include "rfdump/obs/obs.hpp"

namespace rfdump::core {
namespace {

/// Executor metrics (DESIGN.md §8/§10), resolved once.
struct ExecutorMetrics {
  /// Live analysis workers summed over every live executor.
  obs::Gauge& workers =
      obs::Registry::Default().GetGauge("rfdump_executor_workers");
  obs::Counter& tasks =
      obs::Registry::Default().GetCounter("rfdump_executor_tasks_total");
  obs::Gauge& queue_depth =
      obs::Registry::Default().GetGauge("rfdump_executor_queue_depth");
  /// Submission-to-start latency: how long tasks sit in the queue.
  obs::Histogram& task_wait = obs::Registry::Default().GetHistogram(
      "rfdump_executor_task_wait_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0});
  static ExecutorMetrics& Get() {
    static ExecutorMetrics m;
    return m;
  }
};

}  // namespace

/// Guarded by the owning executor's mu_.
struct Executor::Batch::State {
  std::size_t pending = 0;  // tasks submitted but not finished
  std::exception_ptr first_error;
};

Executor::Executor(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads_ = std::clamp(threads, 1, kMaxThreads);
  const int pool = threads_ - 1;  // the caller is the Nth worker (Wait helps)
  pool_.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    pool_.emplace_back([this] { WorkerLoop(); });
  }
  ExecutorMetrics::Get().workers.Add(threads_);
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : pool_) t.join();
  ExecutorMetrics::Get().workers.Add(-threads_);
}

void Executor::Enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++task.batch->pending;
    queue_.push_back(std::move(task));
  }
  ExecutorMetrics::Get().queue_depth.Add(1.0);
  cv_.notify_one();
}

Executor::Task Executor::PopLocked(bool newest) {
  Task task;
  if (newest) {
    task = std::move(queue_.back());
    queue_.pop_back();
  } else {
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  ExecutorMetrics::Get().queue_depth.Add(-1.0);
  return task;
}

void Executor::RunTask(Task& task) {
  auto& metrics = ExecutorMetrics::Get();
  metrics.task_wait.Observe(obs::Stopwatch::NowSeconds() - task.enqueued_at);
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  metrics.tasks.Inc();
  bool finished_batch = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !task.batch->first_error) task.batch->first_error = error;
    finished_batch = --task.batch->pending == 0;
  }
  if (finished_batch) cv_.notify_all();  // wakes that batch's Wait()
}

void Executor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shut down and drained
      task = PopLocked(/*newest=*/false);
    }
    RunTask(task);
  }
}

// -------------------------------------------------------------------- Batch

Executor::Batch::Batch(Executor* ex) {
  if (ex != nullptr && !ex->serial()) {
    ex_ = ex;
    state_ = std::make_shared<State>();
  }
}

Executor::Batch::~Batch() {
  if (waited_) return;
  try {
    Wait();
  } catch (...) {
    // A batch abandoned without Wait() still joins; the error is dropped.
  }
}

void Executor::Batch::Run(std::function<void()> fn) {
  if (!state_) {
    // Inline mode: immediate execution in submission order, error held for
    // Wait() so both modes surface failures at the same point.
    try {
      fn();
    } catch (...) {
      if (!inline_error_) inline_error_ = std::current_exception();
    }
    return;
  }
  ex_->Enqueue(Task{std::move(fn), state_, obs::Stopwatch::NowSeconds()});
}

void Executor::Batch::Wait() {
  waited_ = true;
  if (!state_) {
    if (inline_error_) {
      std::exception_ptr e = inline_error_;
      inline_error_ = nullptr;
      std::rethrow_exception(e);
    }
    return;
  }
  // Help-while-wait: the caller is the pool's Nth worker. Every queued task
  // is a leaf (this batch's or another caller's) that cannot block back on
  // us. It takes the newest task while the pool takes the oldest (see the
  // header). The predicates and both wakeups live under the one mutex, so
  // a submission or a completion cannot slip between check and sleep.
  std::unique_lock<std::mutex> lock(ex_->mu_);
  for (;;) {
    ex_->cv_.wait(lock, [&] {
      return state_->pending == 0 || !ex_->queue_.empty();
    });
    if (state_->pending == 0) break;
    Task task = ex_->PopLocked(/*newest=*/true);
    lock.unlock();
    ex_->RunTask(task);
    lock.lock();
  }
  // A wakeup meant for a task may have landed here as the batch finished;
  // pass it on so the queued work is not left for a later submission.
  if (!ex_->queue_.empty()) ex_->cv_.notify_one();
  std::exception_ptr e = state_->first_error;
  state_->first_error = nullptr;
  lock.unlock();
  if (e) std::rethrow_exception(e);
}

}  // namespace rfdump::core
