#include "rfdump/core/executor.hpp"

#include <algorithm>
#include <chrono>

#include "rfdump/obs/obs.hpp"

namespace rfdump::core {
namespace {

/// Executor metrics (DESIGN.md §8/§10), resolved once.
struct ExecutorMetrics {
  obs::Gauge& workers =
      obs::Registry::Default().GetGauge("rfdump_executor_workers");
  obs::Counter& tasks =
      obs::Registry::Default().GetCounter("rfdump_executor_tasks_total");
  obs::Counter& steals =
      obs::Registry::Default().GetCounter("rfdump_executor_steals_total");
  obs::Gauge& queue_depth =
      obs::Registry::Default().GetGauge("rfdump_executor_queue_depth");
  /// Submission-to-start latency: how long tasks sit in the deques.
  obs::Histogram& task_wait = obs::Registry::Default().GetHistogram(
      "rfdump_executor_task_wait_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0});
  static ExecutorMetrics& Get() {
    static ExecutorMetrics m;
    return m;
  }
};

}  // namespace

struct Executor::Batch::State {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t pending = 0;  // tasks submitted but not finished
  std::exception_ptr first_error;
};

Executor::Executor(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads_ = std::clamp(threads, 1, kMaxThreads);
  const int pool = threads_ - 1;  // the caller is the Nth worker (Wait helps)
  queues_.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  pool_.reserve(static_cast<std::size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    pool_.emplace_back([this, i] { WorkerLoop(static_cast<std::size_t>(i)); });
  }
  ExecutorMetrics::Get().workers.Set(threads_);
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    shutdown_ = true;
  }
  idle_cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void Executor::Enqueue(Task task) {
  std::size_t qi;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    qi = static_cast<std::size_t>(next_queue_++) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[qi]->mu);
    queues_[qi]->tasks.push_back(std::move(task));
  }
  ExecutorMetrics::Get().queue_depth.Add(1.0);
  idle_cv_.notify_one();
}

bool Executor::TryPop(std::size_t preferred, Task& out) {
  const std::size_t n = queues_.size();
  if (n == 0) return false;
  // Own deque first (FIFO keeps submission order when uncontended)...
  if (preferred < n) {
    std::lock_guard<std::mutex> lock(queues_[preferred]->mu);
    if (!queues_[preferred]->tasks.empty()) {
      out = std::move(queues_[preferred]->tasks.front());
      queues_[preferred]->tasks.pop_front();
      ExecutorMetrics::Get().queue_depth.Add(-1.0);
      return true;
    }
  }
  // ...then steal from the back of a sibling's deque.
  for (std::size_t i = 0; i < n; ++i) {
    if (i == preferred) continue;
    std::lock_guard<std::mutex> lock(queues_[i]->mu);
    if (!queues_[i]->tasks.empty()) {
      out = std::move(queues_[i]->tasks.back());
      queues_[i]->tasks.pop_back();
      ExecutorMetrics::Get().queue_depth.Add(-1.0);
      if (preferred < n) ExecutorMetrics::Get().steals.Inc();
      return true;
    }
  }
  return false;
}

void Executor::RunTask(Task& task) {
  auto& metrics = ExecutorMetrics::Get();
  metrics.task_wait.Observe(obs::Stopwatch::NowSeconds() - task.enqueued_at);
  try {
    task.fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(task.batch->mu);
    if (!task.batch->first_error) {
      task.batch->first_error = std::current_exception();
    }
  }
  metrics.tasks.Inc();
  {
    std::lock_guard<std::mutex> lock(task.batch->mu);
    if (--task.batch->pending == 0) task.batch->cv.notify_all();
  }
}

void Executor::WorkerLoop(std::size_t index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Task task;
    if (TryPop(index, task)) {
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (shutdown_) return;
    // next_queue_ doubles as a work epoch: it only moves on Enqueue, under
    // this mutex, so waiting until it changes cannot miss a submission.
    if (next_queue_ == seen_epoch) {
      idle_cv_.wait(lock, [&] { return shutdown_ || next_queue_ != seen_epoch; });
      if (shutdown_) return;
    }
    seen_epoch = next_queue_;
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
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->pending;
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
  // Help-while-wait: the caller is the pool's Nth worker. Our own tasks are
  // all submitted by now, so anything TryPop returns is a leaf that cannot
  // block back on us.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->pending == 0) break;
    }
    Task task;
    if (ex_->TryPop(ex_->queues_.size(), task)) {
      ex_->RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    // Re-check under the lock, then sleep briefly; completions notify, the
    // timeout re-opens the helping loop for late-queued sibling tasks.
    state_->cv.wait_for(lock, std::chrono::milliseconds(2),
                        [&] { return state_->pending == 0; });
  }
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    e = state_->first_error;
    state_->first_error = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

}  // namespace rfdump::core
