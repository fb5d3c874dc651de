#pragma once
// core::Executor — the analysis-stage execution engine (DESIGN.md §10).
//
// The paper's whole economic argument (§2, Fig 9) is that cheap detection
// buys enough headroom to run many expensive demodulators; the demodulator
// bank itself (1 x 802.11 + 8 x per-channel Bluetooth) is embarrassingly
// parallel across dispatched intervals. The Executor turns that into wall
// clock: a fixed-width thread pool over which the pipelines fan out
// per-interval analysis tasks, with a serial inline mode that is the default
// and is byte-for-byte the pre-parallel behavior.
//
// Width semantics: Executor(N) means N analysis workers total — N-1 pool
// threads plus the caller, which joins the work inside Batch::Wait()
// (help-while-wait). Executor(1) therefore spawns no threads at all and
// every Batch::Run() executes inline at the call site, in submission order.
//
// Scheduling: one mutex-guarded task queue and one condition variable per
// executor, shared by every batch. Pool threads take the oldest task; a
// caller helping inside Wait() takes the newest. The pipelines submit units
// grouped by protocol, so the two ends run different demodulators side by
// side instead of N copies of one (all-oldest-first cost ~10% more width-4
// analysis CPU on perfbench's wifi-dense, whose ZigBee units sit at the
// tail, on a 4-vCPU x86-64 host). A pass submits a few thousand
// tasks of >= ~50 us each, so one queue operation is far below 1% of task
// time and per-thread deques would buy nothing. Tasks must not block on
// other tasks — the pipelines only submit leaf demodulation units, so a
// waiting thread that "helps" can never deadlock.
//
// Determinism contract: the Executor guarantees only that every task
// submitted to a Batch has completed when Wait() returns, and that the
// first task exception is rethrown there. Callers that need deterministic
// output (the pipelines' ordered merge) give each task its own result slot
// and combine the slots in submission order after Wait().

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rfdump::core {

class Executor {
 public:
  /// Hard cap on the pool width (far above any sane front-end host).
  static constexpr int kMaxThreads = 64;

  /// `threads` is the total worker count including the caller: 1 (default)
  /// is serial inline, N > 1 spawns N-1 pool threads. 0 resolves to the
  /// hardware concurrency. Clamped to [1, kMaxThreads].
  explicit Executor(int threads = 1);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Effective total width (pool threads + the helping caller), >= 1.
  [[nodiscard]] int threads() const noexcept { return threads_; }
  /// True when Batch::Run executes inline (threads() == 1).
  [[nodiscard]] bool serial() const noexcept { return pool_.empty(); }

  /// One joinable group of tasks. Destruction waits for completion; Wait()
  /// additionally rethrows the first task exception (remaining tasks still
  /// ran — a failing task never cancels its siblings).
  class Batch {
   public:
    /// A null or serial executor gives an inline batch.
    explicit Batch(Executor* ex);
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Submits one task. Inline batches run it immediately at this call.
    void Run(std::function<void()> fn);

    /// Blocks until every submitted task has completed, helping to drain
    /// the pool while waiting, then rethrows the first stored exception.
    void Wait();

   private:
    friend class Executor;
    struct State;
    Executor* ex_ = nullptr;
    std::shared_ptr<State> state_;       // null for inline batches
    std::exception_ptr inline_error_;    // first exception, inline mode
    bool waited_ = false;
  };

 private:
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch::State> batch;
    double enqueued_at = 0.0;  // Stopwatch::NowSeconds at submission
  };

  void WorkerLoop();
  void Enqueue(Task task);
  /// Pops the oldest task, or the newest. Requires mu_ held and a non-empty
  /// queue.
  Task PopLocked(bool newest);
  void RunTask(Task& task);

  int threads_ = 1;
  std::vector<std::thread> pool_;
  // Guards queue_, shutdown_ and every batch's pending count and first
  // error; cv_ announces both a new task and a finished batch.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;
};

}  // namespace rfdump::core
