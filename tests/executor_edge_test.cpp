// core::Executor edge cases (DESIGN.md §10): the contract corners the
// pipelines rely on but the mainline parallel tests never hit — empty
// batches, repeated Wait(), submission from inside a running task, and the
// exception-in-last-task ordering, two callers sharing one executor, and
// the live-workers gauge.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rfdump/core/executor.hpp"
#include "rfdump/obs/obs.hpp"

namespace core = rfdump::core;

namespace {

// Both the serial-inline and pooled implementations must honor every edge.
constexpr int kWidths[] = {1, 4};

TEST(ExecutorEdge, ZeroTaskBatchWaitReturnsImmediately) {
  for (const int width : kWidths) {
    core::Executor ex(width);
    core::Executor::Batch batch(&ex);
    EXPECT_NO_THROW(batch.Wait());
  }
}

TEST(ExecutorEdge, NullExecutorBatchIsInline) {
  core::Executor::Batch batch(nullptr);
  int ran = 0;
  batch.Run([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // inline batches execute at the Run() call
  EXPECT_NO_THROW(batch.Wait());
}

TEST(ExecutorEdge, WaitTwiceIsSafe) {
  for (const int width : kWidths) {
    core::Executor ex(width);
    core::Executor::Batch batch(&ex);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) batch.Run([&] { ++ran; });
    batch.Wait();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_NO_THROW(batch.Wait());  // second Wait is a no-op, not a hang
    EXPECT_EQ(ran.load(), 8);
  }
}

TEST(ExecutorEdge, SecondWaitAfterErrorDoesNotRethrow) {
  // The first Wait() surfaces the stored exception; a destructor-driven or
  // defensive second Wait() must not throw again (it would terminate during
  // unwinding).
  for (const int width : kWidths) {
    core::Executor ex(width);
    core::Executor::Batch batch(&ex);
    batch.Run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(batch.Wait(), std::runtime_error);
    EXPECT_NO_THROW(batch.Wait());
  }
}

TEST(ExecutorEdge, TaskSubmittedFromInsideATask) {
  // The pipelines only submit leaf units, but nothing in the contract
  // forbids a task enqueueing follow-on work into the same batch before it
  // returns; Wait() must cover the late submission too.
  for (const int width : kWidths) {
    core::Executor ex(width);
    core::Executor::Batch batch(&ex);
    std::atomic<int> ran{0};
    batch.Run([&] {
      ++ran;
      batch.Run([&] { ++ran; });
    });
    batch.Wait();
    EXPECT_EQ(ran.load(), 2);
  }
}

TEST(ExecutorEdge, ExceptionInLastTaskIsRethrownAfterAllTasksRan) {
  // A failing task never cancels its siblings: every earlier task completes,
  // and the error still surfaces even when it is the final submission.
  for (const int width : kWidths) {
    core::Executor ex(width);
    core::Executor::Batch batch(&ex);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) batch.Run([&] { ++ran; });
    batch.Run([] { throw std::runtime_error("last task failed"); });
    try {
      batch.Wait();
      FAIL() << "Wait() must rethrow the last task's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "last task failed");
    }
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(ExecutorEdge, FirstOfSeveralExceptionsWins) {
  // Inline mode is strictly ordered, so "first" is deterministic there; in
  // pooled mode some task's exception (not none, not several) must surface.
  core::Executor ex(1);
  core::Executor::Batch batch(&ex);
  batch.Run([] { throw std::runtime_error("first"); });
  batch.Run([] { throw std::runtime_error("second"); });
  try {
    batch.Wait();
    FAIL() << "Wait() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ExecutorEdge, TwoThreadsShareOneExecutor) {
  // Two callers run a batch each on one executor at the same time: their
  // tasks share the queue, and each caller helps drain it while waiting.
  // Every task runs exactly once, and each Wait() rethrows its own batch's
  // error, never the other's.
  static constexpr int kTasks = 200;
  core::Executor ex(4);
  std::array<std::vector<std::atomic<int>>, 2> hits{
      std::vector<std::atomic<int>>(kTasks),
      std::vector<std::atomic<int>>(kTasks)};
  std::array<std::string, 2> caught;
  std::atomic<int> ready{0};
  const auto caller = [&](int b) {
    core::Executor::Batch batch(&ex);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int i = 0; i < kTasks; ++i) {
      batch.Run([&hits, b, i] {
        hits[b][i].fetch_add(1);
        if (i == kTasks / 2) {
          throw std::runtime_error("batch " + std::to_string(b));
        }
      });
    }
    try {
      batch.Wait();
    } catch (const std::runtime_error& e) {
      caught[b] = e.what();
    }
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  for (int b = 0; b < 2; ++b) {
    EXPECT_EQ(caught[b], "batch " + std::to_string(b));
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[b][i].load(), 1) << "batch " << b << " task " << i;
    }
  }
}

#if RFDUMP_OBS_ENABLED
TEST(ExecutorEdge, WorkersGaugeCountsLiveExecutors) {
  // The gauge sums the widths of the executors alive right now: building a
  // second executor adds to it, and destroying one takes its width back.
  auto& workers =
      rfdump::obs::Registry::Default().GetGauge("rfdump_executor_workers");
  const double before = workers.value();
  {
    core::Executor wide(3);
    EXPECT_EQ(workers.value(), before + 3);
    {
      core::Executor serial(1);
      EXPECT_EQ(workers.value(), before + 4);
    }
    EXPECT_EQ(workers.value(), before + 3);
  }
  EXPECT_EQ(workers.value(), before);
}
#endif

}  // namespace
