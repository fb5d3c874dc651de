#pragma once
// Cooperative deadline handle for supervised analysis work (DESIGN.md §9).
//
// A runaway demodulator invocation — an adversarial sync pattern, corrupt
// samples, a decoder bug — must abort cleanly instead of stalling the block
// schedule. The supervision layer arms one WorkBudget per analysis
// invocation; the demodulators' sync-search and bit-decode loops Charge()
// the work they perform (in front-end-sample units, counting reprocessing)
// at coarse quanta and bail out as soon as the budget reports expiry.
//
// Lives in util (bottom layer: stdlib plus the header-only obs::Stopwatch,
// the repo's one clock) so phy80211/phybt can depend on it without reaching
// up into core, where the Supervisor that arms it lives.
//
// Concurrency contract (TSan-enforced by tests/supervisor_test.cpp): any
// number of worker threads may call Charge()/expired() on one armed budget
// concurrently — every field they touch is a relaxed atomic, and the only
// cross-thread signal is the sticky `expired` flag, which is monotonic.
// Arm() must happen-before the workers start (it is the owner's reset, not
// a racing control channel).

#include <atomic>
#include <cstdint>

#include "rfdump/obs/stopwatch.hpp"

namespace rfdump::util {

class WorkBudget {
 public:
  struct Limits {
    /// Work cap in front-end-sample units; reprocessed samples (e.g. repeated
    /// sync attempts over the same window) charge again. 0 = unlimited.
    std::uint64_t max_samples = 0;
    /// CPU cap for the invocation, read as monotonic elapsed time: under
    /// contention that overstates CPU time (DESIGN.md §9). 0 = unlimited.
    double max_cpu_seconds = 0.0;
  };

  /// Default-constructed budgets are unlimited; Charge() never fails.
  WorkBudget() = default;
  WorkBudget(const WorkBudget&) = delete;
  WorkBudget& operator=(const WorkBudget&) = delete;

  /// Resets accounting and applies `limits` from now. Must not race Charge().
  void Arm(const Limits& limits) {
    max_samples_.store(limits.max_samples, std::memory_order_relaxed);
    deadline_.store(limits.max_cpu_seconds > 0.0
                        ? obs::Stopwatch::NowSeconds() + limits.max_cpu_seconds
                        : 0.0,
                    std::memory_order_relaxed);
    charged_.store(0, std::memory_order_relaxed);
    checks_.store(0, std::memory_order_relaxed);
    expired_.store(false, std::memory_order_relaxed);
  }

  /// Charges `samples` units of work. Returns false once either cap is
  /// exceeded; the caller must then abandon the invocation (keeping whatever
  /// partial results it already produced). Expiry is sticky until re-Arm().
  bool Charge(std::uint64_t samples) noexcept {
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (expired_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t total =
        charged_.fetch_add(samples, std::memory_order_relaxed) + samples;
    const std::uint64_t cap = max_samples_.load(std::memory_order_relaxed);
    if (cap != 0 && total > cap) {
      expired_.store(true, std::memory_order_relaxed);
      return false;
    }
    const double deadline = deadline_.load(std::memory_order_relaxed);
    if (deadline != 0.0 && obs::Stopwatch::NowSeconds() > deadline) {
      expired_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  [[nodiscard]] bool expired() const noexcept {
    return expired_.load(std::memory_order_relaxed);
  }

  /// Total work units charged since Arm().
  [[nodiscard]] std::uint64_t charged() const noexcept {
    return charged_.load(std::memory_order_relaxed);
  }

  /// Number of Charge() calls since Arm() — the overhead bench multiplies
  /// this by the measured per-call cost to price the deadline checks.
  [[nodiscard]] std::uint64_t checks() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> max_samples_{0};
  std::atomic<double> deadline_{0.0};  // absolute, 0 = no CPU cap
  std::atomic<std::uint64_t> charged_{0};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<bool> expired_{false};
};

}  // namespace rfdump::util
