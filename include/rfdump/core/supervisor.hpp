#pragma once
// Supervision layer for the analysis stage (DESIGN.md §9).
//
// RFDump's bargain (paper §2.2) is that detectors may be sloppy because the
// expensive analysis stage cleans up after them — which only holds if one
// pathological dispatched interval cannot take the whole monitor down. The
// Supervisor wraps every demodulator invocation in a stage boundary that
//   1. arms a cooperative deadline (util::WorkBudget) so a runaway decode
//      aborts as Outcome::kDeadline instead of stalling the block,
//   2. catches every exception and converts it into a per-interval failure
//      (Outcome::kException) — the monitor never dies on one bad input,
//   3. tracks a per-protocol circuit breaker: a protocol whose recent window
//      of intervals keeps failing trips open, is skipped (Outcome::kSkipped)
//      for an exponentially backed-off number of blocks, then re-admits one
//      half-open probe and closes on success,
//   4. quarantines failed intervals (stream position, protocol, outcome,
//      sample snapshot) in a bounded ring so operators can replay exactly
//      the input that broke a decoder (rfdump_cli --quarantine DIR).
//
// Every decision is counted both into the rfdump_supervisor_* metrics and
// into Counts (registry-independent; works with RFDUMP_OBS=OFF), which the
// streaming monitor deltas into per-block HealthReports.
//
// Concurrency: the boundary is split in two. The analysis stage
// (core::Executor, DESIGN.md §10) calls Admit() on the driver thread in
// dispatch order (so breaker decisions are deterministic for a given
// stream), the units run on workers charging the shared Admission budget,
// and Finish() closes the boundary exactly once when the last unit
// completes. Breaker, quarantine and counter state are mutex-protected, so
// both calls are safe from any thread; the units themselves run outside
// the lock.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rfdump/core/protocols.hpp"
#include "rfdump/dsp/types.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::core {

/// How one supervised analysis invocation ended.
enum class Outcome : std::uint8_t {
  kOk = 0,
  kDeadline,   // WorkBudget expired; partial results were kept
  kException,  // the detector/demodulator threw; interval abandoned
  kSkipped,    // circuit breaker open: the interval was never attempted
};

[[nodiscard]] const char* OutcomeName(Outcome o);

/// Circuit-breaker state for one protocol (DESIGN.md §9 state machine).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

class Supervisor {
 public:
  struct Config {
    /// Per-invocation caps armed on every supervised analysis call.
    /// Defaults are unlimited (deadlines opt-in): batch experiments must
    /// reproduce the paper bit-for-bit regardless of host speed.
    util::WorkBudget::Limits demod_limits;

    /// Breaker: trip when >= `breaker_trip_failures` of the most recent
    /// `breaker_window` invocations of a protocol failed.
    int breaker_window = 8;
    int breaker_trip_failures = 4;
    /// Open duration in blocks: `breaker_cooldown_blocks << (trips - 1)`,
    /// capped at `breaker_max_cooldown_blocks` (exponential backoff; a
    /// successful half-open probe resets the trip count).
    int breaker_cooldown_blocks = 2;
    int breaker_max_cooldown_blocks = 64;

    /// Quarantine ring capacity (oldest evicted) and per-record snapshot cap
    /// (leading samples of the failed interval).
    std::size_t quarantine_capacity = 16;
    std::size_t quarantine_snapshot_samples = 65'536;

    /// Test-only fault injection: invoked inside the stage boundary, before
    /// the real analysis, with (protocol, absolute start sample, budget).
    /// Throwing simulates a crashing demodulator; spinning the budget down
    /// (`while (b.Charge(n)) {}`) simulates one that blows its deadline.
    std::function<void(Protocol, std::int64_t, util::WorkBudget&)> fault_hook;
  };

  /// One failed interval, replayable offline.
  struct QuarantineRecord {
    Protocol protocol = Protocol::kUnknown;
    Outcome outcome = Outcome::kOk;
    std::int64_t start_sample = 0;  // absolute stream position
    std::int64_t end_sample = 0;
    std::string error;              // exception what() (empty for deadlines)
    dsp::SampleVec snapshot;        // leading samples of the interval
  };

  /// Registry-independent totals (monotonic; snapshot under the lock).
  struct Counts {
    std::uint64_t invocations = 0;
    std::uint64_t ok = 0;
    std::uint64_t deadline = 0;
    std::uint64_t exception = 0;
    std::uint64_t skipped = 0;
    std::uint64_t detector_exceptions = 0;  // contained detector throws
    std::uint64_t breaker_trips = 0;
    std::uint64_t breaker_closes = 0;
    std::uint64_t quarantined = 0;
    /// WorkBudget accounting summed over finished invocations — the
    /// supervision-overhead bench prices deadline checks with these.
    std::uint64_t budget_checks = 0;
    std::uint64_t budget_charged = 0;
  };

  /// Supervision context for one dispatched interval, shared by every
  /// analysis unit of that interval (e.g. the 8 per-channel Bluetooth
  /// demodulations). Produced by Admit(), closed by Finish().
  struct Admission {
    Protocol protocol = Protocol::kUnknown;
    std::int64_t start = 0;  // relative to the current stream offset
    std::int64_t end = 0;
    /// True: run the unit(s), then call Finish() exactly once. False: the
    /// boundary is already fully accounted (breaker skip, or the fault hook
    /// threw) — `outcome` holds the result and Finish() must NOT be called.
    bool admitted = false;
    bool is_probe = false;  // half-open probe; resolved by Finish()
    Outcome outcome = Outcome::kOk;
    /// Deadline budget shared by all units of the interval. WorkBudget is
    /// safe to Charge() from concurrent units.
    util::WorkBudget budget;
  };

  Supervisor();
  explicit Supervisor(Config config);
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Opens the stage boundary for one interval: invocation accounting,
  /// breaker check (skip if open), budget arm and fault-hook injection.
  /// Thread-safe, but callers that need deterministic breaker behaviour
  /// must Admit() intervals in dispatch order from one thread.
  /// shared_ptr because the Admission (its WorkBudget holds atomics and
  /// cannot move) outlives the call in every parallel unit's closure.
  [[nodiscard]] std::shared_ptr<Admission> Admit(
      Protocol p, std::int64_t start, std::int64_t end,
      dsp::const_sample_span interval);

  /// Closes the boundary: budget/outcome accounting, breaker window note
  /// (trip/close), quarantine on failure. Call exactly once per admitted
  /// Admission, from any thread, after every unit has completed. `outcome`
  /// is the combined unit result (any throw => kException with `error`
  /// from the first failing unit in submission order, else expired budget
  /// => kDeadline, else kOk); `interval` feeds the quarantine snapshot.
  Outcome Finish(Admission& admission, Outcome outcome, std::string error,
                 dsp::const_sample_span interval);

  /// Exception containment for cheap detector calls (no budget, no breaker):
  /// a throwing detector loses its tags for this chunk, nothing else.
  /// Returns false if `fn` threw.
  template <typename F>
  bool Contain(F&& fn) {
    try {
      fn();
      return true;
    } catch (...) {
      NoteDetectorThrow();
    }
    return false;
  }

  /// Advances breaker cooldowns by one block (open -> half-open at zero).
  /// The streaming monitor calls this once per processed block.
  void OnBlockEnd();

  /// Absolute stream position of sample 0 of the span the pipeline is
  /// currently processing; quarantine records and the fault hook see
  /// absolute positions. Safe to set between blocks.
  void set_stream_offset(std::int64_t offset) {
    stream_offset_.store(offset, std::memory_order_relaxed);
  }

  [[nodiscard]] BreakerState breaker_state(Protocol p) const;
  /// Breakers currently not closed (open or half-open).
  [[nodiscard]] int open_breakers() const;
  [[nodiscard]] Counts counts() const;
  /// Snapshot of the quarantine ring, oldest first.
  [[nodiscard]] std::vector<QuarantineRecord> quarantine() const;
  const Config& config() const { return config_; }

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::deque<bool> window;      // recent invocations: true = failure
    int window_failures = 0;
    int cooldown_blocks_left = 0;
    int trips_since_close = 0;    // exponent for the backoff schedule
    bool probe_in_flight = false;
  };

  void NoteDetectorThrow();
  void RecordFailure(Protocol p, Outcome outcome, std::int64_t start,
                     std::int64_t end, dsp::const_sample_span interval,
                     std::string error);
  /// Window bookkeeping + trip decision. Caller holds mu_.
  void NoteResultLocked(Breaker& b, Protocol p, bool failure, bool was_probe);
  void TripLocked(Breaker& b, Protocol p);
  [[nodiscard]] int open_breakers_locked() const;

  Config config_;
  std::atomic<std::int64_t> stream_offset_{0};
  mutable std::mutex mu_;
  std::vector<Breaker> breakers_;  // indexed by Protocol, kProtocolCount wide
  std::deque<QuarantineRecord> quarantine_;
  Counts counts_;
};

}  // namespace rfdump::core
