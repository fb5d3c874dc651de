#include "rfdump/core/supervisor.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "rfdump/obs/obs.hpp"

namespace rfdump::core {
namespace {

/// One registry counter per protocol under a common family name (same idiom
/// as the dispatch counters in pipeline.cpp): resolved once, mutated with a
/// single relaxed atomic per event.
class PerProtocolCounter {
 public:
  explicit PerProtocolCounter(const char* family) {
    for (std::size_t i = 0; i < kProtocolCount; ++i) {
      counters_[i] = &obs::LabeledCounter(
          family, "protocol", ProtocolName(static_cast<Protocol>(i)));
    }
  }
  obs::Counter& of(Protocol p) {
    return *counters_[static_cast<std::size_t>(p)];
  }

 private:
  std::array<obs::Counter*, kProtocolCount> counters_{};
};

struct SupervisorMetrics {
  PerProtocolCounter invocations{"rfdump_supervisor_invocations_total"};
  PerProtocolCounter trips{"rfdump_supervisor_breaker_trips_total"};
  obs::Counter& ok = obs::LabeledCounter("rfdump_supervisor_outcomes_total",
                                         "outcome", "ok");
  obs::Counter& deadline = obs::LabeledCounter(
      "rfdump_supervisor_outcomes_total", "outcome", "deadline");
  obs::Counter& exception = obs::LabeledCounter(
      "rfdump_supervisor_outcomes_total", "outcome", "exception");
  obs::Counter& skipped = obs::LabeledCounter(
      "rfdump_supervisor_outcomes_total", "outcome", "skipped");
  obs::Counter& closes = obs::Registry::Default().GetCounter(
      "rfdump_supervisor_breaker_closes_total");
  obs::Counter& quarantined = obs::Registry::Default().GetCounter(
      "rfdump_supervisor_quarantined_total");
  obs::Counter& detector_exceptions = obs::Registry::Default().GetCounter(
      "rfdump_supervisor_detector_exceptions_total");
  obs::Gauge& open_breakers = obs::Registry::Default().GetGauge(
      "rfdump_supervisor_open_breakers");
  static SupervisorMetrics& Get() {
    static SupervisorMetrics m;
    return m;
  }
};

}  // namespace

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kDeadline: return "deadline";
    case Outcome::kException: return "exception";
    case Outcome::kSkipped: return "skipped";
  }
  return "?";
}

Supervisor::Supervisor() : Supervisor(Config{}) {}

Supervisor::Supervisor(Config config)
    : config_(std::move(config)), breakers_(kProtocolCount) {}

std::shared_ptr<Supervisor::Admission> Supervisor::Admit(
    Protocol p, std::int64_t start, std::int64_t end,
    dsp::const_sample_span interval) {
  auto& metrics = SupervisorMetrics::Get();
  metrics.invocations.of(p).Inc();
  auto admission = std::make_shared<Admission>();
  admission->protocol = p;
  admission->start = start;
  admission->end = end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_.invocations;
    Breaker& b = breakers_[static_cast<std::size_t>(p)];
    if (b.state == BreakerState::kOpen ||
        (b.state == BreakerState::kHalfOpen && b.probe_in_flight)) {
      ++counts_.skipped;
      metrics.skipped.Inc();
      admission->outcome = Outcome::kSkipped;
      return admission;
    }
    if (b.state == BreakerState::kHalfOpen) {
      b.probe_in_flight = true;
      admission->is_probe = true;
    }
  }
  admission->budget.Arm(config_.demod_limits);
  admission->admitted = true;
  if (config_.fault_hook) {
    // The hook runs inside the boundary (it can spin the budget down or
    // throw); a throw fails the whole interval before any unit starts, so
    // the boundary is closed here and admitted stays false for the caller.
    try {
      config_.fault_hook(
          p, stream_offset_.load(std::memory_order_relaxed) + start,
          admission->budget);
    } catch (const std::exception& e) {
      admission->admitted = false;
      Finish(*admission, Outcome::kException, e.what(), interval);
    } catch (...) {
      admission->admitted = false;
      Finish(*admission, Outcome::kException, "non-std exception", interval);
    }
  }
  return admission;
}

Outcome Supervisor::Finish(Admission& admission, Outcome outcome,
                           std::string error,
                           dsp::const_sample_span interval) {
  auto& metrics = SupervisorMetrics::Get();
  const bool failure = outcome != Outcome::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.budget_checks += admission.budget.checks();
    counts_.budget_charged += admission.budget.charged();
    switch (outcome) {
      case Outcome::kOk: ++counts_.ok; break;
      case Outcome::kDeadline: ++counts_.deadline; break;
      case Outcome::kException: ++counts_.exception; break;
      case Outcome::kSkipped: break;  // skips never reach Finish
    }
    NoteResultLocked(breakers_[static_cast<std::size_t>(admission.protocol)],
                     admission.protocol, failure, admission.is_probe);
  }
  switch (outcome) {
    case Outcome::kOk: metrics.ok.Inc(); break;
    case Outcome::kDeadline: metrics.deadline.Inc(); break;
    case Outcome::kException: metrics.exception.Inc(); break;
    case Outcome::kSkipped: break;
  }
  if (failure) {
    RecordFailure(admission.protocol, outcome, admission.start, admission.end,
                  interval, std::move(error));
  }
  admission.outcome = outcome;
  return outcome;
}

void Supervisor::NoteResultLocked(Breaker& b, Protocol p, bool failure,
                                  bool was_probe) {
  if (was_probe) {
    b.probe_in_flight = false;
    if (failure) {
      TripLocked(b, p);  // re-open with doubled cooldown
    } else {
      b.state = BreakerState::kClosed;
      b.trips_since_close = 0;
      b.window.clear();
      b.window_failures = 0;
      ++counts_.breaker_closes;
      SupervisorMetrics::Get().closes.Inc();
      SupervisorMetrics::Get().open_breakers.Set(open_breakers_locked());
    }
    return;
  }
  b.window.push_back(failure);
  if (failure) ++b.window_failures;
  while (static_cast<int>(b.window.size()) > config_.breaker_window) {
    if (b.window.front()) --b.window_failures;
    b.window.pop_front();
  }
  if (b.state == BreakerState::kClosed &&
      b.window_failures >= config_.breaker_trip_failures) {
    TripLocked(b, p);
  }
}

void Supervisor::TripLocked(Breaker& b, Protocol p) {
  b.state = BreakerState::kOpen;
  ++b.trips_since_close;
  const int shift = std::min(b.trips_since_close - 1, 16);
  b.cooldown_blocks_left =
      std::min(config_.breaker_cooldown_blocks << shift,
               config_.breaker_max_cooldown_blocks);
  b.window.clear();
  b.window_failures = 0;
  ++counts_.breaker_trips;
  SupervisorMetrics::Get().trips.of(p).Inc();
  SupervisorMetrics::Get().open_breakers.Set(open_breakers_locked());
}

void Supervisor::RecordFailure(Protocol p, Outcome outcome, std::int64_t start,
                               std::int64_t end,
                               dsp::const_sample_span interval,
                               std::string error) {
  const std::int64_t offset = stream_offset_.load(std::memory_order_relaxed);
  QuarantineRecord rec;
  rec.protocol = p;
  rec.outcome = outcome;
  rec.start_sample = offset + start;
  rec.end_sample = offset + end;
  rec.error = std::move(error);
  const std::size_t n =
      std::min(interval.size(), config_.quarantine_snapshot_samples);
  rec.snapshot.assign(interval.begin(),
                      interval.begin() + static_cast<std::ptrdiff_t>(n));
  SupervisorMetrics::Get().quarantined.Inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.quarantined;
  quarantine_.push_back(std::move(rec));
  while (config_.quarantine_capacity > 0 &&
         quarantine_.size() > config_.quarantine_capacity) {
    quarantine_.pop_front();
  }
}

void Supervisor::NoteDetectorThrow() {
  SupervisorMetrics::Get().detector_exceptions.Inc();
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.detector_exceptions;
}

void Supervisor::OnBlockEnd() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < breakers_.size(); ++i) {
    Breaker& b = breakers_[i];
    if (b.state != BreakerState::kOpen) continue;
    if (--b.cooldown_blocks_left <= 0) {
      b.state = BreakerState::kHalfOpen;
      b.probe_in_flight = false;
    }
  }
  SupervisorMetrics::Get().open_breakers.Set(open_breakers_locked());
}

BreakerState Supervisor::breaker_state(Protocol p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return breakers_[static_cast<std::size_t>(p)].state;
}

int Supervisor::open_breakers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_breakers_locked();
}

int Supervisor::open_breakers_locked() const {
  int open = 0;
  for (const Breaker& b : breakers_) {
    if (b.state != BreakerState::kClosed) ++open;
  }
  return open;
}

Supervisor::Counts Supervisor::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::vector<Supervisor::QuarantineRecord> Supervisor::quarantine() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {quarantine_.begin(), quarantine_.end()};
}

}  // namespace rfdump::core
