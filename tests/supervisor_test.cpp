// Supervision-layer tests (DESIGN.md §9): cooperative deadlines, crash
// containment, per-protocol circuit breakers and poison-block quarantine.
//
// The acceptance scenario: a streaming monitor fed a demodulator that throws
// on chosen intervals (and one that blows its deadline) must finish with
// zero crashes, keep decoding the other protocol at the unimpaired rate,
// surface every failure in HealthReports / HealthSummary / the
// rfdump_supervisor_* metrics, and trip + recover the breaker through a
// half-open probe. The concurrency tests make the Supervisor/WorkBudget
// contract TSan-provable (the ci tsan job runs this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rfdump/channel/channel.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/core/supervisor.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phy80211/demodulator.hpp"
#include "rfdump/phybt/demodulator.hpp"
#include "rfdump/phyzigbee/phy.hpp"
#include "rfdump/traffic/traffic.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;
namespace emu = rfdump::emu;
namespace util = rfdump::util;

namespace {

/// A band with both protocols active, so impairing one protocol's analysis
/// lets the tests check the other still decodes at full rate.
dsp::SampleVec MixedEther(std::size_t wifi_pings, std::size_t bt_pings,
                          std::uint64_t seed) {
  emu::Ether ether(emu::Ether::Config{}, seed);
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = wifi_pings;
  wifi.interval_us = 25000.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = bt_pings;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16'000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 24'000);
  return ether.Render(std::max(ws.end_sample, bs.end_sample) + 16'000);
}

core::StreamingMonitor::Config SmallBlocks() {
  core::StreamingMonitor::Config cfg;
  cfg.block_samples = 400'000;
  cfg.overlap_samples = 160'000;
  return cfg;
}

/// Runs `fn` under one Admit/Finish stage boundary, as the analysis stage
/// does for every dispatched interval: a throw is an exception outcome, an
/// expired budget a deadline.
template <typename F>
core::Outcome Supervised(core::Supervisor& sup, core::Protocol p,
                         std::int64_t start, std::int64_t end,
                         dsp::const_sample_span interval, F&& fn) {
  auto admission = sup.Admit(p, start, end, interval);
  if (!admission->admitted) return admission->outcome;
  core::Outcome outcome = core::Outcome::kOk;
  std::string error;
  try {
    fn(admission->budget);
    if (admission->budget.expired()) outcome = core::Outcome::kDeadline;
  } catch (const std::exception& e) {
    outcome = core::Outcome::kException;
    error = e.what();
  }
  return sup.Finish(*admission, outcome, std::move(error), interval);
}

/// Counts emitted decodes per protocol.
class CountingSink final : public core::ResultSink {
 public:
  void OnEvent(const core::ProtocolEvent& e) override {
    if (e.protocol == core::Protocol::kWifi80211b) wifi.push_back(e);
    if (e.protocol == core::Protocol::kBluetooth) ++bt;
  }
  std::vector<core::ProtocolEvent> wifi;
  std::size_t bt = 0;
};

void DriveWhole(core::StreamingMonitor& monitor,
                dsp::const_sample_span samples) {
  // Mixed segment sizes cross block boundaries at awkward offsets.
  std::size_t pos = 0;
  while (pos < samples.size()) {
    const std::size_t n = std::min<std::size_t>(130'000, samples.size() - pos);
    monitor.Push(samples.subspan(pos, n));
    pos += n;
  }
  monitor.Flush();
}

// ------------------------------------------------------------ WorkBudget

TEST(WorkBudget, DefaultIsUnlimited) {
  util::WorkBudget b;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.Charge(1'000'000));
  EXPECT_FALSE(b.expired());
  EXPECT_EQ(b.charged(), 1000u * 1'000'000u);
  EXPECT_EQ(b.checks(), 1000u);
}

TEST(WorkBudget, SampleCapExpiresAndSticks) {
  util::WorkBudget b;
  b.Arm({.max_samples = 1000, .max_cpu_seconds = 0.0});
  EXPECT_TRUE(b.Charge(600));
  EXPECT_FALSE(b.expired());
  EXPECT_FALSE(b.Charge(600));  // 1200 > 1000
  EXPECT_TRUE(b.expired());
  EXPECT_FALSE(b.Charge(1));  // sticky until re-Arm
  b.Arm({.max_samples = 1000, .max_cpu_seconds = 0.0});
  EXPECT_FALSE(b.expired());
  EXPECT_TRUE(b.Charge(600));
}

TEST(WorkBudget, CpuDeadlineExpires) {
  util::WorkBudget b;
  b.Arm({.max_samples = 0, .max_cpu_seconds = 1e-9});
  // The deadline is already in the past by the first check; the budget must
  // expire promptly rather than loop forever.
  std::uint64_t charges = 0;
  while (b.Charge(1) && charges < 1'000'000) ++charges;
  EXPECT_TRUE(b.expired());
  EXPECT_LT(charges, 1'000'000u);
}

TEST(WorkBudget, ConcurrentChargeIsRaceFree) {
  util::WorkBudget b;
  b.Arm({.max_samples = 400'000, .max_cpu_seconds = 0.0});
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&b] {
      // Every worker stops at the shared sticky expiry.
      while (b.Charge(64)) {
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(b.expired());
  // All charges before expiry were accounted (cap, plus up to one quantum
  // per racing worker).
  EXPECT_GE(b.charged(), 400'000u);
}

// ---------------------------------------------- demodulators honor budgets

TEST(Supervision, WifiDemodulatorHonorsBudget) {
  const auto x = MixedEther(/*wifi_pings=*/4, /*bt_pings=*/0, /*seed=*/11);
  const auto span = dsp::const_sample_span(x);

  rfdump::phy80211::Demodulator baseline;
  const auto all_frames = baseline.DecodeAll(span);
  ASSERT_FALSE(all_frames.empty());

  // An armed but generous budget must not change results.
  util::WorkBudget roomy;
  roomy.Arm({.max_samples = 1'000'000'000, .max_cpu_seconds = 0.0});
  rfdump::phy80211::Demodulator::Config cfg;
  cfg.budget = &roomy;
  rfdump::phy80211::Demodulator budgeted(cfg);
  EXPECT_EQ(budgeted.DecodeAll(span).size(), all_frames.size());
  EXPECT_FALSE(roomy.expired());

  // A tiny budget aborts the scan early — cleanly, keeping whatever was
  // decoded before expiry.
  util::WorkBudget tiny;
  tiny.Arm({.max_samples = 1'000, .max_cpu_seconds = 0.0});
  rfdump::phy80211::Demodulator::Config tcfg;
  tcfg.budget = &tiny;
  rfdump::phy80211::Demodulator cut(tcfg);
  const auto partial = cut.DecodeAll(span);
  EXPECT_TRUE(tiny.expired());
  EXPECT_LT(partial.size(), all_frames.size());
}

TEST(Supervision, BtDemodulatorHonorsBudget) {
  const auto x = MixedEther(/*wifi_pings=*/0, /*bt_pings=*/24, /*seed=*/12);
  const auto span = dsp::const_sample_span(x);

  rfdump::phybt::Demodulator baseline;
  const auto all_pkts = baseline.DecodeAll(span);
  ASSERT_FALSE(all_pkts.empty());

  util::WorkBudget roomy;
  roomy.Arm({.max_samples = 4'000'000'000ull, .max_cpu_seconds = 0.0});
  rfdump::phybt::Demodulator::Config cfg;
  cfg.budget = &roomy;
  rfdump::phybt::Demodulator budgeted(cfg);
  EXPECT_EQ(budgeted.DecodeAll(span).size(), all_pkts.size());
  EXPECT_FALSE(roomy.expired());

  util::WorkBudget tiny;
  tiny.Arm({.max_samples = 1'000, .max_cpu_seconds = 0.0});
  rfdump::phybt::Demodulator::Config tcfg;
  tcfg.budget = &tiny;
  rfdump::phybt::Demodulator cut(tcfg);
  const auto partial = cut.DecodeAll(span);
  EXPECT_TRUE(tiny.expired());
  EXPECT_LT(partial.size(), all_pkts.size());
}

TEST(Supervision, ZigbeeUnitHonorsBudget) {
  // One ZigBee interval (a frame in noise), decoded by the bundle's unit.
  const std::vector<std::uint8_t> psdu = {0x41, 0x88, 0x01, 0x22, 0x33};
  const auto wave = rfdump::phyzigbee::ModulateFrame(psdu);
  dsp::SampleVec x(20'000, dsp::cfloat{0.0f, 0.0f});
  std::copy(wave.begin(), wave.end(), x.begin() + 12'000);
  rfdump::util::Xoshiro256 rng(13);
  rfdump::channel::AddAwgn(x, 1e-3, rng);
  const core::ProtocolBundle* bundle =
      core::ProtocolRegistry::Instance().Find(core::Protocol::kZigbee);
  ASSERT_NE(bundle, nullptr);
  core::AnalysisUnitContext ctx;
  ctx.span = x;
  const auto unlimited = bundle->run_unit(ctx, 0).events;
  ASSERT_EQ(unlimited.size(), 1u);

  const auto run = [&](std::uint64_t max_samples,
                       std::vector<core::ProtocolEvent>& events) {
    core::Supervisor::Config cfg;
    cfg.demod_limits.max_samples = max_samples;
    core::Supervisor sup(cfg);
    return Supervised(sup, core::Protocol::kZigbee, 0,
                      static_cast<std::int64_t>(x.size()), x,
                      [&](util::WorkBudget& b) {
                        core::AnalysisUnitContext c = ctx;
                        c.budget = &b;
                        events = bundle->run_unit(c, 0).events;
                      });
  };
  // A generous cap changes nothing.
  std::vector<core::ProtocolEvent> roomy;
  EXPECT_EQ(run(1'000'000'000, roomy), core::Outcome::kOk);
  ASSERT_EQ(roomy.size(), 1u);
  EXPECT_EQ(roomy[0].start_sample, unlimited[0].start_sample);
  EXPECT_EQ(roomy[0].end_sample, unlimited[0].end_sample);
  EXPECT_EQ(roomy[0].payload, unlimited[0].payload);
  // A cap below the sync search's first block ends at the deadline, before
  // the frame 12k samples in is reached.
  std::vector<core::ProtocolEvent> tight;
  EXPECT_EQ(run(1'000, tight), core::Outcome::kDeadline);
  EXPECT_TRUE(tight.empty());
}

// ------------------------------------------------------------- breaker FSM

TEST(Supervision, BreakerTripsBacksOffAndRecovers) {
  core::Supervisor::Config cfg;
  cfg.breaker_window = 4;
  cfg.breaker_trip_failures = 2;
  cfg.breaker_cooldown_blocks = 1;
  cfg.breaker_max_cooldown_blocks = 8;
  core::Supervisor sup(cfg);
  const dsp::SampleVec dummy(64);
  const auto fail = [&] {
    return Supervised(sup, core::Protocol::kWifi80211b, 0, 64, dummy,
                      [](util::WorkBudget&) {
                        throw std::runtime_error("boom");
                      });
  };
  const auto succeed = [&] {
    return Supervised(sup, core::Protocol::kWifi80211b, 0, 64, dummy,
                      [](util::WorkBudget&) {});
  };

  // Two failures in the window trip the breaker open.
  EXPECT_EQ(fail(), core::Outcome::kException);
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kClosed);
  EXPECT_EQ(fail(), core::Outcome::kException);
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kOpen);
  // Open: intervals are skipped without running the closure. Other
  // protocols' breakers are independent and stay closed.
  EXPECT_EQ(succeed(), core::Outcome::kSkipped);
  EXPECT_EQ(sup.breaker_state(core::Protocol::kBluetooth),
            core::BreakerState::kClosed);
  EXPECT_EQ(sup.open_breakers(), 1);

  // Cooldown (1 block) elapses -> half-open; a failing probe re-opens with a
  // doubled cooldown (exponential backoff).
  sup.OnBlockEnd();
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kHalfOpen);
  EXPECT_EQ(fail(), core::Outcome::kException);  // the probe itself
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kOpen);
  sup.OnBlockEnd();  // 1 of 2 cooldown blocks
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kOpen);
  sup.OnBlockEnd();  // 2 of 2
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kHalfOpen);

  // While the half-open probe is in flight, other intervals are skipped.
  bool probe_ran = false;
  std::thread probe([&] {
    Supervised(sup, core::Protocol::kWifi80211b, 0, 64, dummy,
               [&](util::WorkBudget&) {
                 probe_ran = true;
                 // A second interval arriving mid-probe is not admitted.
                 EXPECT_EQ(succeed(), core::Outcome::kSkipped);
               });
  });
  probe.join();
  EXPECT_TRUE(probe_ran);
  // The successful probe closed the breaker and reset the backoff.
  EXPECT_EQ(sup.breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kClosed);
  EXPECT_EQ(sup.open_breakers(), 0);

  const auto counts = sup.counts();
  EXPECT_EQ(counts.breaker_trips, 2u);
  EXPECT_EQ(counts.breaker_closes, 1u);
  EXPECT_EQ(counts.exception, 3u);
  EXPECT_EQ(counts.skipped, 2u);
}

TEST(Supervision, QuarantineRingIsBoundedAndKeepsNewest) {
  core::Supervisor::Config cfg;
  cfg.quarantine_capacity = 4;
  cfg.quarantine_snapshot_samples = 8;
  // A huge window so the breaker never opens and every failure is attempted.
  cfg.breaker_window = 1'000;
  cfg.breaker_trip_failures = 1'000;
  core::Supervisor sup(cfg);
  sup.set_stream_offset(10'000);
  dsp::SampleVec interval(32, dsp::cfloat{1.0f, -1.0f});
  for (int i = 0; i < 10; ++i) {
    Supervised(sup, core::Protocol::kBluetooth, i * 100, i * 100 + 32,
               interval, [](util::WorkBudget&) {
                 throw std::runtime_error("poison");
               });
  }
  const auto q = sup.quarantine();
  ASSERT_EQ(q.size(), 4u);  // oldest evicted
  EXPECT_EQ(sup.counts().quarantined, 10u);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto& rec = q[i];
    EXPECT_EQ(rec.protocol, core::Protocol::kBluetooth);
    EXPECT_EQ(rec.outcome, core::Outcome::kException);
    EXPECT_EQ(rec.error, "poison");
    EXPECT_EQ(rec.snapshot.size(), 8u);  // capped below the interval size
    // Newest four failures, absolute stream positions.
    const auto expect_start = 10'000 + static_cast<std::int64_t>(6 + i) * 100;
    EXPECT_EQ(rec.start_sample, expect_start);
    EXPECT_EQ(rec.end_sample, expect_start + 32);
  }
}

TEST(Supervision, ContainCountsDetectorThrows) {
  core::Supervisor sup;
  int ran = 0;
  EXPECT_TRUE(sup.Contain([&] { ++ran; }));
  EXPECT_FALSE(sup.Contain([&] {
    ++ran;
    throw std::runtime_error("detector bug");
  }));
  EXPECT_FALSE(sup.Contain([] { throw 42; }));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sup.counts().detector_exceptions, 2u);
}

TEST(Supervision, ConcurrentSuperviseIsRaceFree) {
  core::Supervisor::Config cfg;
  cfg.demod_limits.max_samples = 10'000;
  cfg.breaker_window = 8;
  cfg.breaker_trip_failures = 4;
  cfg.breaker_cooldown_blocks = 1;
  cfg.quarantine_capacity = 8;
  core::Supervisor sup(cfg);
  const dsp::SampleVec interval(128);
  // Four workers supervise a mix of ok / throwing / deadline-blowing
  // closures on two protocols while the main thread advances block time and
  // reads every accessor — the exact shape of the future analysis pool.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&sup, &interval, t] {
      const auto proto = (t % 2 == 0) ? core::Protocol::kWifi80211b
                                      : core::Protocol::kBluetooth;
      for (int i = 0; i < 200; ++i) {
        Supervised(sup, proto, i, i + 128, interval,
                   [&](util::WorkBudget& b) {
                     if (i % 3 == 0) throw std::runtime_error("x");
                     if (i % 3 == 1) {
                       while (b.Charge(512)) {
                       }
                     }
                   });
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    sup.OnBlockEnd();
    (void)sup.counts();
    (void)sup.quarantine();
    (void)sup.open_breakers();
    (void)sup.breaker_state(core::Protocol::kWifi80211b);
  }
  for (auto& w : workers) w.join();
  const auto counts = sup.counts();
  EXPECT_EQ(counts.invocations, 800u);
  EXPECT_EQ(counts.ok + counts.deadline + counts.exception + counts.skipped,
            counts.invocations);
}

// -------------------------------------------------- end-to-end (streaming)

TEST(SupervisedStreaming, ThrowingDemodulatorIsContainedAndBreakerRecovers) {
  const auto samples = MixedEther(/*wifi_pings=*/16, /*bt_pings=*/48,
                                  /*seed=*/71);
  const auto span = dsp::const_sample_span(samples);
  const auto cutoff = static_cast<std::int64_t>(samples.size() / 2);

  // Control run: same band, no faults.
  CountingSink control_sink;
  {
    auto ccfg = SmallBlocks();
    ccfg.sink = &control_sink;
    core::StreamingMonitor control(ccfg);
    DriveWhole(control, span);
    ASSERT_GT(control_sink.wifi.size(), 0u);
    ASSERT_GT(control_sink.bt, 0u);
  }
  const std::size_t control_wifi = control_sink.wifi.size();
  const std::size_t control_bt = control_sink.bt;

  namespace obs = rfdump::obs;
  auto& reg = obs::Registry::Default();
  const auto exc0 =
      reg.CounterValue("rfdump_supervisor_outcomes_total{outcome=\"exception\"}");
  const auto skip0 =
      reg.CounterValue("rfdump_supervisor_outcomes_total{outcome=\"skipped\"}");
  const auto trips0 = reg.CounterValue(
      "rfdump_supervisor_breaker_trips_total{protocol=\"802.11b\"}");
  const auto closes0 =
      reg.CounterValue("rfdump_supervisor_breaker_closes_total");
  const auto quar0 =
      reg.CounterValue("rfdump_supervisor_quarantined_total");

  // Impaired run: the 802.11 demodulator "crashes" on every interval in the
  // first half of the stream, then behaves.
  auto mcfg = SmallBlocks();
  mcfg.supervisor.breaker_window = 4;
  mcfg.supervisor.breaker_trip_failures = 2;
  mcfg.supervisor.breaker_cooldown_blocks = 1;
  mcfg.supervisor.fault_hook = [cutoff](core::Protocol p, std::int64_t start,
                                        util::WorkBudget&) {
    if (p == core::Protocol::kWifi80211b && start < cutoff) {
      throw std::runtime_error("injected demodulator crash");
    }
  };
  CountingSink sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  DriveWhole(monitor, span);  // completing at all is the headline assertion
  const std::size_t faulty_bt = sink.bt;
  const auto& wifi_decodes = sink.wifi;

  // The other protocol decoded at exactly the unimpaired rate.
  EXPECT_EQ(faulty_bt, control_bt);

  // Failures were contained and counted, the breaker tripped, and after the
  // faulty region ended a half-open probe closed it again.
  const auto counts = monitor.supervisor().counts();
  EXPECT_GT(counts.exception, 0u);
  EXPECT_GT(counts.skipped, 0u);  // open-breaker intervals were not attempted
  EXPECT_GE(counts.breaker_trips, 1u);
  EXPECT_GE(counts.breaker_closes, 1u);
  EXPECT_EQ(monitor.supervisor().breaker_state(core::Protocol::kWifi80211b),
            core::BreakerState::kClosed);
  EXPECT_EQ(monitor.supervisor().open_breakers(), 0);

  // 802.11 decoding resumed after recovery: every decoded frame is post-
  // cutoff, and there are some.
  EXPECT_GT(wifi_decodes.size(), 0u);
  EXPECT_LT(wifi_decodes.size(), control_wifi);
  for (const auto& f : wifi_decodes) EXPECT_GE(f.start_sample, cutoff);

  // Quarantine holds the poison intervals: right protocol, right outcome,
  // absolute positions inside the faulty region, non-empty snapshots.
  const auto q = monitor.supervisor().quarantine();
  ASSERT_FALSE(q.empty());
  for (const auto& rec : q) {
    EXPECT_EQ(rec.protocol, core::Protocol::kWifi80211b);
    EXPECT_EQ(rec.outcome, core::Outcome::kException);
    EXPECT_EQ(rec.error, "injected demodulator crash");
    EXPECT_FALSE(rec.snapshot.empty());
    EXPECT_LT(rec.start_sample, cutoff);
    EXPECT_GT(rec.end_sample, rec.start_sample);
  }

  // HealthReports and the cumulative summary agree with the supervisor.
  std::uint64_t h_sup = 0, h_exc = 0, h_skip = 0, h_quar = 0, h_trips = 0;
  for (const auto& h : monitor.health()) {
    h_sup += h.supervised_intervals;
    h_exc += h.exception_intervals;
    h_skip += h.skipped_intervals;
    h_quar += h.quarantined_intervals;
    h_trips += h.breaker_trips;
  }
  EXPECT_EQ(h_sup, counts.invocations);
  EXPECT_EQ(h_exc, counts.exception);
  EXPECT_EQ(h_skip, counts.skipped);
  EXPECT_EQ(h_quar, counts.quarantined);
  EXPECT_EQ(h_trips, counts.breaker_trips);
  const auto& sum = monitor.summary();
  EXPECT_EQ(sum.supervised_intervals, counts.invocations);
  EXPECT_EQ(sum.exception_intervals, counts.exception);
  EXPECT_EQ(sum.skipped_intervals, counts.skipped);
  EXPECT_EQ(sum.quarantined_intervals, counts.quarantined);
  EXPECT_EQ(sum.breaker_trips, counts.breaker_trips);
  EXPECT_EQ(sum.deadline_intervals, 0u);

#if RFDUMP_OBS_ENABLED
  // The rfdump_supervisor_* metrics tick in the same code paths.
  EXPECT_EQ(
      reg.CounterValue(
          "rfdump_supervisor_outcomes_total{outcome=\"exception\"}") - exc0,
      counts.exception);
  EXPECT_EQ(
      reg.CounterValue(
          "rfdump_supervisor_outcomes_total{outcome=\"skipped\"}") - skip0,
      counts.skipped);
  EXPECT_EQ(
      reg.CounterValue(
          "rfdump_supervisor_breaker_trips_total{protocol=\"802.11b\"}") -
          trips0,
      counts.breaker_trips);
  EXPECT_EQ(reg.CounterValue("rfdump_supervisor_breaker_closes_total") -
                closes0,
            counts.breaker_closes);
  EXPECT_EQ(reg.CounterValue("rfdump_supervisor_quarantined_total") - quar0,
            counts.quarantined);
#else
  (void)exc0; (void)skip0; (void)trips0; (void)closes0; (void)quar0;
#endif
}

TEST(SupervisedStreaming, DeadlineBlowingIntervalAbortsCleanly) {
  const auto samples = MixedEther(/*wifi_pings=*/8, /*bt_pings=*/32,
                                  /*seed=*/72);
  const auto span = dsp::const_sample_span(samples);

  CountingSink control;
  {
    auto ccfg = SmallBlocks();
    ccfg.sink = &control;
    core::StreamingMonitor monitor(ccfg);
    DriveWhole(monitor, span);
    ASSERT_GT(control.bt, 0u);
  }

  // Every 802.11 interval spins until the (deterministic, sample-count)
  // budget expires — a runaway decode loop, without wall-clock flakiness.
  auto mcfg = SmallBlocks();
  mcfg.supervisor.demod_limits.max_samples = 10'000'000;
  mcfg.supervisor.fault_hook = [](core::Protocol p, std::int64_t,
                                  util::WorkBudget& b) {
    if (p == core::Protocol::kWifi80211b) {
      while (b.Charge(65'536)) {
      }
    }
  };
  CountingSink sink;
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  DriveWhole(monitor, span);

  EXPECT_EQ(sink.bt, control.bt);
  const auto counts = monitor.supervisor().counts();
  EXPECT_GT(counts.deadline, 0u);
  EXPECT_EQ(counts.exception, 0u);
  EXPECT_EQ(monitor.summary().deadline_intervals, counts.deadline);
  // Deadline failures quarantine too (outcome recorded, no error string).
  const auto q = monitor.supervisor().quarantine();
  ASSERT_FALSE(q.empty());
  for (const auto& rec : q) {
    EXPECT_EQ(rec.outcome, core::Outcome::kDeadline);
    EXPECT_TRUE(rec.error.empty());
  }
  // Budget accounting reached the supervisor (the overhead bench depends on
  // these to price deadline checks).
  EXPECT_GT(counts.budget_checks, 0u);
  EXPECT_GT(counts.budget_charged, 0u);
}

TEST(SupervisedStreaming, CleanPathAllOkAndQuarantineEmpty) {
  // Supervision on the clean path must be semantics-free: with no faults and
  // unlimited default limits, every supervised interval ends kOk, nothing is
  // quarantined, and both protocols decode.
  const auto samples = MixedEther(/*wifi_pings=*/6, /*bt_pings=*/16,
                                  /*seed=*/73);
  CountingSink sink;
  auto mcfg = SmallBlocks();
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  DriveWhole(monitor, dsp::const_sample_span(samples));
  EXPECT_GT(sink.wifi.size(), 0u);
  EXPECT_GT(sink.bt, 0u);
  const auto counts = monitor.supervisor().counts();
  EXPECT_GT(counts.invocations, 0u);
  EXPECT_EQ(counts.ok, counts.invocations);
  EXPECT_EQ(counts.deadline + counts.exception + counts.skipped, 0u);
  EXPECT_TRUE(monitor.supervisor().quarantine().empty());
}

}  // namespace
