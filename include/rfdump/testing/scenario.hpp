#pragma once
// Conformance-harness scenario DSL (DESIGN.md §11).
//
// The paper's evaluation (§5) is a family of controlled ether scenarios:
// traffic mixes at swept SNRs, scored against emulator ground truth. The
// ScenarioBuilder packages that as a composable, *seed-deterministic* recipe:
// every stochastic element — AWGN, backoff draws, payload bytes, hop phases,
// front-end fault schedules — derives from ONE master seed, so any harness
// failure is reproducible from a single printed integer and two renders of
// the same builder are bit-identical.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/emu/frontend.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace rfdump::testing {

/// One rendered, ground-truthed scenario: the composite sample stream, the
/// emulator's authoritative truth records, and (when impaired) the front-end
/// fault log plus the exact segment delivery schedule.
struct RenderedScenario {
  std::uint64_t seed = 0;
  std::string name;
  dsp::SampleVec samples;                // the ideal rendered stream
  std::vector<emu::TruthRecord> truth;   // insertion order, incl. invisible
  std::vector<emu::FaultRecord> faults;  // impairment ground truth
  /// Impaired delivery: timestamped segments exactly as a hostile front end
  /// would hand them over (gaps / duplicates / NaN bursts applied). Empty
  /// for clean scenarios — feed `samples` directly.
  std::vector<emu::Segment> segments;

  [[nodiscard]] bool impaired() const { return !segments.empty(); }
  [[nodiscard]] std::int64_t duration() const {
    return static_cast<std::int64_t>(samples.size());
  }
};

/// Composes multi-protocol ether scenarios. Each traffic op is appended with
/// an explicit start offset or auto-staggered after the previous op; Render()
/// replays the recipe into a freshly seeded emu::Ether, so the builder can be
/// rendered any number of times (and on any host) with identical output.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::uint64_t master_seed,
                           std::string name = "scenario");

  // ------------------------------------------------------------ environment
  /// dB added to every traffic op's configured SNR at render time — the
  /// harness's SNR-sweep knob (one builder, swept offsets). Test seam: only
  /// tests call it.
  ScenarioBuilder& SnrOffsetDb(double db);
  /// Idle samples appended after the last burst (default 16'000).
  ScenarioBuilder& TailPadding(std::int64_t samples);
  /// Replays the rendered stream through emu::FrontEnd with this fault
  /// model; the front-end seed derives from the master seed.
  ScenarioBuilder& Impair(emu::FrontEnd::Config config);

  // ---------------------------------------------------------------- traffic
  /// `at_sample < 0` auto-staggers: the op starts 8'000 samples (1 ms) after
  /// the scenario's current latest activity. WifiPing is a test seam: only
  /// tests call it.
  ScenarioBuilder& WifiPing(traffic::WifiPingConfig cfg = {},
                            std::int64_t at_sample = -1);
  ScenarioBuilder& Microwave(traffic::MicrowaveConfig cfg,
                             std::int64_t at_sample,
                             std::int64_t duration_samples);
  ScenarioBuilder& Campus(traffic::CampusConfig cfg = {},
                          std::int64_t at_sample = -1);

  /// Generic traffic op: `run(ether, start, snr_offset_db)` injects traffic
  /// and returns the sample where its activity ended. This is how registry
  /// bundles contribute scenario ops (core::ProtocolBundle::canned_traffic)
  /// without the DSL naming their protocol.
  ScenarioBuilder& Traffic(
      std::function<std::int64_t(emu::Ether&, std::int64_t start,
                                 double snr_offset_db)>
          run,
      std::int64_t at_sample = -1);

  /// Renders the recipe. Deterministic: same builder state + same master
  /// seed => bit-identical RenderedScenario, byte for byte.
  [[nodiscard]] RenderedScenario Render() const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Op {
    /// Runs the generator; returns where its activity ended.
    std::function<std::int64_t(emu::Ether&, std::int64_t start,
                               double snr_offset_db)>
        run;
    std::int64_t at_sample = -1;
  };

  ScenarioBuilder& Add(Op op);

  std::uint64_t seed_;
  std::string name_;
  double snr_offset_db_ = 0.0;
  std::int64_t tail_padding_ = 16'000;
  bool impair_ = false;
  emu::FrontEnd::Config impair_config_;
  std::vector<Op> ops_;
};

/// The canned mixed-protocol scenario family behind `rfdump_cli --selftest`
/// and the differential-oracle seed sweep. Not hand-listed: every registered
/// core::ProtocolBundle with a canned_traffic hook contributes one session
/// (802.11b pings, a Bluetooth l2ping session, LIFS-spaced ZigBee reports,
/// BLE advertising events, ...) in ascending protocol-id order — every
/// protocol the demodulator bank covers, ~0.2 s of ether per seed.
[[nodiscard]] RenderedScenario CannedMixedScenario(std::uint64_t seed);

}  // namespace rfdump::testing
