#pragma once
// Self-registering protocol bundle registry — the single seam every
// protocol-generic layer enumerates instead of hand-listing PHY families.
//
// A ProtocolBundle packages everything the monitor needs to host one
// protocol: its feature-table rows (paper Table 2), a detector factory for
// the cheap Detect() stage, an analysis plan + a demodulation unit that
// returns its decoded events (plain data, no closure) for the expensive
// AnalyzeDetections() stage, scenario-DSL traffic hooks, oracle
// scoring membership, differential-harness membership, and a fuzz entry
// point. Bundles self-register from their translation unit at static-init
// time (see src/core/bundles/); the pipeline fan-out, result sinks, the
// scenario DSL, the oracle, the four-architecture differential harness and
// the fuzz corpus runner all discover protocols by enumerating the registry,
// so adding a protocol is one new bundle TU — no edits to those layers.
// DESIGN.md §15 documents the contract.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rfdump/core/detections.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/protocols.hpp"
#include "rfdump/dsp/types.hpp"

namespace rfdump::emu {
class Ether;
}  // namespace rfdump::emu

namespace rfdump::util {
class WorkBudget;
class Xoshiro256;
}  // namespace rfdump::util

namespace rfdump::core {

struct AnalysisConfig;   // pipeline.hpp
struct MonitorReport;    // pipeline.hpp

/// One decoded transmission, protocol-tagged — the only decode result type
/// (MonitorReport::events, ResultSink::OnEvent). Every generic layer (sinks,
/// oracle, differential, net fusion, pcap export) consumes it.
struct ProtocolEvent {
  Protocol protocol = Protocol::kUnknown;
  std::int64_t start_sample = 0;
  std::int64_t end_sample = 0;          // one past the last sample
  int channel = -1;                     // protocol channel index, -1 if n/a
  bool crc_ok = false;                  // frame check (FCS/CRC/HEC) passed
  std::vector<std::uint8_t> payload;    // decoded payload / PDU bytes
  /// Protocol-defined header word, rendered by the bundle's describe():
  ///   802.11:    bits 0-7 PLCP SIGNAL rate code, bit 8 payload decoded;
  ///   Bluetooth: bits 0-23 LAP, bits 24-27 packet type;
  ///   others:    0.
  std::uint32_t header = 0;
};

/// Detector hooks for one protocol, created fresh per Detect() call. They
/// come in two families, and the pipeline's timing_detectors and
/// phase_detectors switches each turn one family off (DESIGN.md §15). Any
/// hook may be empty.
struct ProtocolDetectors {
  /// Timing family: a batch hook over each chunk's freshly completed peaks,
  /// in capture order. Stateful across batches within one Detect() call.
  std::function<std::vector<Detection>(std::span<const Peak>)> on_peaks;
  /// Phase family: a per-peak hook over the peak's clamped sample range. A
  /// pure function of that one peak and its samples, so its tags do not
  /// depend on which peaks it saw before.
  std::function<std::optional<Detection>(const Peak&, dsp::const_sample_span)>
      on_peak;
  /// Phase family: whole-peak claim over a peak's clamped sample range,
  /// pure like on_peak. True when this protocol's phase evidence holds over
  /// the entire peak. The pipeline asks it only about a peak that this
  /// bundle's on_peak tag covers to the peak end and that carries another
  /// protocol's timing tag unconfirmed by that protocol's own on_peak; a
  /// claimed peak's timing tag is not dispatched (DESIGN.md §15, "The
  /// dispatch veto").
  std::function<bool(dsp::const_sample_span)> claims_peak;
};

/// How the analysis stage fans an interval tagged with this protocol out
/// into supervised task units.
struct AnalysisPlan {
  /// Number of independent demodulation units per interval. Negative means
  /// the interval is skipped entirely (no supervision boundary is opened).
  int units = -1;
  /// Stop launching units once the interval's work budget has expired
  /// (multi-channel scans charge the shared budget per channel).
  bool check_budget = false;
};

/// Inputs to one analysis unit. `span` is the dispatched interval rebased to
/// offset 0; decode results must be rebased by `start_sample` before commit.
struct AnalysisUnitContext {
  dsp::const_sample_span span;
  std::int64_t start_sample = 0;
  const AnalysisConfig* analysis = nullptr;
  double noise_floor_power = 1.0;
  /// The interval's supervised deadline; null (unsupervised) = unlimited.
  util::WorkBudget* budget = nullptr;
};

/// One unit's result: its decoded events, already rebased to capture
/// sample positions. run_unit executes on a worker thread; the pipeline
/// appends the events single-threaded in deterministic submission order,
/// which is what keeps parallel analysis bit-identical to serial.
struct AnalysisCommit {
  std::vector<ProtocolEvent> events;

  /// True when the unit decoded anything.
  explicit operator bool() const noexcept { return !events.empty(); }
  /// Moves the events onto the end of report.events.
  void operator()(MonitorReport& report);
};

/// Everything one protocol contributes to the monitor. All hooks are
/// optional; a bundle that only wants feature-table membership registers
/// with every std::function empty.
struct ProtocolBundle {
  Protocol protocol = Protocol::kUnknown;
  /// Display name (ProtocolName() derives from this), e.g. "802.11b".
  const char* name = "";
  /// CLI token for --protocols, e.g. "wifi".
  const char* cli_name = "";
  /// Feature-table rows (paper Table 2) contributed by this protocol.
  std::vector<ProtocolFeatures> features;

  /// Member of the default bundle mask (DefaultBundleMask()). The default
  /// set is also what the streaming monitor keeps at shed stage 1: every
  /// other bundle is optional and shed first.
  bool default_enabled = true;
  /// Naive architectures demodulate this protocol over the full capture
  /// (and tag its intervals from the energy gate). The four-architecture
  /// differential harness diffs exactly these protocols: it compares the
  /// naive architectures against RFDump, so it needs the naive ones to host
  /// the protocol.
  bool naive_member = false;
  /// The conformance oracle scores precision/recall for this protocol.
  bool oracle_scored = false;
  /// Order of this bundle's detector hooks within Detect() (ascending).
  /// Distinct from the protocol id so the historical detector call order is
  /// preserved exactly (microwave timing runs before zigbee timing).
  int detect_rank = 0;

  /// Detector factory for the cheap Detect() stage: builds every hook the
  /// bundle has; the pipeline drops the families its switches turn off.
  std::function<ProtocolDetectors()> make_detectors;
  /// Fan-out shape of the analysis stage for this protocol's intervals.
  std::function<AnalysisPlan(const AnalysisConfig&)> analysis_plan;
  /// One demodulation unit (invoked units times per interval, possibly
  /// concurrently): returns the unit's rebased events.
  std::function<AnalysisCommit(const AnalysisUnitContext&, int unit)> run_unit;
  /// Renders one of this protocol's events as the CLI's listing text: the
  /// protocol column, then e.g. rate, MAC kind and addresses for 802.11.
  /// Empty = the generic "channel, length, crc" line.
  std::function<std::string(const ProtocolEvent&)> describe;

  /// Scenario-DSL hook: this protocol's traffic op in the canned mixed
  /// scenario. Receives the ether, the op's start sample and the builder's
  /// SNR offset; returns the end sample of the generated session. Empty =
  /// not part of the canned mix.
  std::function<std::int64_t(emu::Ether&, std::int64_t, double)>
      canned_traffic;
  /// Fixed start sample for the canned op; negative = auto-stagger.
  std::int64_t canned_at = -1;

  /// Fuzz entry point. fuzz_run receives the whole input (first byte is the
  /// mode selector by convention) and returns the number of successful
  /// decodes. Null fuzz_name = no fuzz target.
  const char* fuzz_name = nullptr;
  /// Corpus directory name under tests/corpus/, e.g. "phyble_adv".
  const char* fuzz_corpus_dir = nullptr;
  std::function<int(std::span<const std::uint8_t>, util::WorkBudget*)>
      fuzz_run;
  /// Generates the i-th seed-corpus input (deterministic given rng state).
  std::function<std::vector<std::uint8_t>(std::size_t, util::Xoshiro256&)>
      fuzz_seed_input;
};

static_assert(kProtocolCount <= 32,
              "bundle masks are 32-bit; widen them before adding protocol 33");

/// Bit for one protocol in a bundle mask.
[[nodiscard]] constexpr std::uint32_t BundleBit(Protocol p) {
  return 1u << static_cast<unsigned>(p);
}

/// Process-wide bundle registry. Bundles register during static
/// initialization (single-threaded, before main); enumeration happens at
/// run time, after all registrations.
class ProtocolRegistry {
 public:
  static ProtocolRegistry& Instance();

  /// Registers a bundle. Rejects (returns false, registry unchanged) a
  /// bundle whose protocol id, display name or CLI name collides with an
  /// already-registered bundle, or whose protocol id is kUnknown or outside
  /// [1, kProtocolCount).
  bool Register(ProtocolBundle bundle);

  /// All bundles in ascending protocol-id order — deterministic regardless
  /// of translation-unit registration order.
  [[nodiscard]] std::span<const ProtocolBundle> bundles() const;

  /// Bundle for one protocol, or nullptr.
  [[nodiscard]] const ProtocolBundle* Find(Protocol p) const;

  /// Bundle whose cli_name matches, or nullptr.
  [[nodiscard]] const ProtocolBundle* FindCli(std::string_view cli_name) const;

  /// Mask of default-enabled bundles.
  [[nodiscard]] std::uint32_t DefaultMask() const;

  /// Startup consistency check: registered ids are dense in
  /// [1, kProtocolCount), names are unique and non-empty, and each feature
  /// row is tagged with its bundle's protocol. Throws std::logic_error on
  /// desync (a bundle added without bumping kProtocolCount, or vice versa).
  void CheckConsistency() const;

 private:
  ProtocolRegistry() = default;
  std::vector<ProtocolBundle> bundles_;
};

/// Convenience: mask of default-enabled bundles.
[[nodiscard]] std::uint32_t DefaultBundleMask();

/// Registration helper for bundle TUs:
///   static const bool registered =
///       RegisterProtocolBundle(MakeWifiBundle());
[[nodiscard]] bool RegisterProtocolBundle(ProtocolBundle bundle);

}  // namespace rfdump::core
