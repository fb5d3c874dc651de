#pragma once
// The three monitoring architectures evaluated in the paper (§2, §5.2):
//
//  * NaivePipeline            — Figure 1: every sample goes to every
//                               demodulator (1 x 802.11 + 8 x Bluetooth).
//  * NaivePipeline + energy   — an energy gate before all demodulators.
//  * RFDumpPipeline           — Figure 2: protocol-agnostic peak detection,
//                               cheap protocol-specific detectors on metadata,
//                               demodulators only on tagged sample ranges.
//
// Each pipeline reports what it found plus a per-stage cost table
// (StageCosts), which is what the Table 1 / Figure 9 benches print.

#include <array>
#include <cstdint>
#include <vector>

#include "rfdump/core/collision.hpp"
#include "rfdump/core/detections.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/supervisor.hpp"

namespace rfdump::core {

class Executor;    // core/executor.hpp — analysis-stage execution engine
class ResultSink;  // core/result_sink.hpp — unified result emission

/// Slot of the per-stage cost table: the detect stages, then one analysis
/// slot per protocol id (AnalysisStage()).
enum class Stage : std::uint8_t {
  kHealth, kPeak, kEnergy, kTiming, kPhase, kFreq, kCollision,
  kAnalysis,  // first analysis slot (Protocol::kUnknown)
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kAnalysis) + kProtocolCount;

/// Analysis slot of one protocol.
[[nodiscard]] constexpr Stage AnalysisStage(Protocol p) {
  return static_cast<Stage>(static_cast<std::size_t>(Stage::kAnalysis) +
                            static_cast<std::size_t>(p));
}

/// Metric label and trace span name of a stage: "detect/peak", ...,
/// "analysis/" + the bundle's cli_name (e.g. "analysis/bt").
[[nodiscard]] const char* StageName(Stage s);

/// Steady-clock wall time and input samples charged to one stage.
struct StageSlot {
  std::uint64_t wall_ns = 0;
  std::uint64_t samples = 0;

  StageSlot& operator+=(const StageSlot& o) {
    wall_ns += o.wall_ns;
    samples += o.samples;
    return *this;
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(wall_ns) * 1e-9;
  }
  /// True once any scope charged this stage.
  [[nodiscard]] bool charged() const { return wall_ns != 0 || samples != 0; }
};

/// Per-stage cost table (the paper's Table 1 / Fig 9 evidence): one fixed
/// slot per Stage, merged element-wise, so accumulating it never allocates.
class StageCosts {
 public:
  StageSlot& operator[](Stage s) { return slots_[static_cast<std::size_t>(s)]; }
  const StageSlot& operator[](Stage s) const {
    return slots_[static_cast<std::size_t>(s)];
  }
  StageCosts& operator+=(const StageCosts& o) {
    for (std::size_t i = 0; i < kStageCount; ++i) slots_[i] += o.slots_[i];
    return *this;
  }
  /// Summed wall time of every slot.
  [[nodiscard]] double Seconds() const {
    std::uint64_t ns = 0;
    for (const StageSlot& s : slots_) ns += s.wall_ns;
    return static_cast<double>(ns) * 1e-9;
  }
  /// Calls fn(stage, slot) for every slot in table order.
  template <typename F>
  void ForEach(F&& fn) const {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      fn(static_cast<Stage>(i), slots_[i]);
    }
  }

 private:
  std::array<StageSlot, kStageCount> slots_{};
};

/// Front-end / processing health for one block of stream. Produced once per
/// RFDumpPipeline::Process call (input-quality fields) and once per
/// StreamingMonitor block (all fields). A real front-end produces overruns,
/// saturation and corrupt buffers as a matter of course; the monitor must
/// account for them rather than silently decode garbage.
struct HealthReport {
  std::int64_t block_start = 0;        // absolute stream index of the block
  std::uint64_t block_samples = 0;
  std::uint32_t gap_count = 0;         // stream discontinuities since the
  std::int64_t gap_samples = 0;        //   previous report, and samples lost
  std::int64_t overlap_samples = 0;    // duplicated input discarded on ingest
  std::uint64_t sanitized_samples = 0; // non-finite samples zeroed on ingest
  std::uint64_t nonfinite_samples = 0; // non-finite samples that reached the
                                       //   pipeline (0 once sanitized)
  double saturation_fraction = 0.0;    // fraction of samples at the ADC rail
  int shed_stage = 0;                  // 0 = full pipeline .. 3 = detect-only
  double block_load = 0.0;             // CPU/real-time for this block
  // Dispatch decisions for this block (all protocols; the per-protocol
  // split lives in the obs metrics registry, DESIGN.md §8):
  std::uint64_t tagged_detections = 0;    // passed the confidence floor
  std::uint64_t rejected_detections = 0;  // below the confidence floor
  std::uint64_t vetoed_detections = 0;    // timing tags withheld by the
                                          //   dispatch veto (DESIGN.md §15)
  std::uint64_t forwarded_intervals = 0;  // merged intervals sent to analysis
  // Supervision outcomes for this block (filled by the streaming monitor
  // from Supervisor::counts() deltas; see DESIGN.md §9):
  std::uint64_t supervised_intervals = 0;  // analysis invocations attempted
  std::uint64_t deadline_intervals = 0;    // aborted on WorkBudget expiry
  std::uint64_t exception_intervals = 0;   // demodulator threw (contained)
  std::uint64_t skipped_intervals = 0;     // circuit breaker open
  std::uint64_t quarantined_intervals = 0; // failures recorded for replay
  std::uint32_t breaker_trips = 0;         // breakers tripped this block
  int open_breakers = 0;                   // breakers not closed at block end
};

/// Everything a pipeline produced for one capture.
struct MonitorReport {
  std::vector<Detection> detections;   // raw detector output (RFDump only)
  std::vector<Detection> dispatched;   // merged intervals sent to analysis
  /// Every decode, grouped by protocol id in registry order and sorted by
  /// start sample within a protocol.
  std::vector<ProtocolEvent> events;
  StageCosts costs;
  std::vector<HealthReport> health;    // input-quality scan(s), see above
  std::uint64_t samples_total = 0;

  /// Summed stage time / real time of the capture (the paper's efficiency
  /// metric, Fig 9).
  [[nodiscard]] double CpuOverRealTime() const;
};

/// Shared demodulator bank configuration.
struct AnalysisConfig {
  bool demodulate = true;      // false: detection only (Fig 9 "no demod")
  int bt_demods = 8;           // one per visible Bluetooth channel
  std::uint8_t bt_uap = 0x47;  // UAP known to the monitor (see DESIGN.md)
  /// Registry bundles whose intervals the analysis stage will demodulate
  /// (bit = BundleBit(protocol)). Defaults to all-on: the detect stage's
  /// bundle mask already decides which protocols get tagged and dispatched,
  /// so analysis follows detection unless a bundle is disabled here too.
  std::uint32_t bundle_mask = 0xFFFFFFFFu;
  /// Detections below this confidence are still reported but not dispatched
  /// to demodulators. 0 dispatches everything; the streaming monitor's
  /// load-shedding controller raises it under overload (paper §2.2: when the
  /// monitor cannot keep up, demodulate the confident tags first).
  float min_dispatch_confidence = 0.0f;
};

/// Product of a pipeline's detection stages (health scan, peak detection,
/// protocol detectors, dispatch): everything up to — but not including —
/// demodulation, plus the parameters the analysis stage needs. The split
/// exists so the streaming monitor can run detection of block N+1 while
/// block N is still in analysis (DESIGN.md §10); Process() is simply
/// AnalyzeDetections(Detect(x), x, ...).
struct DetectOutput {
  /// detections / dispatched / health and the detect-stage costs are
  /// filled; the analysis result vectors are still empty.
  MonitorReport report;
  /// Snapshot of the analysis parameters at detection time (the streaming
  /// monitor's shed controller may reconfigure the pipeline between blocks,
  /// so the block analyzed later must use the config it was detected with).
  AnalysisConfig analysis;
  double noise_floor_power = 1.0;
  Supervisor* supervisor = nullptr;  // non-owning, may be null
};

/// Runs the demodulator bank over `det.report.dispatched` and returns the
/// completed report. `x` must be the same span Detect() saw. Each interval x
/// analysis unit is one task of an Executor::Batch (inline for a null or
/// serial `executor`); result slots merge in submission order, so the
/// result-bearing report fields are identical at every width. Sibling units
/// always run to completion; unsupervised, the first failing unit in
/// submission order rethrows. `sink`, when set, receives every report entry
/// (health first, then detections, then events) after analysis completes.
[[nodiscard]] MonitorReport AnalyzeDetections(DetectOutput det,
                                              dsp::const_sample_span x,
                                              Executor* executor = nullptr,
                                              ResultSink* sink = nullptr);

/// RFDump architecture (Figure 2).
class RFDumpPipeline {
 public:
  struct Config {
    bool timing_detectors = true;   // 802.11 SIFS/DIFS + BT slot timing
    bool phase_detectors = true;    // DBPSK pattern + GFSK
    bool freq_detector = false;     // FFT-based BT detector (off by default,
                                    // like the paper's prototype)
    /// Collision detection (paper future work): flags peaks whose power
    /// profile steps mid-burst as overlapping transmissions.
    bool collision_detector = false;
    /// Registry bundles whose detectors run and whose detections are
    /// dispatched (bit = BundleBit(protocol)) — the one protocol on/off
    /// switch. Defaults to the registry's default-enabled set (802.11 and
    /// Bluetooth); opt-in bundles (ZigBee, microwave, BLE advertising) are
    /// enabled via EnableBundle().
    std::uint32_t bundle_mask = DefaultBundleMask();
    double noise_floor_power = 1.0;
    /// The input health scan, which always runs before detection, reports
    /// non-finite and saturated samples via MonitorReport::health. |I| or
    /// |Q| at or above ~this amplitude counts as saturated (matches the
    /// emulator's default ADC full scale). 0 disables the saturation count.
    float saturation_amplitude = 64.0f;
    AnalysisConfig analysis;
    /// Supervision layer (non-owning; DESIGN.md §9). When set, every
    /// detector call is exception-contained and every dispatched interval's
    /// analysis runs under a stage boundary: armed WorkBudget deadline,
    /// throw containment, per-protocol circuit breaker, quarantine. Null
    /// (the batch-experiment default) preserves unsupervised semantics. The
    /// streaming monitor always wires its own supervisor here.
    Supervisor* supervisor = nullptr;
    /// Analysis-stage execution engine (non-owning; DESIGN.md §10). Null or
    /// Executor(1): serial inline analysis, the historical behaviour. A
    /// wider executor parallelises demodulation with a deterministic
    /// ordered merge — result-bearing report fields are bit-identical.
    Executor* executor = nullptr;
    /// Optional live consumer: Process() emits every report entry into the
    /// sink after analysis (non-owning; see core/result_sink.hpp).
    ResultSink* sink = nullptr;

    /// Enables one registry bundle (sets its bundle_mask bit).
    void EnableBundle(Protocol p) { bundle_mask |= BundleBit(p); }
  };

  RFDumpPipeline();
  explicit RFDumpPipeline(Config config);

  /// Processes a full capture (one-shot batch over a recorded trace, the
  /// paper's experimental mode). Equivalent to
  /// AnalyzeDetections(Detect(x), x, config().executor, config().sink).
  [[nodiscard]] MonitorReport Process(dsp::const_sample_span x);

  /// Detection stages only (no demodulation); feed the result to
  /// AnalyzeDetections(). Stateless across calls, so one thread may Detect
  /// block N+1 while another analyzes block N.
  [[nodiscard]] DetectOutput Detect(dsp::const_sample_span x);

  const Config& config() const { return config_; }

 private:
  Config config_;
};

/// Naive architecture (Figure 1), optionally with the energy-detection gate.
class NaivePipeline {
 public:
  struct Config {
    bool energy_gate = false;   // true: "naive with energy detection"
    /// Registry bundles this naive monitor hosts: every naive_member bundle
    /// in the mask gets a full-span interval (pure naive) or per-peak
    /// intervals (energy gate). Same bit layout as RFDumpPipeline's mask.
    std::uint32_t bundle_mask = DefaultBundleMask();
    double noise_floor_power = 1.0;
    AnalysisConfig analysis;

    void EnableBundle(Protocol p) { bundle_mask |= BundleBit(p); }
    /// Same contract as RFDumpPipeline::Config::supervisor.
    Supervisor* supervisor = nullptr;
    /// Same contracts as RFDumpPipeline::Config::{executor, sink}.
    Executor* executor = nullptr;
    ResultSink* sink = nullptr;
  };

  NaivePipeline();
  explicit NaivePipeline(Config config);

  [[nodiscard]] MonitorReport Process(dsp::const_sample_span x);

  /// Detection/gating stages only; same contract as RFDumpPipeline::Detect.
  [[nodiscard]] DetectOutput Detect(dsp::const_sample_span x);

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace rfdump::core
