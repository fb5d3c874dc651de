#pragma once
// Protocol-agnostic peak detection with integrated energy filtering — the
// first stage of the RFDump detection pipeline (paper §4.2/§4.3).
//
// The sample stream is processed in 200-sample (25 us) chunks. For each chunk
// the detector first checks the average energy of the trailing window; only
// if that exceeds the gate (noise floor + 4 dB) is the chunk examined
// sample-by-sample with a 20-sample (2.5 us) moving average to find precise
// peak boundaries (refined with an instantaneous-magnitude threshold). Each
// chunk hands its caller the peaks it finished; the protocol-specific
// detectors consume them and keep whatever state they need themselves.

#include <cstdint>
#include <span>
#include <vector>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/types.hpp"

namespace rfdump::core {

/// Fixed chunk size: 200 samples = 25 us at 8 Msps.
inline constexpr std::size_t kChunkSamples = 200;
/// Energy averaging window: 20 samples = 2.5 us (half of the shortest timing
/// feature we must resolve, the 10 us SIFS).
inline constexpr std::size_t kAveragingWindow = 20;
/// Energy gate: 4 dB above the noise floor.
inline constexpr double kEnergyGateDb = 4.0;

/// One detected RF transmission (a "peak").
struct Peak {
  std::int64_t start_sample = 0;
  std::int64_t end_sample = 0;    // one past the last sample
  float mean_power = 0.0f;        // average power over the peak
  float peak_power = 0.0f;        // maximum windowed power seen

  [[nodiscard]] std::int64_t length() const {
    return end_sample - start_sample;
  }
};

/// What one chunk produced: the peaks it finished, in completion order, and
/// whether the energy gate skipped its per-sample pass. `completed` points
/// into the detector and stays valid until its next PushChunk or Flush.
struct ChunkMeta {
  std::span<const Peak> completed;
  bool gated_out = false;  // failed the energy gate, skipped
};

/// Streaming peak detector.
class PeakDetector {
 public:
  struct Config {
    double noise_floor_power = 1.0;  // known noise power (emulator default)
    double gate_db = kEnergyGateDb;
    std::size_t averaging_window = kAveragingWindow;
  };

  PeakDetector();
  explicit PeakDetector(Config config);

  /// Processes one chunk beginning at absolute sample `start_sample`: fills
  /// the detector's own power plane (FinitePower per sample) for the chunk,
  /// then runs the gate and the per-sample pass over it. Chunks must be fed
  /// in order. Returns the peaks the chunk finished.
  ChunkMeta PushChunk(dsp::const_sample_span chunk, std::int64_t start_sample);

  /// Closes any open peak at end of stream and returns it (empty if none
  /// was open); valid until the next PushChunk or Flush.
  std::span<const Peak> Flush();

  const Config& config() const { return config_; }

  /// Linear power threshold of the energy gate.
  [[nodiscard]] double GatePower() const;

 private:
  void ProcessSamples(std::span<const float> power, std::int64_t start);
  void ClosePeak(std::int64_t end);

  Config config_;
  dsp::MovingAveragePower avg_;
  bool in_peak_ = false;
  Peak open_peak_;
  double open_power_sum_ = 0.0;
  std::int64_t below_since_ = -1;  // first sample the average fell below gate
  std::int64_t last_strong_ = -1;  // last sample clearly above the gate
  std::int64_t last_sample_ = 0;   // last absolute sample index processed
  std::vector<Peak> completed_;  // peaks finished by the current call
  std::vector<float> plane_;     // the current chunk's power plane; the only
                                 // copy of |x|^2 the detect stage keeps
};

/// Every peak of `x`, fed in kChunkSamples chunks from sample 0 and flushed,
/// in completion order.
[[nodiscard]] std::vector<Peak> DetectPeaks(dsp::const_sample_span x,
                                            PeakDetector::Config config = {});

}  // namespace rfdump::core
