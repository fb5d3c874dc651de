#pragma once
// Protocol-agnostic peak detection with integrated energy filtering — the
// first stage of the RFDump detection pipeline (paper §4.2/§4.3).
//
// The sample stream is processed in 200-sample (25 us) chunks. For each chunk
// the detector first checks the average energy of the trailing window; only
// if that exceeds the gate (noise floor + 4 dB) is the chunk examined
// sample-by-sample with a 20-sample (2.5 us) moving average to find precise
// peak boundaries (refined with an instantaneous-magnitude threshold). The
// result is per-chunk metadata plus a shared history of recent peaks that all
// protocol-specific detectors reuse.

#include <cstdint>
#include <deque>
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

/// Per-chunk metadata handed to the protocol-specific detectors: aggregate
/// information plus (via PeakDetector) access to the shared peak history.
struct ChunkMeta {
  std::int64_t start_sample = 0;
  std::size_t n_samples = 0;
  float window_power = 0.0f;   // trailing-window average power
  bool gated_out = false;      // failed the energy gate, skipped
  std::uint32_t peaks_completed = 0;  // peaks that ended in this chunk
};

/// Streaming peak detector.
class PeakDetector {
 public:
  struct Config {
    double noise_floor_power = 1.0;  // known noise power (emulator default)
    double gate_db = kEnergyGateDb;
    std::size_t averaging_window = kAveragingWindow;
    std::size_t history_capacity = 4096;
  };

  PeakDetector();
  explicit PeakDetector(Config config);

  /// Processes one chunk beginning at absolute sample `start_sample`.
  /// Chunks must be fed in order. Returns the chunk's metadata.
  ChunkMeta PushChunk(dsp::const_sample_span chunk, std::int64_t start_sample);

  /// Same, with the chunk's power plane (FinitePower per sample) already
  /// computed — the block pipeline computes it once per chunk and shares it.
  /// `power.size()` must equal `chunk.size()`.
  ChunkMeta PushChunk(dsp::const_sample_span chunk,
                      std::span<const float> power, std::int64_t start_sample);

  /// Flushes any open peak at end of stream.
  void Flush();

  /// Completed peaks in chronological order (bounded ring; oldest evicted).
  const std::deque<Peak>& history() const { return history_; }

  /// Completed peaks whose index is >= `from` in completion order; use
  /// CompletedCount() to track a cursor across PushChunk calls.
  [[nodiscard]] std::uint64_t CompletedCount() const { return completed_; }
  [[nodiscard]] std::vector<Peak> CompletedSince(std::uint64_t cursor) const;

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
  std::deque<Peak> history_;
  std::uint64_t completed_ = 0;
  std::vector<float> plane_;  // reusable per-chunk power plane
};

}  // namespace rfdump::core
