#pragma once
// Phase-based protocol-specific detectors (paper §3.3/§4.5).
//
// The protocol-agnostic computation is one arctan per sample: instantaneous
// phase, its first derivative (frequency offset => channel) and second
// derivative (zero for continuous-phase GFSK). Protocol-specific checks are
// cheap functions of these:
//  * GFSK (Bluetooth): d2(phase) ~ 0 over the burst; d1 gives the channel.
//  * DBPSK/Barker (802.11b): the 11:8 chip-to-sample ratio yields a fixed
//    per-symbol pattern of phase flips; a precomputed 8-sample pattern is
//    correlated against the received phase-change stream — the same trick
//    the paper borrowed from the BBN ADROIT decoder.
//  * PSK order classification via a phase-change histogram (Figure 4).

#include <array>
#include <cstdint>
#include <optional>

#include "rfdump/core/detections.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/dsp/types.hpp"

namespace rfdump::core {

/// Protocol-agnostic phase statistics of (a prefix of) a burst.
struct PhaseInfo {
  float mean_d1 = 0.0f;       // mean phase step per sample (radians)
  float mean_abs_d2 = 0.0f;   // mean |second difference|
  float frac_small_d2 = 0.0f; // fraction of samples with |d2| < 0.25 rad
  std::size_t samples_used = 0;
};

/// Computes phase statistics over up to `max_samples` samples of `x`,
/// optionally smoothing with a boxcar of `smooth` samples first (narrowband
/// signals benefit; 0/1 = no smoothing).
[[nodiscard]] PhaseInfo ComputePhaseInfo(dsp::const_sample_span x,
                                         std::size_t max_samples = 2048,
                                         std::size_t smooth = 1);

/// GFSK / Bluetooth phase detector. Stateless: every verdict is a function
/// of one peak and its samples alone.
class GfskPhaseDetector {
 public:
  /// What the phase test finds in a GFSK burst.
  struct Match {
    int channel = -1;            // visible-channel index [0, 8)
    float frac_small_d2 = 0.0f;  // continuous-phase fraction
  };

  /// Checks one peak; `samples` is the peak's sample range. Tags exactly
  /// the peaks Classify() matches.
  [[nodiscard]] std::optional<Detection> OnPeak(
      const Peak& peak, dsp::const_sample_span samples) const;

  /// The test behind OnPeak: the burst's channel (from the frequency offset
  /// its first phase derivative implies) and continuous-phase fraction, or
  /// nullopt when the peak is no GFSK burst on a visible channel.
  [[nodiscard]] static std::optional<Match> Classify(
      const Peak& peak, dsp::const_sample_span samples);
};

/// 802.11b DBPSK/Barker phase-pattern detector. Stateless apart from its
/// fixed Config: every verdict is a function of one peak and its samples.
///
/// Scans the burst in 16-symbol windows and tags the prefix that matches the
/// Barker chipping pattern. A 1/2 Mbps frame matches end to end (Barker
/// spreading covers the whole frame); a CCK (5.5/11 Mbps) frame only matches
/// through its 1 Mbps PLCP preamble + header, so just that prefix is
/// forwarded — the selectivity behaviour the paper's Table 4 measures.
class DbpskPhaseDetector {
 public:
  struct Config {
    /// Sampling optimization (paper 3.1, unimplemented there): during the
    /// prefix scan, examine only every k-th window. Cuts phase-detection cost
    /// ~k x for long bursts at the price of k-window boundary resolution.
    std::size_t scan_stride_windows = 1;
  };

  DbpskPhaseDetector();
  explicit DbpskPhaseDetector(Config config);

  [[nodiscard]] std::optional<Detection> OnPeak(
      const Peak& peak, dsp::const_sample_span samples) const;

  /// True when the pattern holds over the whole peak, not just up to the
  /// 512-symbol scan cap. Only meaningful for a peak whose OnPeak tag
  /// already reaches the peak end: the window scan resumes where that capped
  /// scan stopped instead of starting again at the peak start.
  [[nodiscard]] bool MatchesWholePeak(dsp::const_sample_span samples) const;

  /// Correlation score of the first window of `samples`, the one OnPeak
  /// gates on (0 for a burst shorter than three symbols).
  [[nodiscard]] static float FirstWindowScore(dsp::const_sample_span samples);

  /// Best pattern-correlation over the 8 alignments of one window, |sum| of
  /// the aligned products over the sum of their magnitudes.
  [[nodiscard]] static float WindowScore(dsp::const_sample_span window);

 private:
  /// Extends a matched prefix [0, matched_end) window by window while the
  /// windows keep matching, until it reaches `limit`; returns the new end.
  [[nodiscard]] std::size_t ExtendMatch(dsp::const_sample_span samples,
                                        std::size_t matched_end,
                                        std::size_t limit) const;

  Config config_;
};

/// Expected per-sample phase-flip pattern (+1 keep / -1 flip; 0 for the
/// data-dependent symbol-boundary slot) of Barker-11 chipping observed at
/// 8 Msps. Exposed for tests.
[[nodiscard]] std::array<float, 8> BarkerPhaseFlipPattern();

/// Classifies the PSK order of a burst from the phase-change histogram:
/// returns 2 (BPSK-like: two opposite phase-change clusters), 4 (QPSK-like)
/// or 0 (neither). `sps` is samples per symbol.
[[nodiscard]] int ClassifyPskOrder(dsp::const_sample_span x, std::size_t sps,
                                   std::size_t max_symbols = 256);

}  // namespace rfdump::core
