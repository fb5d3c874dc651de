#include "rfdump/core/peaks.hpp"

#include <algorithm>
#include <cmath>

#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/obs/metrics.hpp"

namespace rfdump::core {
namespace {

// Per-chunk metadata extraction is the hottest periodic path in the system
// (one call per 25 us of ether); its counters are single relaxed increments
// against statically-resolved registry entries.
struct ChunkMetrics {
  obs::Counter& chunks =
      obs::Registry::Default().GetCounter("rfdump_peaks_chunks_total");
  obs::Counter& gated =
      obs::Registry::Default().GetCounter("rfdump_peaks_chunks_gated_total");
  obs::Counter& completed =
      obs::Registry::Default().GetCounter("rfdump_peaks_completed_total");
  static ChunkMetrics& Get() {
    static ChunkMetrics m;
    return m;
  }
};

/// Peaks separated by less than this many samples are merged (prevents noise
/// from splitting one packet into several peaks).
constexpr std::size_t kMergeGapSamples = 8;

}  // namespace

PeakDetector::PeakDetector() : PeakDetector(Config{}) {}

PeakDetector::PeakDetector(Config config)
    : config_(config), avg_(config.averaging_window) {}

double PeakDetector::GatePower() const {
  return config_.noise_floor_power * dsp::DbToPower(config_.gate_db);
}

ChunkMeta PeakDetector::PushChunk(dsp::const_sample_span chunk,
                                  std::int64_t start_sample) {
  // Deinterleave the chunk's power once (SIMD power-plane kernel); every
  // per-sample consumer below reads the plane instead of recomputing |x|^2.
  plane_.resize(chunk.size());
  dsp::simd::Active().power_plane(chunk.data(), chunk.size(), plane_.data());
  completed_.clear();
  ChunkMetrics::Get().chunks.Inc();

  // Cheap pre-check: average energy of the trailing window of the chunk. If
  // it is below the gate and no peak is currently open, the whole chunk can
  // be skipped without per-sample work. (The chunk being smaller than the
  // smallest packet of any protocol guarantees a packet cannot hide entirely
  // inside a gated-out chunk between two quiet windows — §4.3.)
  const std::size_t w = std::min(config_.averaging_window, chunk.size());
  double tail_power = 0.0;
  for (std::size_t i = chunk.size() - w; i < chunk.size(); ++i) {
    tail_power += plane_[i];
  }
  tail_power = (w > 0) ? tail_power / static_cast<double>(w) : 0.0;

  if (!in_peak_ && tail_power < GatePower()) {
    ChunkMetrics::Get().gated.Inc();
    // Keep the moving average primed with a cheap summary so a peak starting
    // at the very beginning of the next chunk is still anchored correctly.
    avg_.Reset();
    return {.completed = {}, .gated_out = true};
  }

  ProcessSamples(plane_, start_sample);
  return {.completed = completed_};
}

void PeakDetector::ProcessSamples(std::span<const float> power,
                                  std::int64_t start) {
  // The start edge is refined against the energy gate itself: at the 4 dB
  // gate, noise samples exceed half the gate ~28% of the time, which would
  // pull starts spuriously early; the full gate keeps that to ~8% while
  // still catching the true rise.
  const double gate = GatePower();
  for (std::size_t i = 0; i < power.size(); ++i) {
    const std::int64_t n = start + static_cast<std::int64_t>(i);
    const float p = power[i];
    const float avg = avg_.Push(p);
    if (!in_peak_) {
      if (avg_.Count() >= config_.averaging_window / 2 && avg > gate) {
        in_peak_ = true;
        // Refine the start: the averaging window lags the true rising edge;
        // pull the start back to the first sample in the window that exceeds
        // the instantaneous threshold (approximated by the window span).
        std::int64_t refined =
            n - static_cast<std::int64_t>(avg_.Count()) + 1;
        // Walk forward while below the instantaneous threshold.
        const std::int64_t window_start =
            std::max<std::int64_t>(refined, start);
        for (std::int64_t m = window_start; m <= n; ++m) {
          const float ip = power[static_cast<std::size_t>(m - start)];
          if (ip > gate) {
            refined = m;
            break;
          }
        }
        open_peak_ = Peak{};
        open_peak_.start_sample = std::max<std::int64_t>(refined, 0);
        open_peak_.peak_power = avg;
        open_power_sum_ = 0.0;
        below_since_ = -1;
        last_strong_ = n;
      }
    } else {
      open_peak_.peak_power = std::max(open_peak_.peak_power, avg);
      // Track the true falling edge: the averaging window lags the signal by
      // up to its full length, so the peak end is refined to the last sample
      // whose instantaneous power is clearly signal, not noise.
      if (p > std::max(gate, 0.25 * open_peak_.peak_power)) {
        last_strong_ = n;
      }
      if (avg < gate) {
        if (below_since_ < 0) below_since_ = n;
        // End the peak once the average has stayed below the gate for a
        // merge-gap's worth of samples.
        if (n - below_since_ >=
            static_cast<std::int64_t>(kMergeGapSamples)) {
          ClosePeak(below_since_);
        }
      } else {
        below_since_ = -1;
      }
    }
    if (in_peak_) open_power_sum_ += p;
    last_sample_ = n;
  }
}

void PeakDetector::ClosePeak(std::int64_t end) {
  in_peak_ = false;
  if (last_strong_ >= 0) end = std::min(end, last_strong_ + 1);
  open_peak_.end_sample = std::max(end, open_peak_.start_sample + 1);
  const auto len = static_cast<double>(open_peak_.length());
  open_peak_.mean_power =
      static_cast<float>(open_power_sum_ / std::max(len, 1.0));
  completed_.push_back(open_peak_);
  ChunkMetrics::Get().completed.Inc();
  below_since_ = -1;
}

std::span<const Peak> PeakDetector::Flush() {
  completed_.clear();
  if (in_peak_) {
    ClosePeak(below_since_ > 0 ? below_since_ : last_sample_ + 1);
  }
  return completed_;
}

std::vector<Peak> DetectPeaks(dsp::const_sample_span x,
                              PeakDetector::Config config) {
  PeakDetector det(config);
  std::vector<Peak> peaks;
  for (std::size_t at = 0; at < x.size(); at += kChunkSamples) {
    const std::size_t n = std::min(kChunkSamples, x.size() - at);
    const auto done =
        det.PushChunk(x.subspan(at, n), static_cast<std::int64_t>(at))
            .completed;
    peaks.insert(peaks.end(), done.begin(), done.end());
  }
  const auto last = det.Flush();
  peaks.insert(peaks.end(), last.begin(), last.end());
  return peaks;
}

}  // namespace rfdump::core
