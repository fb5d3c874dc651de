#include "rfdump/core/collision.hpp"

#include <algorithm>
#include <cmath>

#include "rfdump/dsp/energy.hpp"

namespace rfdump::core {
namespace {

/// Power-profile averaging window (samples).
constexpr std::size_t kWindow = 64;
/// Minimum sustained power step, as a linear ratio. 1.8 catches the common
/// equal-power collision (step = 2.0) with margin for noise.
constexpr double kStepRatio = 1.8;
/// A step must persist for this many samples to count (rejects fades and
/// sub-window blips, which block quantization can smear across two windows).
constexpr std::size_t kPersistence = 256;
/// Segments shorter than this are merged into their neighbour.
constexpr std::size_t kMinSegment = 256;

}  // namespace

CollisionInfo CollisionDetector::Analyze(const Peak& peak,
                                         dsp::const_sample_span samples) const {
  CollisionInfo info;
  const std::size_t w = kWindow;
  if (samples.size() < 2 * w + kPersistence) {
    info.segments.push_back(peak);
    return info;
  }

  // Windowed power profile (one value per window, non-overlapping).
  std::vector<double> profile;
  profile.reserve(samples.size() / w);
  for (std::size_t at = 0; at + w <= samples.size(); at += w) {
    profile.push_back(dsp::MeanPower(samples.subspan(at, w)));
  }

  // Scan for sustained steps: compare the *medians* of the blocks before and
  // after each candidate boundary (persistence/window blocks each side).
  // Medians reject short blips that would drag a mean across the threshold.
  const std::size_t persist_blocks =
      std::max<std::size_t>(kPersistence / w, 2);
  const auto median_of = [&](std::size_t first, std::size_t count) {
    std::vector<double> v(profile.begin() + static_cast<std::ptrdiff_t>(first),
                          profile.begin() +
                              static_cast<std::ptrdiff_t>(first + count));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(count / 2),
                     v.end());
    return v[count / 2];
  };
  std::vector<std::size_t> step_blocks;
  std::size_t last_step = 0;
  for (std::size_t b = persist_blocks; b + persist_blocks < profile.size();
       ++b) {
    const double before = median_of(b - persist_blocks, persist_blocks);
    const double after = median_of(b, persist_blocks);
    const double ratio = (after > before) ? after / std::max(before, 1e-30)
                                          : before / std::max(after, 1e-30);
    // The new level must persist through the END of the after-window too —
    // a short blip raises the nearby blocks but not the final one.
    const double tail = profile[b + persist_blocks - 1];
    const double tail_ratio = (after > before)
                                  ? tail / std::max(before, 1e-30)
                                  : before / std::max(tail, 1e-30);
    if (ratio >= kStepRatio && tail_ratio >= 0.75 * kStepRatio) {
      // Debounce: one boundary per persistence span.
      if (step_blocks.empty() || b - last_step >= persist_blocks) {
        step_blocks.push_back(b);
        last_step = b;
      }
    }
  }

  if (step_blocks.empty()) {
    info.segments.push_back(peak);
    return info;
  }
  info.collided = true;
  // Build segments between boundaries.
  std::vector<std::int64_t> cuts;
  cuts.push_back(peak.start_sample);
  for (std::size_t b : step_blocks) {
    const std::int64_t cut =
        peak.start_sample + static_cast<std::int64_t>(b * w);
    info.boundaries.push_back(cut);
    cuts.push_back(cut);
  }
  cuts.push_back(peak.end_sample);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i + 1] - cuts[i] <
        static_cast<std::int64_t>(kMinSegment)) {
      continue;  // too short to classify on its own
    }
    Peak seg;
    seg.start_sample = cuts[i];
    seg.end_sample = cuts[i + 1];
    const std::size_t off =
        static_cast<std::size_t>(cuts[i] - peak.start_sample);
    const std::size_t len = static_cast<std::size_t>(cuts[i + 1] - cuts[i]);
    if (off + len <= samples.size()) {
      seg.mean_power = static_cast<float>(
          dsp::MeanPower(samples.subspan(off, len)));
      seg.peak_power = seg.mean_power;
    }
    info.segments.push_back(seg);
  }
  if (info.segments.empty()) info.segments.push_back(peak);
  return info;
}

std::vector<Detection> CollisionDetector::OnPeak(
    const Peak& peak, dsp::const_sample_span samples) const {
  std::vector<Detection> out;
  const auto info = Analyze(peak, samples);
  if (info.collided) {
    out.push_back({Protocol::kUnknown, peak.start_sample, peak.end_sample,
                   0.7f, "collision"});
  }
  return out;
}

}  // namespace rfdump::core
