#pragma once
// Collision detection — the paper's stated future work (§5.1.5: "we have not
// incorporated collision detection in our detectors yet", so colliding
// packets count as misses). This extension detects overlapping transmissions
// from the power profile of a peak: when a second transmitter starts or
// stops mid-burst, the windowed power takes a sustained step. A peak with
// such steps is flagged as a collision and split into homogeneous segments
// so that the non-overlapped parts can still be classified.

#include <cstdint>
#include <vector>

#include "rfdump/core/detections.hpp"
#include "rfdump/core/peaks.hpp"

namespace rfdump::core {

/// A collision verdict for one peak.
struct CollisionInfo {
  bool collided = false;
  /// Sample indices (absolute) where the power profile steps; the peak is
  /// homogeneous between consecutive boundaries.
  std::vector<std::int64_t> boundaries;
  /// Segments [start, end) with near-constant power, strongest first removed;
  /// equal to the whole peak when no collision is present.
  std::vector<Peak> segments;
};

class CollisionDetector {
 public:
  /// Analyzes one peak's samples. `peak.start_sample` anchors the absolute
  /// positions in the result.
  [[nodiscard]] CollisionInfo Analyze(const Peak& peak,
                                      dsp::const_sample_span samples) const;

  /// Convenience: a Detection tagging the collided span (protocol unknown),
  /// or nothing if no collision was found.
  [[nodiscard]] std::vector<Detection> OnPeak(
      const Peak& peak, dsp::const_sample_span samples) const;
};

}  // namespace rfdump::core
