#pragma once
// Impaired front-end emulation.
//
// emu::Ether renders an ideal composite stream; a real USRP-over-USB capture
// is nothing like ideal. This layer wraps a rendered stream and replays it
// the way a cheap front-end actually delivers it: in bounded driver buffers
// (timestamped segments) with USB-overrun sample drops, occasional duplicate
// buffer deliveries, ADC saturation, DC offset, carrier-frequency drift, and
// NaN/Inf bursts from DMA/driver corruption. Every injected fault is recorded
// in a ground-truth log so robustness tests can score the monitor exactly:
// which gaps it must report, which packets were corrupted, and which frames
// it had an honest chance to decode.
//
// All randomness comes from one seeded Xoshiro256, so a fault scenario is
// reproducible bit-for-bit from (stream, config, seed).

#include <cstdint>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/rng.hpp"

namespace rfdump::emu {

enum class FaultKind {
  kDrop,        // USB overrun: a contiguous run of samples never delivered
  kDuplicate,   // a delivered buffer re-delivered (timestamps go backwards)
  kNonFinite,   // NaN/Inf burst overwriting delivered samples
  kSaturation,  // ADC clipping active over the whole stream
  kDcOffset,    // constant DC offset over the whole stream
  kCfoDrift,    // carrier frequency offset (+ linear drift) over the stream
};

/// Ground-truth record for one injected fault. Positions are in the original
/// (pre-impairment) stream timeline, the same timeline segment timestamps and
/// Ether truth records use.
struct FaultRecord {
  FaultKind kind = FaultKind::kDrop;
  std::int64_t start_sample = 0;
  std::int64_t end_sample = 0;  // one past the last affected sample
  double magnitude = 0.0;       // kind-specific: clip rail, offset, Hz, ...

  [[nodiscard]] std::int64_t length() const {
    return end_sample - start_sample;
  }
};

/// One front-end delivery: `samples` beginning at absolute stream position
/// `start_sample`. Consecutive segments are contiguous unless samples were
/// dropped (next start jumps forward) or a buffer was re-delivered (next
/// start jumps backwards).
struct Segment {
  std::int64_t start_sample = 0;
  dsp::SampleVec samples;
};

/// Replays a rendered stream through a configurable fault model.
class FrontEnd {
 public:
  struct Config {
    /// Delivery granularity: each segment's length is drawn uniformly from
    /// [segment_min_samples, segment_max_samples] (then truncated by stream
    /// end or a scheduled drop).
    std::size_t segment_min_samples = 8 * 1024;
    std::size_t segment_max_samples = 64 * 1024;

    /// USB-overrun drops: mean events per second of stream time; each drop
    /// loses a uniform [drop_min_samples, drop_max_samples] run.
    double drops_per_second = 0.0;
    std::int64_t drop_min_samples = 2'000;
    std::int64_t drop_max_samples = 40'000;

    /// Duplicate deliveries: mean events per second. The segment containing
    /// the event point is delivered twice (second copy with its original
    /// timestamp, i.e. the stream position moves backwards).
    double duplicates_per_second = 0.0;

    /// NaN/Inf bursts: mean events per second; each burst overwrites a
    /// uniform [nonfinite_min_samples, nonfinite_max_samples] run.
    double nonfinite_per_second = 0.0;
    std::int64_t nonfinite_min_samples = 4;
    std::int64_t nonfinite_max_samples = 64;

    /// ADC saturation: clamp I and Q to [-clip_amplitude, clip_amplitude].
    /// 0 disables clipping.
    float clip_amplitude = 0.0f;

    /// Constant DC offset added to every sample (mixer/ADC bias).
    dsp::cfloat dc_offset{0.0f, 0.0f};

    /// Carrier frequency offset at t = 0 plus a linear drift (oscillator
    /// warm-up): instantaneous offset is cfo_hz + cfo_drift_hz_per_sec * t.
    double cfo_hz = 0.0;
    double cfo_drift_hz_per_sec = 0.0;

    /// Sample-clock skew: segment timestamps are reported in the sensor's
    /// *own* clock, `local = true + clock_offset_samples`. A fleet of
    /// front ends over one ether each misreport time differently; the
    /// aggregator (net/aggregator.hpp) re-aligns them. The fault log stays
    /// in the true (pre-offset) timeline.
    std::int64_t clock_offset_samples = 0;
  };

  /// Takes a copy of `stream` so the caller's buffer may be released.
  FrontEnd(dsp::const_sample_span stream, Config config,
           std::uint64_t seed = 1);

  /// True once every sample that will ever be delivered has been delivered.
  [[nodiscard]] bool Done() const;

  /// Next delivery. Returns an empty segment once Done().
  [[nodiscard]] Segment NextSegment();

  /// Convenience: delivers the whole stream as a segment list.
  [[nodiscard]] std::vector<Segment> DrainAll();

  /// Ground-truth fault log, in schedule order (whole-stream impairments
  /// first, then point events by position).
  const std::vector<FaultRecord>& faults() const { return faults_; }

  /// Fault records of one kind. Test seam: only tests call it.
  [[nodiscard]] std::vector<FaultRecord> FaultsOf(FaultKind kind) const;

  const Config& config() const { return config_; }

 private:
  void ScheduleEvents();
  void Impair(dsp::sample_span io, std::int64_t start_sample);

  Config config_;
  util::Xoshiro256 rng_;
  dsp::SampleVec stream_;
  std::vector<FaultRecord> faults_;
  std::vector<FaultRecord> drops_;       // sorted, disjoint
  std::vector<FaultRecord> bursts_;      // sorted non-finite runs
  std::vector<std::int64_t> dup_points_; // sorted duplicate event positions
  std::size_t next_dup_ = 0;
  std::int64_t cursor_ = 0;              // next original-timeline sample
  bool have_pending_dup_ = false;
  Segment pending_dup_;
};

}  // namespace rfdump::emu
