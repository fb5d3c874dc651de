#include "rfdump/emu/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rfdump::emu {
namespace {

/// Exponential inter-arrival draw in samples for a `rate` (events/second)
/// Poisson process at the front-end sample rate. Always advances by >= 1.
std::int64_t NextArrival(util::Xoshiro256& rng, double rate_per_sec) {
  const double u = rng.UniformDouble();
  const double gap_sec = -std::log(1.0 - u) / rate_per_sec;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(gap_sec * dsp::kSampleRateHz));
}

}  // namespace

FrontEnd::FrontEnd(dsp::const_sample_span stream, Config config,
                   std::uint64_t seed)
    : config_(config), rng_(seed), stream_(stream.begin(), stream.end()) {
  ScheduleEvents();
}

void FrontEnd::ScheduleEvents() {
  const auto n = static_cast<std::int64_t>(stream_.size());
  // Whole-stream impairments first, so the log reads like a capture header.
  if (config_.clip_amplitude > 0.0f) {
    faults_.push_back({FaultKind::kSaturation, 0, n,
                       static_cast<double>(config_.clip_amplitude)});
  }
  if (config_.dc_offset != dsp::cfloat{0.0f, 0.0f}) {
    faults_.push_back({FaultKind::kDcOffset, 0, n,
                       static_cast<double>(std::abs(config_.dc_offset))});
  }
  if (config_.cfo_hz != 0.0 || config_.cfo_drift_hz_per_sec != 0.0) {
    faults_.push_back({FaultKind::kCfoDrift, 0, n, config_.cfo_hz});
  }

  // Point events: each class is an independent Poisson process over stream
  // time; events landing past the end are discarded.
  if (config_.drops_per_second > 0.0) {
    std::int64_t t = NextArrival(rng_, config_.drops_per_second);
    while (t < n) {
      const auto len = static_cast<std::int64_t>(rng_.UniformInt(
          static_cast<std::uint64_t>(config_.drop_min_samples),
          static_cast<std::uint64_t>(config_.drop_max_samples)));
      const std::int64_t end = std::min(t + len, n);
      if (!drops_.empty() && t <= drops_.back().end_sample) {
        drops_.back().end_sample = std::max(drops_.back().end_sample, end);
      } else {
        drops_.push_back({FaultKind::kDrop, t, end,
                          static_cast<double>(end - t)});
      }
      t += len + NextArrival(rng_, config_.drops_per_second);
    }
  }
  if (config_.nonfinite_per_second > 0.0) {
    std::int64_t t = NextArrival(rng_, config_.nonfinite_per_second);
    while (t < n) {
      const auto len = static_cast<std::int64_t>(rng_.UniformInt(
          static_cast<std::uint64_t>(config_.nonfinite_min_samples),
          static_cast<std::uint64_t>(config_.nonfinite_max_samples)));
      bursts_.push_back({FaultKind::kNonFinite, t, std::min(t + len, n),
                         static_cast<double>(len)});
      t += len + NextArrival(rng_, config_.nonfinite_per_second);
    }
  }
  if (config_.duplicates_per_second > 0.0) {
    std::int64_t t = NextArrival(rng_, config_.duplicates_per_second);
    while (t < n) {
      dup_points_.push_back(t);
      t += NextArrival(rng_, config_.duplicates_per_second);
    }
  }
  for (const auto& d : drops_) faults_.push_back(d);
  for (const auto& b : bursts_) faults_.push_back(b);
}

bool FrontEnd::Done() const {
  return !have_pending_dup_ &&
         cursor_ >= static_cast<std::int64_t>(stream_.size());
}

void FrontEnd::Impair(dsp::sample_span io, std::int64_t start_sample) {
  // CFO (+ drift): phase(t) = 2*pi*(f0*t + r*t^2/2) accumulated in double.
  if (config_.cfo_hz != 0.0 || config_.cfo_drift_hz_per_sec != 0.0) {
    for (std::size_t i = 0; i < io.size(); ++i) {
      const double t =
          static_cast<double>(start_sample + static_cast<std::int64_t>(i)) *
          dsp::kSamplePeriodSec;
      const double phase =
          2.0 * std::numbers::pi *
          (config_.cfo_hz * t + 0.5 * config_.cfo_drift_hz_per_sec * t * t);
      const dsp::cfloat rot(static_cast<float>(std::cos(phase)),
                            static_cast<float>(std::sin(phase)));
      io[i] *= rot;
    }
  }
  if (config_.dc_offset != dsp::cfloat{0.0f, 0.0f}) {
    for (auto& s : io) s += config_.dc_offset;
  }
  if (config_.clip_amplitude > 0.0f) {
    const float rail = config_.clip_amplitude;
    for (auto& s : io) {
      s = dsp::cfloat(std::clamp(s.real(), -rail, rail),
                      std::clamp(s.imag(), -rail, rail));
    }
  }
  // Non-finite bursts overwrite whatever the analog chain produced.
  const std::int64_t seg_end =
      start_sample + static_cast<std::int64_t>(io.size());
  for (const auto& b : bursts_) {
    if (b.end_sample <= start_sample) continue;
    if (b.start_sample >= seg_end) break;
    const std::int64_t from = std::max(b.start_sample, start_sample);
    const std::int64_t to = std::min(b.end_sample, seg_end);
    for (std::int64_t k = from; k < to; ++k) {
      // Mostly NaN with the occasional Inf, like real DMA garbage.
      const bool inf = ((k - b.start_sample) % 7) == 3;
      const float v = inf ? std::numeric_limits<float>::infinity()
                          : std::numeric_limits<float>::quiet_NaN();
      io[static_cast<std::size_t>(k - start_sample)] = dsp::cfloat(v, v);
    }
  }
}

Segment FrontEnd::NextSegment() {
  if (have_pending_dup_) {
    have_pending_dup_ = false;
    return std::move(pending_dup_);
  }
  const auto n = static_cast<std::int64_t>(stream_.size());
  // Skip over any drop region the cursor sits in (those samples were lost in
  // the kernel; the host never sees them).
  for (const auto& d : drops_) {
    if (cursor_ >= d.start_sample && cursor_ < d.end_sample) {
      cursor_ = d.end_sample;
    }
  }
  if (cursor_ >= n) return Segment{n + config_.clock_offset_samples, {}};

  std::int64_t len = static_cast<std::int64_t>(rng_.UniformInt(
      config_.segment_min_samples, config_.segment_max_samples));
  len = std::min(len, n - cursor_);
  // A scheduled drop truncates the delivery: the buffer ends where the
  // overrun began.
  for (const auto& d : drops_) {
    if (d.start_sample > cursor_) {
      len = std::min(len, d.start_sample - cursor_);
      break;
    }
  }

  Segment seg;
  // Timestamps are reported in the sensor's own clock; impairment positions
  // and the fault log stay in the true timeline (matching Ether truth).
  const std::int64_t true_start = cursor_;
  seg.start_sample = true_start + config_.clock_offset_samples;
  seg.samples.assign(stream_.begin() + cursor_,
                     stream_.begin() + cursor_ + len);
  Impair(seg.samples, true_start);
  cursor_ += len;

  // Duplicate delivery: if an event point fell inside this buffer, the next
  // call re-delivers the same buffer at the same (stale) timestamp.
  while (next_dup_ < dup_points_.size() &&
         dup_points_[next_dup_] < true_start) {
    ++next_dup_;  // event landed in a dropped region
  }
  if (next_dup_ < dup_points_.size() && dup_points_[next_dup_] < cursor_) {
    ++next_dup_;
    pending_dup_ = seg;  // copy, original timestamp
    have_pending_dup_ = true;
    faults_.push_back({FaultKind::kDuplicate, true_start, cursor_,
                       static_cast<double>(len)});
  }
  return seg;
}

std::vector<Segment> FrontEnd::DrainAll() {
  std::vector<Segment> out;
  while (!Done()) {
    auto seg = NextSegment();
    if (!seg.samples.empty()) out.push_back(std::move(seg));
  }
  return out;
}

std::vector<FaultRecord> FrontEnd::FaultsOf(FaultKind kind) const {
  std::vector<FaultRecord> out;
  for (const auto& f : faults_) {
    if (f.kind == kind) out.push_back(f);
  }
  return out;
}

}  // namespace rfdump::emu
