#include "rfdump/core/phase_detectors.hpp"

#include "rfdump/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/phybt/hopping.hpp"

namespace rfdump::core {
namespace {

// Boxcar-smooths x into out (length x.size() - smooth + 1).
dsp::SampleVec Smooth(dsp::const_sample_span x, std::size_t smooth) {
  if (smooth <= 1) return dsp::SampleVec(x.begin(), x.end());
  if (x.size() < smooth) return {};
  dsp::SampleVec out(x.size() - smooth + 1);
  dsp::cfloat acc{0.0f, 0.0f};
  for (std::size_t i = 0; i < smooth; ++i) acc += x[i];
  out[0] = acc;
  for (std::size_t i = smooth; i < x.size(); ++i) {
    acc += x[i] - x[i - smooth];
    out[i - smooth + 1] = acc;
  }
  return out;
}

/// std::abs(z), inlined for finite z as the C library's cabsf computes it:
/// the square root of the double-precision sum of squares, rounded once to
/// float (exact products, two roundings). Non-finite parts keep the library
/// call and its Inf-beats-NaN rule. DbpskWindowScore tests pin the equality.
float Magnitude(dsp::cfloat z) {
  const float re = z.real(), im = z.imag();
  if (!std::isfinite(re) || !std::isfinite(im)) return std::abs(z);
  const double re2 = static_cast<double>(re) * static_cast<double>(re);
  const double im2 = static_cast<double>(im) * static_cast<double>(im);
  return static_cast<float>(std::sqrt(re2 + im2));
}

// GFSK detector: the continuous-phase signature over a 4-sample boxcar
// (against full-band noise) of at most 1024 samples, for bursts no longer
// than the DH5 bound the Bluetooth timing detector uses.
constexpr float kGfskMinFracSmallD2 = 0.75f;  // continuous-phase fraction
constexpr float kGfskMaxMeanAbsD2 = 0.22f;    // radians
constexpr std::size_t kGfskMaxSamples = 1024;
constexpr std::size_t kGfskSmooth = 4;
constexpr double kGfskMaxBurstUs = 3000.0;

// DBPSK detector: normalized pattern-correlation threshold, the 16-symbol
// (16 us) prefix-scan window, and the scan cap: a burst that still matches
// after 512 symbols is tagged whole without examining the rest.
constexpr float kDbpskThreshold = 0.45f;
constexpr std::size_t kDbpskWindowSymbols = 16;
constexpr std::size_t kDbpskMaxScanSymbols = 512;

}  // namespace

PhaseInfo ComputePhaseInfo(dsp::const_sample_span x, std::size_t max_samples,
                           std::size_t smooth) {
  PhaseInfo info;
  const std::size_t n = std::min(x.size(), max_samples);
  if (n < 3 + smooth) return info;
  // Coarse frequency estimate via the complex average of lag-1 products
  // (immune to phase wrapping), so the burst can be translated near DC before
  // smoothing — a boxcar applied directly to a band-edge channel would
  // otherwise attenuate the signal below the noise.
  const dsp::cfloat zsum = dsp::simd::Active().conj_mul_sum(x.data(), n);
  const float coarse = std::arg(zsum);
  dsp::SampleVec derotated(n);
  {
    const dsp::cfloat step(std::cos(-coarse), std::sin(-coarse));
    dsp::cfloat rot{1.0f, 0.0f};
    for (std::size_t i = 0; i < n; ++i) {
      derotated[i] = x[i] * rot;
      rot *= step;
      // Cheap renormalization to stop drift.
      if ((i & 0x3FFu) == 0x3FFu) rot /= std::abs(rot);
    }
  }
  const auto smoothed = Smooth(derotated, smooth);
  if (smoothed.size() < 3) return info;
  const auto d1 = dsp::PhaseDiff(smoothed);
  double sum_d1 = 0.0, sum_abs_d2 = 0.0;
  std::size_t small = 0;
  for (float v : d1) sum_d1 += v;
  for (std::size_t i = 1; i < d1.size(); ++i) {
    const float d2 = dsp::WrapPhase(d1[i] - d1[i - 1]);
    sum_abs_d2 += std::abs(d2);
    if (std::abs(d2) < 0.25f) ++small;
  }
  info.mean_d1 = dsp::WrapPhase(
      coarse +
      static_cast<float>(sum_d1 / static_cast<double>(d1.size())));
  const std::size_t nd2 = d1.size() - 1;
  info.mean_abs_d2 =
      static_cast<float>(sum_abs_d2 / static_cast<double>(nd2));
  info.frac_small_d2 =
      static_cast<float>(static_cast<double>(small) /
                         static_cast<double>(nd2));
  info.samples_used = n;
  return info;
}

// --------------------------------------------------------------------- GFSK

std::optional<Detection> GfskPhaseDetector::OnPeak(
    const Peak& peak, dsp::const_sample_span samples) {
  static obs::Counter& c_examined = obs::LabeledCounter(
      "rfdump_detect_peaks_examined_total", "detector", "gfsk-phase");
  static obs::Counter& c_tags =
      obs::LabeledCounter("rfdump_detect_tags_total", "detector", "gfsk-phase");
  c_examined.Inc();
  if (dsp::SamplesToMicros(peak.length()) > kGfskMaxBurstUs) {
    return std::nullopt;
  }
  const PhaseInfo info =
      ComputePhaseInfo(samples, kGfskMaxSamples, kGfskSmooth);
  if (info.samples_used < 64) return std::nullopt;
  if (info.frac_small_d2 < kGfskMinFracSmallD2 ||
      info.mean_abs_d2 > kGfskMaxMeanAbsD2) {
    return std::nullopt;
  }
  // First derivative -> frequency offset -> visible channel index.
  const double freq =
      static_cast<double>(info.mean_d1) * dsp::kSampleRateHz /
      (2.0 * std::numbers::pi);
  const int channel = static_cast<int>(
      std::lround((freq + 3.5e6) / phybt::kChannelWidthHz));
  if (channel < 0 || channel >= phybt::kVisibleChannels) return std::nullopt;
  last_channel_ = channel;
  const float confidence = std::min(1.0f, info.frac_small_d2);
  c_tags.Inc();
  return Detection{Protocol::kBluetooth, peak.start_sample, peak.end_sample,
                   confidence, "gfsk-phase"};
}

// -------------------------------------------------------------------- DBPSK

std::array<float, 8> BarkerPhaseFlipPattern() {
  // Sample n of a symbol (at 8 Msps) lands in chip floor(n * 11 / 8); the
  // transition weight between samples n and n+1 is +1 if the Barker chips
  // agree, -1 if they flip. The transition into the next symbol (n = 7 -> 8)
  // is data-dependent: weight 0.
  std::array<float, 8> pattern{};
  for (std::size_t n = 0; n < 8; ++n) {
    const std::size_t chip_a = n * 11 / 8;
    const std::size_t chip_b = (n + 1) * 11 / 8;
    if (chip_b >= 11) {
      pattern[n] = 0.0f;  // crosses the symbol boundary
      continue;
    }
    pattern[n] = (dsp::kBarker11[chip_a] == dsp::kBarker11[chip_b]) ? 1.0f
                                                                    : -1.0f;
  }
  return pattern;
}

DbpskPhaseDetector::DbpskPhaseDetector() : DbpskPhaseDetector(Config{}) {}

DbpskPhaseDetector::DbpskPhaseDetector(Config config) : config_(config) {}

float DbpskPhaseDetector::WindowScore(dsp::const_sample_span window) {
  // rows[k][a] is the pattern weight of a sample at position k (mod 8) under
  // symbol alignment a.
  static const auto rows = [] {
    const auto pattern = BarkerPhaseFlipPattern();
    std::array<std::array<float, 8>, 8> r{};
    for (std::size_t k = 0; k < 8; ++k) {
      for (std::size_t a = 0; a < 8; ++a) r[k][a] = pattern[(k + a) % 8];
    }
    return r;
  }();
  if (window.size() < 2) return 0.0f;
  // z[n] = x[n+1] conj(x[n]); with DSSS chipping, arg(z) flips by ~pi at chip
  // boundaries. One pass correlates z against the pattern at all 8 possible
  // symbol alignments, one accumulator pair per alignment, each summed in
  // sample order; the best alignment wins.
  std::array<float, 8> re{};
  std::array<float, 8> im{};
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < window.size(); ++i) {
    const dsp::cfloat z = window[i + 1] * std::conj(window[i]);
    total += Magnitude(z);
    const auto& w = rows[i % 8];
    for (std::size_t a = 0; a < 8; ++a) {
      re[a] += w[a] * z.real();
      im[a] += w[a] * z.imag();
    }
  }
  if (total <= 0.0) return 0.0f;
  float best = 0.0f;
  for (std::size_t a = 0; a < 8; ++a) {
    best = std::max(best, std::abs(dsp::cfloat(re[a], im[a])));
  }
  return static_cast<float>(best / total);
}

std::size_t DbpskPhaseDetector::ExtendMatch(dsp::const_sample_span samples,
                                            std::size_t matched_end,
                                            std::size_t limit) const {
  const std::size_t win = kDbpskWindowSymbols * 8;
  const std::size_t stride =
      win * std::max<std::size_t>(config_.scan_stride_windows, 1);
  while (matched_end < limit) {
    const std::size_t probe =
        std::min(matched_end + stride - win, samples.size());
    const std::size_t len = std::min(win, samples.size() - probe);
    if (len < 2 * 8) return samples.size();
    if (WindowScore(samples.subspan(probe, len)) < kDbpskThreshold) break;
    matched_end = probe + len;
  }
  return matched_end;
}

std::optional<Detection> DbpskPhaseDetector::OnPeak(
    const Peak& peak, dsp::const_sample_span samples) {
  static obs::Counter& c_examined = obs::LabeledCounter(
      "rfdump_detect_peaks_examined_total", "detector", "dbpsk-phase");
  static obs::Counter& c_tags = obs::LabeledCounter(
      "rfdump_detect_tags_total", "detector", "dbpsk-phase");
  c_examined.Inc();
  const std::size_t win = kDbpskWindowSymbols * 8;
  if (samples.size() < 3 * 8) {
    last_score_ = 0.0f;
    return std::nullopt;
  }
  // First window decides whether this burst is Barker-chipped at all.
  last_score_ = WindowScore(samples.first(std::min(win, samples.size())));
  if (last_score_ < kDbpskThreshold) return std::nullopt;
  // Prefix scan: extend while successive windows keep matching. A burst that
  // still matches at the scan cap is Barker end-to-end (1/2 Mbps) and is
  // tagged whole without examining the remainder.
  const std::size_t cap =
      std::min(samples.size(), kDbpskMaxScanSymbols * 8);
  const std::size_t matched_end =
      ExtendMatch(samples, std::min(win, samples.size()), cap);
  const std::int64_t end =
      (matched_end >= cap) ? peak.end_sample
                           : peak.start_sample +
                                 static_cast<std::int64_t>(matched_end);
  c_tags.Inc();
  return Detection{Protocol::kWifi80211b, peak.start_sample, end,
                   std::min(1.0f, last_score_), "dbpsk-phase"};
}

bool DbpskPhaseDetector::MatchesWholePeak(
    dsp::const_sample_span samples) const {
  // The capped scan ends at the first window boundary win + k * stride at or
  // past the cap; a peak no longer than that was scanned whole already.
  const std::size_t win = kDbpskWindowSymbols * 8;
  const std::size_t stride =
      win * std::max<std::size_t>(config_.scan_stride_windows, 1);
  const std::size_t cap =
      std::min(samples.size(), kDbpskMaxScanSymbols * 8);
  std::size_t resume = win;
  if (cap > win) resume += (cap - win + stride - 1) / stride * stride;
  return ExtendMatch(samples, resume, samples.size()) >= samples.size();
}

int ClassifyPskOrder(dsp::const_sample_span x, std::size_t sps,
                     std::size_t max_symbols) {
  if (sps == 0) return 0;
  const std::size_t n = std::min(x.size(), sps * max_symbols);
  if (n < 4 * sps) return 0;
  // Histogram of per-symbol phase changes over 8 bins.
  std::vector<float> changes;
  changes.reserve(n / sps);
  // Rotate by half a bin so the canonical PSK phase changes (multiples of
  // pi/2) land at bin centers instead of straddling bin edges.
  const float half_bin = dsp::kPi / 8.0f;
  for (std::size_t i = sps; i < n; i += sps) {
    changes.push_back(
        dsp::WrapPhase(std::arg(x[i] * std::conj(x[i - sps])) + half_bin));
  }
  const auto hist = dsp::PhaseHistogram(changes, 8);
  // Count bins holding a meaningful share.
  const std::size_t total = changes.size();
  int filled = 0;
  for (auto c : hist) {
    if (static_cast<double>(c) > 0.08 * static_cast<double>(total)) ++filled;
  }
  if (filled <= 2) return 2;
  if (filled <= 4) return 4;
  return 0;
}

}  // namespace rfdump::core
