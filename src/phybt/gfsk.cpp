#include "rfdump/phybt/gfsk.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/fir.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/util/scratch.hpp"

namespace rfdump::phybt {

dsp::SampleVec GfskModulate(std::span<const std::uint8_t> bits,
                            std::size_t ramp_symbols) {
  const std::size_t sps = kSamplesPerSymbol;
  // NRZ at sample rate with ramp padding (repeat first/last bit levels).
  std::vector<float> nrz;
  nrz.reserve((bits.size() + 2 * ramp_symbols) * sps);
  const float first = bits.empty() ? 0.0f : (bits.front() ? 1.0f : -1.0f);
  const float last = bits.empty() ? 0.0f : (bits.back() ? 1.0f : -1.0f);
  for (std::size_t i = 0; i < ramp_symbols * sps; ++i) nrz.push_back(first);
  for (std::uint8_t b : bits) {
    const float v = b ? 1.0f : -1.0f;
    for (std::size_t s = 0; s < sps; ++s) nrz.push_back(v);
  }
  for (std::size_t i = 0; i < ramp_symbols * sps; ++i) nrz.push_back(last);

  // Gaussian pulse shaping.
  const auto taps = dsp::DesignGaussian(kGaussianBt, sps, 4);
  std::vector<float> shaped(nrz.size(), 0.0f);
  const std::size_t half = taps.size() / 2;
  for (std::size_t n = 0; n < nrz.size(); ++n) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::ptrdiff_t idx =
          static_cast<std::ptrdiff_t>(n + half) -
          static_cast<std::ptrdiff_t>(k);
      float v;
      if (idx < 0) {
        v = first;
      } else if (idx >= static_cast<std::ptrdiff_t>(nrz.size())) {
        v = last;
      } else {
        v = nrz[static_cast<std::size_t>(idx)];
      }
      acc += taps[k] * v;
    }
    shaped[n] = acc;
  }

  // Frequency modulation: deviation = h/2 * symbol rate.
  const double dev_hz = kModulationIndex / 2.0 * kSymbolRateHz;
  const double k_phase = 2.0 * std::numbers::pi * dev_hz / dsp::kSampleRateHz;
  dsp::SampleVec out(shaped.size());
  double phase = 0.0;
  for (std::size_t n = 0; n < shaped.size(); ++n) {
    phase += k_phase * static_cast<double>(shaped[n]);
    out[n] = dsp::cfloat(static_cast<float>(std::cos(phase)),
                         static_cast<float>(std::sin(phase)));
  }
  return out;
}

void FmDiscriminateInto(dsp::const_sample_span x, std::vector<float>& out) {
  if (x.size() < 2) {
    out.clear();
    return;
  }
  out.resize(x.size() - 1);
  dsp::simd::Active().phase_diff(x.data(), x.size(), out.data());
}

util::BitVec SliceSymbols(std::span<const float> freq,
                          std::size_t first_center, std::size_t count) {
  util::BitVec bits;
  bits.reserve(count);
  const std::size_t sps = kSamplesPerSymbol;
  for (std::size_t m = 0; m < count; ++m) {
    const std::size_t center = first_center + m * sps;
    if (center + 2 > freq.size() || center < 1) break;
    // Average the 3 samples around the symbol center for noise robustness.
    const float v = freq[center - 1] + freq[center] + freq[center + 1];
    bits.push_back(v > 0.0f ? 1u : 0u);
  }
  return bits;
}

namespace {

// Centers per plane block: 64 symbols (one word) in each of the 8 residues.
constexpr std::size_t kBlockCenters = 64 * kSamplesPerSymbol;

// Shift of byte `r` in a uint64 loaded from 8 consecutive bytes.
constexpr int ByteShift(int r) {
  return std::endian::native == std::endian::little ? 8 * r : 8 * (7 - r);
}

// 1 MHz channel select, shared by every GFSK channel.
const std::vector<float>& ChannelTaps() {
  static const std::vector<float> kTaps =
      dsp::DesignLowPass(600e3, dsp::kSampleRateHz, 21);
  return kTaps;
}

// Occupancy screen: 32-point windows every 16 samples, 4 windows (80
// samples) to a stretch.
constexpr std::size_t kScreenLen = 32;
constexpr std::size_t kScreenHop = kScreenLen / 2;
constexpr std::size_t kScreenGroup = 4;
// A stretch less its strongest window is occupied from this multiple of the
// energy the noise floor puts in three windows. DESIGN.md §16 derives it
// from the SNR sweep in tests/phybt_test.cpp and tests/phyble_test.cpp.
constexpr double kScreenFactor = 5.0;

// Four float lanes (GCC/Clang vector extension). The screen's arithmetic is
// written on them lane by lane, so every lane runs one fixed sequence of
// IEEE operations whatever the compiler and the dispatch tier.
using Lanes = float __attribute__((vector_size(16)));

Lanes LoadLanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Real and imaginary parts of the 4 complex samples at p, as two Lanes.
void Deinterleave(const dsp::cfloat* p, Lanes& re, Lanes& im) {
  const auto* f = reinterpret_cast<const float*>(p);
  const Lanes a = LoadLanes(f);
  const Lanes b = LoadLanes(f + 4);
  re = __builtin_shufflevector(a, b, 0, 2, 4, 6);
  im = __builtin_shufflevector(a, b, 1, 3, 5, 7);
}

// The screen's DFT rows over one half window. Rows 0-2 weight the window's
// first half, rows 3-5 its second half, with the periodic Hann window w,
// w*cos(2 pi n / 32) and w*sin(2 pi n / 32). Bin 0 is sum(w y); bins -1 and
// +1 are P + jQ and P - jQ with P = sum(w cos y) and Q = sum(w sin y), so
// together they hold 2(|P|^2 + |Q|^2).
struct ScreenRows {
  float row[6][kScreenHop] = {};
  double noise_gain = 0.0;  // window energy per unit of input noise power
};

const ScreenRows& Screen() {
  static const ScreenRows kRows = [] {
    ScreenRows s;
    for (std::size_t n = 0; n < kScreenLen; ++n) {
      const double a = 2.0 * std::numbers::pi * static_cast<double>(n) /
                       static_cast<double>(kScreenLen);
      const double w = 0.5 - 0.5 * std::cos(a);
      const float row[3] = {static_cast<float>(w),
                            static_cast<float>(w * std::cos(a)),
                            static_cast<float>(w * std::sin(a))};
      for (std::size_t r = 0; r < 3; ++r) {
        s.row[3 * (n / kScreenHop) + r][n % kScreenHop] = row[r];
        s.noise_gain += (r == 0 ? 1.0 : 2.0) * row[r] * row[r];
      }
    }
    return s;
  }();
  return kRows;
}

}  // namespace

std::uint64_t SlicerPlane::Word(std::size_t first_center,
                                std::size_t bits) const {
  const std::size_t symbol = first_center / kSamplesPerSymbol;
  const std::uint64_t* stream =
      words.data() + (first_center % kSamplesPerSymbol) * stride;
  const std::size_t w = symbol / 64;
  const unsigned s = symbol % 64;
  // Two-word funnel shift; `<< (63 - s) << 1` stays defined at s == 0.
  const std::uint64_t v = (stream[w] >> s) | (stream[w + 1] << (63 - s) << 1);
  return bits >= 64 ? v : v & ((std::uint64_t{1} << bits) - 1);
}

SlicerPlane PackSlicerPlane(std::span<const float> freq,
                            std::vector<std::uint64_t>& words) {
  const std::size_t n = freq.size();
  const std::size_t blocks = (n + kBlockCenters - 1) / kBlockCenters;
  const std::size_t stride = blocks + 1;
  words.assign(kSamplesPerSymbol * stride, 0);
  const float* f = freq.data();
  // Decisions of 64 consecutive centers (8 symbols x 8 residues) at a time,
  // as bytes; then byte r of M = OR_k (bytes 8k..8k+7 << k) holds residue
  // r's 8 symbols, which is one byte of that residue's word.
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t g = 0; g < kBlockCenters / 64; ++g) {
      const std::size_t c0 = b * kBlockCenters + g * 64;
      std::uint8_t d[64];
      if (c0 >= 1 && c0 + 64 < n) {
        for (std::size_t i = 0; i < 64; ++i) {
          const std::size_t c = c0 + i;
          d[i] = (f[c - 1] + f[c]) + f[c + 1] > 0.0f;
        }
      } else {
        for (std::size_t i = 0; i < 64; ++i) {
          const std::size_t c = c0 + i;
          d[i] = c >= 1 && c + 2 <= n && (f[c - 1] + f[c]) + f[c + 1] > 0.0f;
        }
      }
      std::uint64_t m = 0;
      for (unsigned k = 0; k < 8; ++k) {
        std::uint64_t lane;
        std::memcpy(&lane, d + 8 * k, sizeof lane);
        m |= lane << k;
      }
      for (int r = 0; r < static_cast<int>(kSamplesPerSymbol); ++r) {
        words[static_cast<std::size_t>(r) * stride + b] |=
            ((m >> ByteShift(r)) & 0xFFu) << (8 * g);
      }
    }
  }
  return SlicerPlane{words, stride};
}

std::size_t GfskTrack::NextCandidate(std::size_t pos,
                                     std::size_t limit) const {
  constexpr std::size_t sps = kSamplesPerSymbol;
  while (pos < limit) {
    // Gate on channel energy: skip quiet stretches a symbol at a time.
    if (power[pos] < gate) {
      pos += sps;
      continue;
    }
    // Cheap screen: the 4 preamble symbols must alternate in frequency sign.
    const bool s0 = std::signbit(freq[pos]);
    const bool s1 = std::signbit(freq[pos + sps]);
    const bool s2 = std::signbit(freq[pos + 2 * sps]);
    const bool s3 = std::signbit(freq[pos + 3 * sps]);
    if (s0 != s1 && s1 != s2 && s2 != s3) return pos;
    ++pos;
  }
  return pos;
}

GfskChannel::GfskChannel(double offset_hz) {
  // Smallest P with P * offset / fs an integer: the phasor then repeats
  // every P samples.
  const double cycles = offset_hz / dsp::kSampleRateHz;
  for (std::size_t p = 1; p <= kMaxMixPeriod && period_ == 0; ++p) {
    const double turns = cycles * static_cast<double>(p);
    if (std::abs(turns - std::round(turns)) < 1e-9) period_ = p;
  }
  if (period_ == 0) {
    throw std::invalid_argument(
        "GfskChannel: offset has no mixing period <= 64 samples at 8 Msps");
  }
  dsp::Nco nco(-offset_hz, dsp::kSampleRateHz);
  for (std::size_t i = 0; i < period_; ++i) table_[i] = nco.Next();
  for (std::size_t i = period_; i < table_.size(); ++i) {
    table_[i] = table_[i - period_];
  }
}

void GfskChannel::Mix(dsp::const_sample_span x, dsp::cfloat* out) const {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + period_ <= n; i += period_) {
    for (std::size_t k = 0; k < period_; ++k) out[i + k] = x[i + k] * table_[k];
  }
  for (std::size_t k = 0; i < n; ++i, ++k) out[i] = x[i] * table_[k];
}

GfskTrack GfskChannel::Process(dsp::const_sample_span x,
                               double noise_floor_power) const {
  const dsp::simd::Kernels& kernels = dsp::simd::Active();
  const std::vector<float>& taps = ChannelTaps();
  const std::size_t n = x.size();
  const std::size_t hist = taps.size() - 1;

  // Channelize: mix to DC straight into a [zero history | input] buffer and
  // run the 21-tap low-pass over it, exactly as a fresh dsp::FirFilter would.
  // Every buffer is a thread-local scratch arena, shared by all channels.
  struct WorkTag {};
  auto& work = util::Scratch<dsp::cfloat, WorkTag>();
  work.resize(hist + n);
  std::fill_n(work.begin(), hist, dsp::cfloat{0.0f, 0.0f});
  Mix(x, work.data() + hist);
  struct FilteredTag {};
  auto& filtered = util::Scratch<dsp::cfloat, FilteredTag>();
  filtered.resize(n);
  kernels.fir_complex(work.data(), n, taps.data(), taps.size(),
                      filtered.data());

  // Instantaneous frequency, and a 16-sample moving average of the
  // in-channel power plane (computed in place) for gating.
  struct FreqTag {};
  auto& freq = util::Scratch<float, FreqTag>();
  FmDiscriminateInto(filtered, freq);
  struct PowerTag {};
  auto& power = util::Scratch<float, PowerTag>();
  power.resize(n);
  kernels.power_plane(filtered.data(), n, power.data());
  dsp::MovingAveragePower(16).PushAll(power);

  // Noise floor in-channel: either derived from the known full-band floor
  // (scaled by the channel filter's noise gain) or estimated as the mean of
  // the lowest decile of the power track, which keeps the estimate anchored
  // to noise even when transmissions occupy most of the scanned window.
  double floor_est = 0.0;
  if (noise_floor_power > 0.0) {
    double tap_energy = 0.0;
    for (float t : taps) tap_energy += static_cast<double>(t) * t;
    floor_est = noise_floor_power * tap_energy;
  } else if (n > 0) {
    struct ProbeTag {};
    auto& probe = util::Scratch<float, ProbeTag>();
    probe.clear();
    for (std::size_t i = 0; i < n; i += 64) probe.push_back(power[i]);
    std::sort(probe.begin(), probe.end());
    const std::size_t decile = std::max<std::size_t>(probe.size() / 10, 1);
    for (std::size_t i = 0; i < decile; ++i) floor_est += probe[i];
    floor_est /= static_cast<double>(decile);
  }

  struct PlaneTag {};
  GfskTrack track;
  track.freq = freq;
  track.power = power;
  track.gate = static_cast<float>(std::max(floor_est * 4.0, 1e-12));
  track.plane = PackSlicerPlane(
      freq, util::Scratch<std::uint64_t, PlaneTag>());
  return track;
}

bool GfskChannel::Occupied(dsp::const_sample_span x,
                           double noise_floor_power) const {
  const std::size_t halves = x.size() / kScreenHop;
  if (!(noise_floor_power > 0.0) || halves < kScreenGroup + 1) return true;
  const ScreenRows& s = Screen();
  const double limit = kScreenFactor * static_cast<double>(kScreenGroup - 1) *
                       s.noise_gain * noise_floor_power;
  // Lane sums, real and imaginary, of rows 0-2 over the previous half: the
  // first half of the window that started there.
  Lanes head[2][3] = {};
  double energy[kScreenGroup] = {};
  const std::size_t step = kScreenHop % period_;
  std::size_t phase = 0;  // mixing-table entry of the half's first sample
  for (std::size_t h = 0; h < halves; ++h) {
    const dsp::cfloat* in = x.data() + h * kScreenHop;
    const dsp::cfloat* t = table_.data() + phase;
    phase += step;
    if (phase >= period_) phase -= period_;
    // Mix 4 samples at a time to DC and add each row's products into its
    // lanes: lane l ends up holding positions l, l+4, l+8 and l+12, in that
    // order. The complex product is written out, so a non-finite sample
    // stays non-finite (std::complex's would try to recover infinities).
    Lanes lanes[2][6] = {};
#pragma GCC unroll 4
    for (std::size_t i = 0; i < kScreenHop; i += 4) {
      Lanes xr, xi, tr, ti;
      Deinterleave(in + i, xr, xi);
      Deinterleave(t + i, tr, ti);
      const Lanes yr = xr * tr - xi * ti;
      const Lanes yi = xr * ti + xi * tr;
#pragma GCC unroll 6
      for (std::size_t r = 0; r < 6; ++r) {
        const Lanes row = LoadLanes(&s.row[r][i]);
        lanes[0][r] += row * yr;
        lanes[1][r] += row * yi;
      }
    }
    if (h > 0) {
      // Window m = h - 1 is complete: its first half plus this half, lane by
      // lane, then the lanes combined as (l0 + l1) + (l2 + l3).
      double e = 0.0;
      for (std::size_t r = 0; r < 3; ++r) {
        double bin = 0.0;
        for (std::size_t c = 0; c < 2; ++c) {
          const Lanes w = head[c][r] + lanes[c][3 + r];
          const double v = static_cast<double>((w[0] + w[1]) + (w[2] + w[3]));
          bin += v * v;
        }
        e += (r == 0 ? 1.0 : 2.0) * bin;
      }
      // A non-finite sample makes its windows non-finite: keep the channel,
      // whose front end maps such power to 0 and may decode around it.
      if (!std::isfinite(e)) return true;
      const std::size_t m = h - 1;
      energy[m % kScreenGroup] = e;
      if (m + 1 >= kScreenGroup) {
        // The stretch of windows m-3..m less its strongest one (the oldest
        // of equals); the other three are summed oldest first.
        const std::size_t first = m + 1 - kScreenGroup;
        std::size_t top = first;
        for (std::size_t j = first + 1; j <= m; ++j) {
          if (energy[j % kScreenGroup] > energy[top % kScreenGroup]) top = j;
        }
        double stretch = 0.0;
        for (std::size_t j = first; j <= m; ++j) {
          if (j != top) stretch += energy[j % kScreenGroup];
        }
        if (stretch >= limit) return true;
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t r = 0; r < 3; ++r) head[c][r] = lanes[c][r];
    }
  }
  return false;
}

}  // namespace rfdump::phybt
