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

}  // namespace rfdump::phybt
