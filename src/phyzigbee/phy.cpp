#include "rfdump/phyzigbee/phy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>

#include "rfdump/dsp/simd.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/scratch.hpp"

namespace rfdump::phyzigbee {
namespace {

using dsp::cfloat;

constexpr std::size_t kSamplesPerSymbol =
    kChipsPerSymbol * kSamplesPerChip;  // 128 at 8 Msps
constexpr std::size_t kHalfSineSamples = 2 * kSamplesPerChip;  // 8

// Half-sine pulse table, sin(pi * t / (2 Tc)) sampled at 8 Msps.
std::array<float, kHalfSineSamples> HalfSine() {
  std::array<float, kHalfSineSamples> p{};
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = std::sin(static_cast<float>(std::numbers::pi) *
                    (static_cast<float>(i) + 0.5f) /
                    static_cast<float>(kHalfSineSamples));
  }
  return p;
}

// Renders the chip stream to O-QPSK samples. `extra_tail` samples cover the
// Q-branch offset runout.
dsp::SampleVec RenderChips(std::span<const std::uint8_t> chips) {
  static const auto pulse = HalfSine();
  const std::size_t total =
      chips.size() * kSamplesPerChip + kSamplesPerChip + kHalfSineSamples;
  std::vector<float> i_branch(total, 0.0f), q_branch(total, 0.0f);
  for (std::size_t k = 0; k < chips.size(); ++k) {
    const float v = chips[k] ? 1.0f : -1.0f;
    // Even chips -> I, odd -> Q; Q is offset by one chip period inherently
    // because odd chips start one chip later.
    auto& branch = (k % 2 == 0) ? i_branch : q_branch;
    const std::size_t start = k * kSamplesPerChip;
    for (std::size_t s = 0; s < kHalfSineSamples; ++s) {
      branch[start + s] += v * pulse[s];
    }
  }
  dsp::SampleVec out(total);
  for (std::size_t n = 0; n < total; ++n) {
    out[n] = cfloat(i_branch[n], q_branch[n]) * 0.7071f;
  }
  return out;
}

std::uint16_t ZbFcs(std::span<const std::uint8_t> bytes) {
  return util::Crc16CcittBits(util::BytesToBitsLsbFirst(bytes), 0x0000);
}

// Reference waveform of one data symbol (first kSamplesPerSymbol samples).
const std::array<dsp::SampleVec, 16>& SymbolRefs() {
  static const auto refs = [] {
    std::array<dsp::SampleVec, 16> r;
    for (std::uint8_t s = 0; s < 16; ++s) {
      util::BitVec chips(kChipsPerSymbol);
      const std::uint32_t pn = ChipTable()[s];
      for (std::size_t k = 0; k < kChipsPerSymbol; ++k) {
        chips[k] = static_cast<std::uint8_t>((pn >> k) & 1u);
      }
      auto wave = RenderChips(chips);
      wave.resize(kSamplesPerSymbol);
      r[s] = std::move(wave);
    }
    return r;
  }();
  return refs;
}

// Energy of each reference waveform, summed in sample order.
const std::array<double, 16>& SymbolRefEnergies() {
  static const auto energies = [] {
    std::array<double, 16> e{};
    for (std::size_t s = 0; s < 16; ++s) {
      for (const cfloat r : SymbolRefs()[s]) e[s] += std::norm(r);
    }
    return e;
  }();
  return energies;
}

// Energy of x[at..at+128), summed in sample order.
double WindowEnergy(dsp::const_sample_span x, std::size_t at) {
  double ex = 0.0;
  for (std::size_t n = 0; n < kSamplesPerSymbol; ++n) {
    ex += std::norm(x[at + n]);
  }
  return ex;
}

// Normalized correlation of x[at..at+128) against reference `s`, given the
// window's energy `ex`.
float SymbolCorrelation(dsp::const_sample_span x, std::size_t at, int s,
                        double ex) {
  const auto& ref = SymbolRefs()[static_cast<std::size_t>(s)];
  const double er = SymbolRefEnergies()[static_cast<std::size_t>(s)];
  cfloat acc{0.0f, 0.0f};
  for (std::size_t n = 0; n < kSamplesPerSymbol; ++n) {
    acc += x[at + n] * std::conj(ref[n]);
  }
  const double denom = std::sqrt(std::max(ex * er, 1e-30));
  return static_cast<float>(std::abs(acc) / denom);
}

float SymbolCorrelation(dsp::const_sample_span x, std::size_t at, int s) {
  return SymbolCorrelation(x, at, s, WindowEnergy(x, at));
}

// ------------------------------------------------ chip-domain preamble screen
//
// Symbol 0's reference is one pulse per chip, q[s] = fl(0.7071·halfsine[s]),
// signed by the chip: on I for even chips, on Q for odd ones, chip k starting
// at sample 4k. Its correlation therefore factors through the matched filter
// m[i] = sum_s q[s]·x[i+s]:
//   <x, ref0>(at) = E − jO,  E = sum_{k even} c_k·m[at+4k],
//                            O = sum_{k odd}  c_k·m[at+4k],
// where chip 31, which the window cuts after 4 samples, takes the 4-tap
// partial instead. Even chips sit 8 samples apart and so do odd ones, so
// both sums are correlate_chips over the stride-8 polyphase streams of m.

// Offsets screened per block; also the unit of budget charge. One block
// covers the seven windows that follow the scan position.
constexpr std::size_t kScreenBlock = 2048;
static_assert(kScreenBlock > 7 * kSamplesPerSymbol);

struct ScreenTaps {
  std::array<float, kHalfSineSamples> pulse{};  // q, symmetric
  std::array<float, 4> partial{};               // q[3..0], for fir_complex
  std::array<int, 16> even{};                   // c_0, c_2, ..., c_30
  std::array<int, 15> odd{};                    // c_1, c_3, ..., c_29
  float last = 0.0f;                            // c_31
};

const ScreenTaps& Taps() {
  static const ScreenTaps taps = [] {
    ScreenTaps t;
    const auto p = HalfSine();
    for (std::size_t s = 0; s < kHalfSineSamples; ++s) {
      t.pulse[s] = p[s] * 0.7071f;  // RenderChips' rounding, bit for bit
    }
    for (std::size_t s = 0; s < 4; ++s) t.partial[s] = t.pulse[3 - s];
    const std::uint32_t pn = ChipTable()[0];
    const auto chip = [pn](std::size_t k) { return ((pn >> k) & 1u) ? 1 : -1; };
    for (std::size_t i = 0; i < 16; ++i) t.even[i] = chip(2 * i);
    for (std::size_t i = 0; i < 15; ++i) t.odd[i] = chip(2 * i + 1);
    t.last = static_cast<float>(chip(31));
    return t;
  }();
  return taps;
}

// Prefix sums of the finite powers of x (double) and of its non-finite
// power count, so any window's energy is two loads.
class WindowPrefix {
 public:
  explicit WindowPrefix(dsp::const_sample_span x)
      : energy_(util::Scratch<double, WindowPrefix>()),
        bad_(util::Scratch<std::uint32_t, WindowPrefix>()) {
    energy_.resize(x.size() + 1);
    bad_.resize(x.size() + 1);
    double e = 0.0;
    std::uint32_t bad = 0;
    energy_[0] = 0.0;
    bad_[0] = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float p = std::norm(x[i]);
      if (std::isfinite(p)) {
        e += p;
      } else {
        ++bad;
      }
      energy_[i + 1] = e;
      bad_[i + 1] = bad;
    }
  }

  // True if every sample of x[at..at+128) has a finite power.
  bool Finite(std::size_t at) const {
    return bad_[at + kSamplesPerSymbol] == bad_[at];
  }
  double Energy(std::size_t at) const {
    return energy_[at + kSamplesPerSymbol] - energy_[at];
  }
  // Bounds the rounding error of Energy() for every window inside
  // x[0..end): prefix entry i is off by at most i·u·prefix[i] (u = 2^-53,
  // the prefix is nondecreasing), so a difference of two is off by at most
  // (2·end + 1)·u·prefix[end].
  double Slack(std::size_t end) const {
    return static_cast<double>(end + 1) *
           std::numeric_limits<double>::epsilon() * energy_[end];
  }

 private:
  std::vector<double>& energy_;
  std::vector<std::uint32_t>& bad_;
};

// <x, ref0>(at) for at in [b, e), written to out[at − b]. Reads
// x[b .. e + 126].
void ScreenCorrelation(dsp::const_sample_span x, std::size_t b, std::size_t e,
                       cfloat* out) {
  const dsp::simd::Kernels& k = dsp::simd::Active();
  const ScreenTaps& taps = Taps();
  const std::size_t n_off = e - b;
  const std::size_t n_mf = n_off + 120;  // m at b .. e + 119

  struct MfTag {};
  auto& mf = util::Scratch<cfloat, MfTag>();
  mf.resize(n_mf);
  k.fir_complex(x.data() + b, n_mf, taps.pulse.data(), taps.pulse.size(),
                mf.data());
  struct PartialTag {};
  auto& partial = util::Scratch<cfloat, PartialTag>();
  partial.resize(n_off);
  k.fir_complex(x.data() + b + 124, n_off, taps.partial.data(),
                taps.partial.size(), partial.data());

  // Stream r holds m[b + r + 8t].
  const std::size_t stride = (n_mf + 7) / 8;
  struct StreamTag {};
  auto& streams = util::Scratch<cfloat, StreamTag>();
  streams.resize(8 * stride);
  for (std::size_t i = 0; i < n_mf; ++i) {
    streams[(i % 8) * stride + i / 8] = mf[i];
  }

  struct EvenTag {};
  auto& even = util::Scratch<cfloat, EvenTag>();
  struct OddTag {};
  auto& odd = util::Scratch<cfloat, OddTag>();
  even.resize(stride);
  odd.resize(stride);
  for (std::size_t r = 0; r < 8 && r < n_off; ++r) {
    // Offsets b + r + 8t: even chips from stream r at t, odd chips (4
    // samples later) from stream (r + 4) % 8, one step on when that wraps.
    const std::size_t n_t = (n_off - r + 7) / 8;
    const cfloat* odd_stream =
        streams.data() + ((r + 4) % 8) * stride + (r >= 4 ? 1 : 0);
    k.correlate_chips(streams.data() + r * stride, n_t, taps.even.data(),
                      taps.even.size(), even.data());
    k.correlate_chips(odd_stream, n_t, taps.odd.data(), taps.odd.size(),
                      odd.data());
    for (std::size_t t = 0; t < n_t; ++t) {
      const std::size_t j = r + 8 * t;
      const cfloat o = odd[t] + taps.last * partial[j];
      out[j] = cfloat(even[t].real() + o.imag(), even[t].imag() - o.real());
    }
  }
}

}  // namespace

const std::array<std::uint32_t, 16>& ChipTable() {
  // 802.15.4-2006 Table 24, chip 0 in bit 0.
  static const std::array<std::uint32_t, 16> kTable = {
      0xD9C3522E, 0xED9C3522, 0x2ED9C352, 0x22ED9C35,
      0x522ED9C3, 0x3522ED9C, 0xC3522ED9, 0x9C3522ED,
      0x8C96077B, 0xB8C96077, 0x7B8C9607, 0x77B8C960,
      0x077B8C96, 0x6077B8C9, 0x96077B8C, 0xC96077B8,
  };
  return kTable;
}

util::BitVec BytesToChips(std::span<const std::uint8_t> bytes) {
  util::BitVec chips;
  chips.reserve(bytes.size() * 2 * kChipsPerSymbol);
  for (std::uint8_t b : bytes) {
    for (std::uint8_t nibble : {static_cast<std::uint8_t>(b & 0xF),
                                static_cast<std::uint8_t>(b >> 4)}) {
      const std::uint32_t pn = ChipTable()[nibble];
      for (std::size_t k = 0; k < kChipsPerSymbol; ++k) {
        chips.push_back(static_cast<std::uint8_t>((pn >> k) & 1u));
      }
    }
  }
  return chips;
}

dsp::SampleVec ModulateFrame(std::span<const std::uint8_t> psdu) {
  std::vector<std::uint8_t> frame;
  frame.reserve(6 + psdu.size());
  frame.insert(frame.end(), 4, 0x00);  // preamble
  frame.push_back(0xA7);               // SFD
  frame.push_back(static_cast<std::uint8_t>(psdu.size() & 0x7F));  // PHR
  frame.insert(frame.end(), psdu.begin(), psdu.end());
  return RenderChips(BytesToChips(frame));
}

double FrameAirtimeUs(std::size_t psdu_bytes) {
  // 2 symbols/byte at 16 us/symbol.
  return static_cast<double>(6 + psdu_bytes) * 32.0;
}

std::optional<DecodedZbFrame> DecodeFrame(dsp::const_sample_span x,
                                          util::WorkBudget* budget) {
  // Preamble search: 8 consecutive symbol-0 correlations above threshold.
  constexpr float kThreshold = 0.65f;
  if (x.size() < 10 * kSamplesPerSymbol) return std::nullopt;
  const std::size_t limit = x.size() - 10 * kSamplesPerSymbol;

  // Every preamble window the scan can reach is screened first, a block of
  // offsets ahead of the scan; only screen survivors get the exact check.
  const std::size_t n_screen = limit + 7 * kSamplesPerSymbol + 1;
  const WindowPrefix prefix(x);
  const double reject_below =
      (kThreshold - detail::kScreenMargin) *
      (kThreshold - detail::kScreenMargin) * SymbolRefEnergies()[0];
  struct CorrTag {};
  auto& corr = util::Scratch<cfloat, CorrTag>();
  corr.resize(kScreenBlock);
  struct PassTag {};
  auto& pass = util::Scratch<std::uint8_t, PassTag>();
  pass.resize(n_screen);
  std::size_t screened = 0;
  const auto preamble_symbol = [&](std::size_t at) {
    return pass[at] != 0 && SymbolCorrelation(x, at, 0) >= kThreshold;
  };

  for (std::size_t at = 0; at <= limit; ++at) {
    if (at + 7 * kSamplesPerSymbol >= screened) {
      const std::size_t end = std::min(screened + kScreenBlock, n_screen);
      if (budget != nullptr && !budget->Charge(end - screened)) {
        return std::nullopt;
      }
      ScreenCorrelation(x, screened, end, corr.data());
      // Reject against a lower bound on the window energy. Non-finite
      // windows (and every comparison with NaN) fall through to the exact
      // check.
      const double slack = prefix.Slack(end - 1 + kSamplesPerSymbol);
      for (std::size_t w = screened; w < end; ++w) {
        const cfloat a = corr[w - screened];
        const double power = static_cast<double>(a.real()) * a.real() +
                             static_cast<double>(a.imag()) * a.imag();
        pass[w] = !(prefix.Finite(w) &&
                    power < reject_below * (prefix.Energy(w) - slack));
      }
      screened = end;
    }
    if (!preamble_symbol(at)) continue;
    // Require the next 7 preamble symbols too.
    bool preamble = true;
    for (std::size_t m = 1; m < 8 && preamble; ++m) {
      preamble = preamble_symbol(at + m * kSamplesPerSymbol);
    }
    if (!preamble) continue;
    // SFD (0xA7): nibbles 7 then A.
    const std::size_t sfd_at = at + 8 * kSamplesPerSymbol;
    if (sfd_at + 2 * kSamplesPerSymbol > x.size()) return std::nullopt;
    if (SymbolCorrelation(x, sfd_at, 0x7) < kThreshold) continue;
    if (SymbolCorrelation(x, sfd_at + kSamplesPerSymbol, 0xA) < kThreshold) {
      continue;
    }
    // Decode PHR + PSDU by per-symbol argmax correlation.
    auto decode_symbol = [&](std::size_t pos) -> int {
      if (pos + kSamplesPerSymbol > x.size()) return -1;
      const double ex = WindowEnergy(x, pos);
      int best = 0;
      float best_corr = -1.0f;
      for (int s = 0; s < 16; ++s) {
        const float c = SymbolCorrelation(x, pos, s, ex);
        if (c > best_corr) {
          best_corr = c;
          best = s;
        }
      }
      return best;
    };
    std::size_t pos = sfd_at + 2 * kSamplesPerSymbol;
    const int phr_lo = decode_symbol(pos);
    const int phr_hi = decode_symbol(pos + kSamplesPerSymbol);
    if (phr_lo < 0 || phr_hi < 0) return std::nullopt;
    const std::size_t length =
        (static_cast<std::size_t>(phr_hi) << 4 |
         static_cast<std::size_t>(phr_lo)) & 0x7F;
    pos += 2 * kSamplesPerSymbol;
    DecodedZbFrame frame;
    frame.start_sample = static_cast<std::int64_t>(at);
    frame.psdu.reserve(length);
    for (std::size_t b = 0; b < length; ++b) {
      const int lo = decode_symbol(pos);
      const int hi = decode_symbol(pos + kSamplesPerSymbol);
      if (lo < 0 || hi < 0) break;
      frame.psdu.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
      pos += 2 * kSamplesPerSymbol;
    }
    frame.end_sample = static_cast<std::int64_t>(pos);
    if (frame.psdu.size() == length && length >= 2) {
      const std::uint16_t fcs = ZbFcs(
          std::span<const std::uint8_t>(frame.psdu).first(length - 2));
      const std::uint16_t rx = static_cast<std::uint16_t>(
          frame.psdu[length - 2] | (frame.psdu[length - 1] << 8));
      frame.crc_ok = (fcs == rx);
    }
    return frame;
  }
  return std::nullopt;
}

namespace detail {

std::vector<double> ScreenCorrelations(dsp::const_sample_span x) {
  if (x.size() < kSamplesPerSymbol) return {};
  const std::size_t n = x.size() - kSamplesPerSymbol + 1;
  const WindowPrefix prefix(x);
  dsp::SampleVec corr(n);
  ScreenCorrelation(x, 0, n, corr.data());
  std::vector<double> rho(n, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t at = 0; at < n; ++at) {
    if (!prefix.Finite(at)) continue;
    const double re = corr[at].real(), im = corr[at].imag();
    rho[at] = std::sqrt((re * re + im * im) /
                        (prefix.Energy(at) * SymbolRefEnergies()[0]));
  }
  return rho;
}

}  // namespace detail

}  // namespace rfdump::phyzigbee
