#include "rfdump/phyzigbee/phy.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "rfdump/util/crc.hpp"

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

// Normalized correlation of x[at..at+128) against reference `s`.
float SymbolCorrelation(dsp::const_sample_span x, std::size_t at, int s,
                        cfloat* rotation_out = nullptr) {
  const auto& ref = SymbolRefs()[static_cast<std::size_t>(s)];
  const double er = SymbolRefEnergies()[static_cast<std::size_t>(s)];
  cfloat acc{0.0f, 0.0f};
  double ex = 0.0;
  for (std::size_t n = 0; n < kSamplesPerSymbol; ++n) {
    acc += x[at + n] * std::conj(ref[n]);
    ex += std::norm(x[at + n]);
  }
  if (rotation_out) *rotation_out = acc;
  const double denom = std::sqrt(std::max(ex * er, 1e-30));
  return static_cast<float>(std::abs(acc) / denom);
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

std::optional<DecodedZbFrame> DecodeFrame(dsp::const_sample_span x) {
  // Preamble search: 8 consecutive symbol-0 correlations above threshold.
  constexpr float kThreshold = 0.65f;
  if (x.size() < 10 * kSamplesPerSymbol) return std::nullopt;
  const std::size_t limit = x.size() - 10 * kSamplesPerSymbol;
  for (std::size_t at = 0; at <= limit; ++at) {
    if (SymbolCorrelation(x, at, 0) < kThreshold) continue;
    // Require the next 7 preamble symbols too.
    bool preamble = true;
    for (int m = 1; m < 8 && preamble; ++m) {
      preamble = SymbolCorrelation(x, at + m * kSamplesPerSymbol, 0) >=
                 kThreshold;
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
      int best = 0;
      float best_corr = -1.0f;
      for (int s = 0; s < 16; ++s) {
        const float c = SymbolCorrelation(x, pos, s);
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

}  // namespace rfdump::phyzigbee
