// ZigBee (802.15.4) PHY tests: chip table properties, O-QPSK modulation
// structure, frame loopback, detector-relevant timing constants, and the
// preamble screen's differential check against the exhaustive scan.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "rfdump/channel/channel.hpp"
#include "rfdump/dsp/db.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phyzigbee/phy.hpp"
#include "rfdump/util/crc.hpp"
#include "rfdump/util/rng.hpp"

namespace zb = rfdump::phyzigbee;
namespace dsp = rfdump::dsp;
using rfdump::util::Xoshiro256;

namespace {

std::vector<std::uint8_t> MakePsdu(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> psdu(n);
  for (std::size_t i = 0; i + 2 < n; ++i) {
    psdu[i] = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  const std::uint16_t fcs = rfdump::util::Crc16CcittBits(
      rfdump::util::BytesToBitsLsbFirst(
          std::span<const std::uint8_t>(psdu).first(n - 2)),
      0x0000);
  psdu[n - 2] = static_cast<std::uint8_t>(fcs & 0xFF);
  psdu[n - 1] = static_cast<std::uint8_t>(fcs >> 8);
  return psdu;
}

TEST(ZigbeeChips, SixteenSequencesQuasiOrthogonal) {
  const auto& table = zb::ChipTable();
  // Every pair of distinct sequences differs in many chip positions.
  for (std::size_t a = 0; a < 16; ++a) {
    for (std::size_t b = a + 1; b < 16; ++b) {
      const int dist = std::popcount(table[a] ^ table[b]);
      EXPECT_GE(dist, 10) << a << " vs " << b;
    }
  }
}

TEST(ZigbeeChips, CyclicShiftStructure) {
  // Sequences 1..7 are 4-chip right-rotations of sequence 0 (the standard
  // inserts the shift at the front of the chip stream, LSB-first).
  const auto& table = zb::ChipTable();
  const auto rotr32 = [](std::uint32_t v, int k) {
    return (v >> k) | (v << (32 - k));
  };
  for (int s = 1; s < 8; ++s) {
    EXPECT_EQ(table[static_cast<std::size_t>(s)], rotr32(table[0], 4 * s))
        << "symbol " << s;
  }
}

TEST(ZigbeeChips, BytesToChipsExpansion) {
  const std::vector<std::uint8_t> bytes = {0xA7};
  const auto chips = zb::BytesToChips(bytes);
  ASSERT_EQ(chips.size(), 64u);  // 2 symbols x 32 chips
  // Low nibble (7) first.
  for (int k = 0; k < 32; ++k) {
    EXPECT_EQ(chips[static_cast<std::size_t>(k)],
              (zb::ChipTable()[7] >> k) & 1u);
  }
}

TEST(ZigbeeMod, FrameAirtimeAndLength) {
  const auto psdu = MakePsdu(20, 1);
  const auto wave = zb::ModulateFrame(psdu);
  // (6 + 20) bytes * 2 symbols * 128 samples, plus a small O-QPSK tail.
  const std::size_t expected = 26 * 2 * 128;
  EXPECT_GE(wave.size(), expected);
  EXPECT_LE(wave.size(), expected + 64);
  EXPECT_DOUBLE_EQ(zb::FrameAirtimeUs(20), 26.0 * 32.0);
}

TEST(ZigbeeMod, PowerIsBounded) {
  const auto wave = zb::ModulateFrame(MakePsdu(30, 2));
  // O-QPSK half-sine: |I|,|Q| <= 0.7071, total power near constant mid-frame.
  for (const auto& s : wave) {
    EXPECT_LE(std::abs(s.real()), 0.72f);
    EXPECT_LE(std::abs(s.imag()), 0.72f);
  }
  const double mid_power = dsp::MeanPower(
      dsp::const_sample_span(wave).subspan(512, wave.size() - 1024));
  EXPECT_NEAR(mid_power, 0.5, 0.1);
}

TEST(ZigbeeLoopback, CleanDecode) {
  const auto psdu = MakePsdu(24, 3);
  const auto wave = zb::ModulateFrame(psdu);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->psdu, psdu);
  EXPECT_TRUE(frame->crc_ok);
}

TEST(ZigbeeLoopback, NoisyDecode) {
  const auto psdu = MakePsdu(40, 4);
  auto wave = zb::ModulateFrame(psdu);
  Xoshiro256 rng(5);
  rfdump::channel::ScaleToPower(wave, rfdump::dsp::DbToPower(12.0));
  rfdump::channel::AddAwgn(wave, 1.0, rng);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->psdu, psdu);
  EXPECT_TRUE(frame->crc_ok);
}

TEST(ZigbeeLoopback, OffsetStartFound) {
  const auto psdu = MakePsdu(16, 6);
  const auto wave = zb::ModulateFrame(psdu);
  dsp::SampleVec stream(3000, dsp::cfloat{0.0f, 0.0f});
  stream.insert(stream.end(), wave.begin(), wave.end());
  stream.insert(stream.end(), 1000, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(7);
  rfdump::channel::AddAwgn(stream, 1e-4, rng);
  const auto frame = zb::DecodeFrame(stream);
  ASSERT_TRUE(frame.has_value());
  EXPECT_NEAR(static_cast<double>(frame->start_sample), 3000.0, 64.0);
  EXPECT_EQ(frame->psdu, psdu);
}

TEST(ZigbeeLoopback, NoiseOnlyNothing) {
  dsp::SampleVec noise(30000);
  Xoshiro256 rng(8);
  rfdump::channel::AddAwgn(noise, 1.0, rng);
  EXPECT_FALSE(zb::DecodeFrame(noise).has_value());
}

TEST(ZigbeeLoopback, CorruptedCrcFlagged) {
  auto psdu = MakePsdu(20, 9);
  psdu[5] ^= 0x10;  // corrupt after FCS computed
  const auto wave = zb::ModulateFrame(psdu);
  const auto frame = zb::DecodeFrame(wave);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->crc_ok);
}

TEST(ZigbeeTiming, ConstantsMatchTable2) {
  EXPECT_DOUBLE_EQ(zb::kSlotUs, 320.0);
  EXPECT_DOUBLE_EQ(zb::kSifsUs, 192.0);
  EXPECT_DOUBLE_EQ(zb::kChipRateHz, 2e6);
  EXPECT_DOUBLE_EQ(zb::kSymbolRateHz, 62.5e3);
}

// ------------------------------------------------ preamble screen vs scan
//
// `exhaustive` is the reference decoder: the full normalized symbol-0
// correlation at every offset, with no screen. The screened DecodeFrame
// must return exactly what it returns.

namespace exhaustive {

using dsp::cfloat;
constexpr std::size_t kSps = 128;

dsp::SampleVec RenderChips(const rfdump::util::BitVec& chips) {
  std::array<float, 8> pulse{};
  for (std::size_t i = 0; i < pulse.size(); ++i) {
    pulse[i] = std::sin(static_cast<float>(std::numbers::pi) *
                        (static_cast<float>(i) + 0.5f) / 8.0f);
  }
  const std::size_t total = chips.size() * 4 + 4 + 8;
  std::vector<float> i_branch(total, 0.0f), q_branch(total, 0.0f);
  for (std::size_t k = 0; k < chips.size(); ++k) {
    const float v = chips[k] ? 1.0f : -1.0f;
    auto& branch = (k % 2 == 0) ? i_branch : q_branch;
    for (std::size_t s = 0; s < 8; ++s) branch[k * 4 + s] += v * pulse[s];
  }
  dsp::SampleVec out(total);
  for (std::size_t n = 0; n < total; ++n) {
    out[n] = cfloat(i_branch[n], q_branch[n]) * 0.7071f;
  }
  return out;
}

const std::array<dsp::SampleVec, 16>& Refs() {
  static const auto refs = [] {
    std::array<dsp::SampleVec, 16> r;
    for (std::uint8_t s = 0; s < 16; ++s) {
      rfdump::util::BitVec chips(32);
      for (std::size_t k = 0; k < 32; ++k) {
        chips[k] = static_cast<std::uint8_t>((zb::ChipTable()[s] >> k) & 1u);
      }
      r[s] = RenderChips(chips);
      r[s].resize(kSps);
    }
    return r;
  }();
  return refs;
}

float SymbolCorrelation(dsp::const_sample_span x, std::size_t at, int s) {
  const auto& ref = Refs()[static_cast<std::size_t>(s)];
  double er = 0.0;
  for (const cfloat r : ref) er += std::norm(r);
  cfloat acc{0.0f, 0.0f};
  double ex = 0.0;
  for (std::size_t n = 0; n < kSps; ++n) {
    acc += x[at + n] * std::conj(ref[n]);
    ex += std::norm(x[at + n]);
  }
  const double denom = std::sqrt(std::max(ex * er, 1e-30));
  return static_cast<float>(std::abs(acc) / denom);
}

std::optional<zb::DecodedZbFrame> DecodeFrame(dsp::const_sample_span x) {
  constexpr float kThreshold = 0.65f;
  if (x.size() < 10 * kSps) return std::nullopt;
  const std::size_t limit = x.size() - 10 * kSps;
  for (std::size_t at = 0; at <= limit; ++at) {
    if (SymbolCorrelation(x, at, 0) < kThreshold) continue;
    bool preamble = true;
    for (std::size_t m = 1; m < 8 && preamble; ++m) {
      preamble = SymbolCorrelation(x, at + m * kSps, 0) >= kThreshold;
    }
    if (!preamble) continue;
    const std::size_t sfd_at = at + 8 * kSps;
    if (SymbolCorrelation(x, sfd_at, 0x7) < kThreshold) continue;
    if (SymbolCorrelation(x, sfd_at + kSps, 0xA) < kThreshold) continue;
    auto decode_symbol = [&](std::size_t pos) -> int {
      if (pos + kSps > x.size()) return -1;
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
    std::size_t pos = sfd_at + 2 * kSps;
    const int phr_lo = decode_symbol(pos);
    const int phr_hi = decode_symbol(pos + kSps);
    if (phr_lo < 0 || phr_hi < 0) return std::nullopt;
    const std::size_t length = (static_cast<std::size_t>(phr_hi) << 4 |
                                static_cast<std::size_t>(phr_lo)) & 0x7F;
    pos += 2 * kSps;
    zb::DecodedZbFrame frame;
    frame.start_sample = static_cast<std::int64_t>(at);
    for (std::size_t b = 0; b < length; ++b) {
      const int lo = decode_symbol(pos);
      const int hi = decode_symbol(pos + kSps);
      if (lo < 0 || hi < 0) break;
      frame.psdu.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
      pos += 2 * kSps;
    }
    frame.end_sample = static_cast<std::int64_t>(pos);
    if (frame.psdu.size() == length && length >= 2) {
      const std::uint16_t fcs = rfdump::util::Crc16CcittBits(
          rfdump::util::BytesToBitsLsbFirst(
              std::span<const std::uint8_t>(frame.psdu).first(length - 2)),
          0x0000);
      frame.crc_ok = fcs == (frame.psdu[length - 2] |
                             (frame.psdu[length - 1] << 8));
    }
    return frame;
  }
  return std::nullopt;
}

}  // namespace exhaustive

// Asserts the screened decoder returns exactly the exhaustive scan's result.
void ExpectSameDecode(dsp::const_sample_span x, const std::string& what) {
  const auto want = exhaustive::DecodeFrame(x);
  const auto got = zb::DecodeFrame(x);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->start_sample, want->start_sample) << what;
  EXPECT_EQ(got->end_sample, want->end_sample) << what;
  EXPECT_EQ(got->psdu, want->psdu) << what;
  EXPECT_EQ(got->crc_ok, want->crc_ok) << what;
}

// Asserts the screen's normalized symbol-0 correlation stays within 1% of
// the screen margin of the exact one at every offset of a finite buffer.
void ExpectScreenTracksExact(dsp::const_sample_span x,
                             const std::string& what) {
  const auto rho = zb::detail::ScreenCorrelations(x);
  ASSERT_EQ(rho.size(), x.size() - exhaustive::kSps + 1) << what;
  double worst = 0.0;
  for (std::size_t at = 0; at < rho.size(); ++at) {
    const double exact = exhaustive::SymbolCorrelation(x, at, 0);
    worst = std::max(worst, std::abs(rho[at] - exact));
  }
  EXPECT_LE(worst, zb::detail::kScreenMargin / 100.0) << what;
}

dsp::SampleVec Awgn(std::size_t n, double power, std::uint64_t seed) {
  dsp::SampleVec x(n);
  Xoshiro256 rng(seed);
  rfdump::channel::AddAwgn(x, power, rng);
  return x;
}

// 802.11b frames at 1 and 2 Mbps back to back, over light noise.
dsp::SampleVec WifiAir(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  rfdump::phy80211::Modulator mod;
  dsp::SampleVec air(500, dsp::cfloat{0.0f, 0.0f});
  for (const auto rate : {rfdump::phy80211::Rate::k1Mbps,
                          rfdump::phy80211::Rate::k2Mbps}) {
    std::vector<std::uint8_t> mpdu(24 + rng.UniformInt(0, 40));
    for (auto& b : mpdu) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    const auto frame = mod.Modulate(mpdu, rate);
    air.insert(air.end(), frame.begin(), frame.end());
    air.insert(air.end(), 300, dsp::cfloat{0.0f, 0.0f});
  }
  rfdump::channel::AddAwgn(air, 1e-3, rng);
  return air;
}

// A ZigBee frame at `offset` in unit-power noise, with carrier offset
// `cfo_hz` and signal-to-noise ratio `snr_db`.
dsp::SampleVec ZigbeeOnAir(std::size_t offset, double cfo_hz, double snr_db,
                           std::uint64_t seed) {
  auto wave = zb::ModulateFrame(MakePsdu(12, seed));
  rfdump::channel::ScaleToPower(wave, dsp::DbToPower(snr_db));
  rfdump::channel::ApplyFrequencyOffset(wave, cfo_hz, 8e6, 0);
  dsp::SampleVec x(offset, dsp::cfloat{0.0f, 0.0f});
  x.insert(x.end(), wave.begin(), wave.end());
  x.resize(x.size() + 600, dsp::cfloat{0.0f, 0.0f});
  Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ull);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  return x;
}

TEST(ZigbeeScreen, MatchesExhaustiveScanOnAwgn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const double power : {1e-6, 1.0, 1e6}) {
      const auto x = Awgn(6000, power, seed);
      ExpectSameDecode(x, "awgn seed " + std::to_string(seed));
      ExpectScreenTracksExact(x, "awgn seed " + std::to_string(seed));
    }
  }
}

TEST(ZigbeeScreen, MatchesExhaustiveScanOn80211bAir) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto x = WifiAir(seed);
    ExpectSameDecode(x, "802.11b seed " + std::to_string(seed));
    ExpectScreenTracksExact(x, "802.11b seed " + std::to_string(seed));
  }
}

TEST(ZigbeeScreen, MatchesExhaustiveScanAroundTheThreshold) {
  // Carrier offsets near 30 kHz turn a 16 us window's coherent sum into
  // roughly 0.65 of its peak, and the SNR spreads the frames on both sides:
  // the set must hold frames whose best first-window correlation lies
  // above the threshold and frames where it lies below.
  Xoshiro256 rng(21);
  int above = 0, below = 0, decoded = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::size_t offset = 200 + rng.UniformInt(0, 2000);
    const double cfo = 20e3 + 20e3 * rng.UniformDouble();
    const double snr = 2.0 + 14.0 * rng.UniformDouble();
    const auto x = ZigbeeOnAir(offset, cfo, snr, 100 + i);
    float best = 0.0f;
    for (std::size_t at = offset - 8; at <= offset + 8; ++at) {
      best = std::max(best, exhaustive::SymbolCorrelation(x, at, 0));
    }
    (best >= 0.65f ? above : below) += 1;
    const std::string what = "frame " + std::to_string(i);
    ExpectSameDecode(x, what);
    if (zb::DecodeFrame(x)) ++decoded;
    if (i < 6) ExpectScreenTracksExact(x, what);
  }
  EXPECT_GT(above, 0);
  EXPECT_GT(below, 0);
  EXPECT_GT(decoded, 0);
}

TEST(ZigbeeScreen, NonFiniteWindowsTakeTheExactPath) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const auto clean = ZigbeeOnAir(900, 0.0, 15.0, 31);
  ASSERT_TRUE(zb::DecodeFrame(clean).has_value());
  // Before the frame, inside its preamble, inside its payload.
  for (const std::size_t at : {std::size_t{100}, std::size_t{1400},
                               clean.size() - 900}) {
    for (const dsp::cfloat bad :
         {dsp::cfloat{kNan, 0.0f}, dsp::cfloat{0.0f, kInf},
          dsp::cfloat{-kInf, 1.0f}, dsp::cfloat{1e30f, 1e30f}}) {
      auto x = clean;
      x[at] = bad;
      ExpectSameDecode(x, "bad sample at " + std::to_string(at));
    }
  }
  // Non-finite windows report NaN, finite ones a value.
  auto x = Awgn(2000, 1.0, 32);
  x[1000] = dsp::cfloat{kNan, kNan};
  const auto rho = zb::detail::ScreenCorrelations(x);
  EXPECT_TRUE(std::isnan(rho[1000]));
  EXPECT_TRUE(std::isnan(rho[873]));
  EXPECT_FALSE(std::isnan(rho[872]));
  EXPECT_FALSE(std::isnan(rho[1001]));
}

TEST(ZigbeeScreen, WeakFrameAfterAHugeBurst) {
  // A burst ~129 dB above the frame drives the energy prefix to 2^55, where
  // one ulp is 8: every frame sample's power of 4.1 rounds up to 8, so the
  // prefix difference nearly doubles the frame's window energy. The screen
  // must subtract its rounding bound rather than reject the frame.
  dsp::SampleVec x = Awgn(1024, std::ldexp(1.0, 45), 51);
  x.resize(x.size() + 300, dsp::cfloat{0.0f, 0.0f});
  auto wave = zb::ModulateFrame(MakePsdu(12, 52));
  rfdump::channel::ScaleToPower(wave, 4.1);
  rfdump::channel::ApplyFrequencyOffset(wave, 20e3, 8e6, 0);
  x.insert(x.end(), wave.begin(), wave.end());
  x.resize(x.size() + 600, dsp::cfloat{0.0f, 0.0f});
  ASSERT_TRUE(exhaustive::DecodeFrame(x).has_value());
  ExpectSameDecode(x, "frame after burst");
}

TEST(ZigbeeScreen, BufferLengthEdges) {
  // Exactly ten symbols is the shortest buffer the scan accepts; a frame's
  // preamble and SFD fill it, and its PHR does not fit.
  const auto frame = ZigbeeOnAir(0, 0.0, 20.0, 41);
  for (const std::size_t n : {std::size_t{10 * 128 - 1}, std::size_t{10 * 128},
                              std::size_t{10 * 128 + 1}}) {
    const dsp::const_sample_span head(frame.data(), n);
    ExpectSameDecode(head, "frame head of " + std::to_string(n));
    const auto noise = Awgn(n, 1.0, n);
    ExpectSameDecode(noise, "noise of " + std::to_string(n));
  }
}

}  // namespace
