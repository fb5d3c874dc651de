// Bluetooth PHY/baseband tests: sync word code properties, whitening, FEC,
// packet bit round trips, GFSK loopback and the full band demodulator.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>
#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/dsp/energy.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phybt/demodulator.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/phybt/hopping.hpp"
#include "rfdump/phybt/modulator.hpp"
#include "rfdump/phybt/packet.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace bt = rfdump::phybt;
namespace dsp = rfdump::dsp;
namespace obs = rfdump::obs;
namespace util = rfdump::util;

namespace {

// ---------------------------------------------------------------- sync word

TEST(SyncWord, RoundTripsThroughVerify) {
  for (std::uint32_t lap : {0x000000u, 0x123456u, 0x9E8B33u, 0xFFFFFFu}) {
    const std::uint64_t w = bt::SyncWord(lap);
    const auto got = bt::VerifySyncWord(w);
    ASSERT_TRUE(got.has_value()) << std::hex << lap;
    EXPECT_EQ(*got, lap & 0xFFFFFF);
  }
}

TEST(SyncWord, DistinctLapsFarApart) {
  // The BCH(64,30) code has minimum distance 14.
  const std::uint64_t a = bt::SyncWord(0x123456);
  const std::uint64_t b = bt::SyncWord(0x123457);
  EXPECT_GE(std::popcount(a ^ b), 14);
}

TEST(SyncWord, SingleBitErrorRejectedExactMode) {
  const std::uint64_t w = bt::SyncWord(0xABCDEF);
  for (int bit = 0; bit < 64; bit += 7) {
    EXPECT_FALSE(bt::VerifySyncWord(w ^ (1ull << bit), 0).has_value());
  }
}

TEST(SyncWord, ErrorsToleratedWithSlack) {
  const std::uint64_t w = bt::SyncWord(0xABCDEF);
  // Two errors in the parity section must still verify with slack 2.
  const std::uint64_t corrupted = w ^ 0b101ull;
  const auto got = bt::VerifySyncWord(corrupted, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0xABCDEFu);
}

TEST(SyncWord, RandomWordsRejected) {
  util::Xoshiro256 rng(3);
  int false_accepts = 0;
  for (int i = 0; i < 2000; ++i) {
    if (bt::VerifySyncWord(rng(), 0).has_value()) ++false_accepts;
  }
  // 34 parity bits: false accept probability ~6e-11 per word.
  EXPECT_EQ(false_accepts, 0);
}

TEST(SyncWord, BchParityTablesMatchBitwiseDivision) {
  for (int bit = 0; bit < 30; ++bit) {
    const std::uint64_t info = 1ull << bit;
    EXPECT_EQ(bt::BchParity(info), bt::BchParityBitwise(info)) << bit;
  }
  util::Xoshiro256 rng(30);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t info = rng() & 0x3FFFFFFFull;
    ASSERT_EQ(bt::BchParity(info), bt::BchParityBitwise(info))
        << std::hex << info;
  }
}

// ---------------------------------------------------------------- whitening

TEST(Whitening, PeriodAndBalance) {
  // x^7+x^4+1 is primitive: period 127, 64 ones per period.
  const auto seq = bt::WhiteningSequence(0x15, 254);
  int ones = 0;
  for (std::size_t i = 0; i < 127; ++i) {
    EXPECT_EQ(seq[i], seq[i + 127]) << i;
    ones += seq[i];
  }
  EXPECT_EQ(ones, 64);
}

TEST(Whitening, SeedsDiffer) {
  const auto a = bt::WhiteningSequence(0, 64);
  const auto b = bt::WhiteningSequence(1, 64);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------ packets

TEST(BtPacket, AirBitCounts) {
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kPoll, 0), 68u + 54u);
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kDh1, 27),
            68u + 54u + (1u + 27u + 2u) * 8u);
  EXPECT_EQ(bt::PacketAirBits(bt::PacketType::kDh5, 339),
            68u + 54u + (2u + 339u + 2u) * 8u);
}

TEST(BtPacket, SlotsAndCapacity) {
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh1), 1u);
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh3), 3u);
  EXPECT_EQ(bt::SlotsFor(bt::PacketType::kDh5), 5u);
  EXPECT_EQ(bt::MaxPayloadBytes(bt::PacketType::kDh5), 339u);
  EXPECT_EQ(bt::MaxPayloadBytes(bt::PacketType::kPoll), 0u);
}

TEST(BtPacket, BitsRoundTrip) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.lt_addr = 3;
  hdr.type = bt::PacketType::kDh5;
  hdr.seqn = true;
  util::Xoshiro256 rng(5);
  std::vector<std::uint8_t> payload(300);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));

  const auto bits = bt::BuildPacketBits(addr, hdr, payload, 0x2B);
  ASSERT_EQ(bits.size(), bt::PacketAirBits(bt::PacketType::kDh5, 300));
  // Strip the access code, parse the rest.
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), addr.uap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.lt_addr, 3);
  EXPECT_EQ(parsed->header.type, bt::PacketType::kDh5);
  EXPECT_TRUE(parsed->header.seqn);
  EXPECT_EQ(parsed->clk6, 0x2B);
  EXPECT_TRUE(parsed->crc_ok);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(BtPacket, WrongUapFailsParse) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  std::vector<std::uint8_t> payload(20, 0xAB);
  const auto bits = bt::BuildPacketBits(addr, hdr, payload, 0x11);
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), 0x48);
  // With the wrong UAP either nothing parses or the CRC fails.
  if (parsed.has_value()) {
    EXPECT_FALSE(parsed->crc_ok);
  }
}

TEST(BtPacket, HeaderOnlyPacket) {
  bt::DeviceAddress addr{0x11AA55, 0x30};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kPoll;
  const auto bits = bt::BuildPacketBits(addr, hdr, {}, 0);
  EXPECT_EQ(bits.size(), 68u + 54u);
  const auto parsed = bt::ParsePacketBits(
      std::span<const std::uint8_t>(bits).subspan(68), addr.uap);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.type, bt::PacketType::kPoll);
  EXPECT_TRUE(parsed->payload.empty());
}

// ------------------------------------------------------------------ hopping

TEST(Hopping, UniformishOver79) {
  std::array<int, 79> counts{};
  for (std::uint32_t clk = 0; clk < 79 * 100; ++clk) {
    const int ch = bt::HopChannel(0x2A96EF, clk);
    ASSERT_GE(ch, 0);
    ASSERT_LT(ch, 79);
    ++counts[static_cast<std::size_t>(ch)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 50);
    EXPECT_LT(c, 200);
  }
}

TEST(Hopping, VisibleWindowMapping) {
  EXPECT_FALSE(bt::ChannelOffsetHz(0).has_value());
  EXPECT_FALSE(bt::ChannelOffsetHz(37).has_value());
  EXPECT_FALSE(bt::ChannelOffsetHz(46).has_value());
  ASSERT_TRUE(bt::ChannelOffsetHz(38).has_value());
  EXPECT_DOUBLE_EQ(*bt::ChannelOffsetHz(38), -3.5e6);
  EXPECT_DOUBLE_EQ(*bt::ChannelOffsetHz(45), 3.5e6);
  EXPECT_DOUBLE_EQ(bt::VisibleIndexOffsetHz(4), 0.5e6);
}

TEST(Hopping, VisibleFractionNearEightOver79) {
  int visible = 0;
  const int total = 7900;
  for (int clk = 0; clk < total; ++clk) {
    if (bt::ChannelOffsetHz(bt::HopChannel(0x9E8B33, clk))) ++visible;
  }
  const double frac = static_cast<double>(visible) / total;
  EXPECT_NEAR(frac, 8.0 / 79.0, 0.02);
}

// --------------------------------------------------------------------- GFSK

TEST(Gfsk, ConstantEnvelope) {
  util::BitVec bits(100);
  util::Xoshiro256 rng(6);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto burst = bt::GfskModulate(bits);
  for (const auto& s : burst) {
    EXPECT_NEAR(std::abs(s), 1.0f, 1e-5f);
  }
}

TEST(Gfsk, ContinuousPhase) {
  // Second phase difference must be small everywhere (the paper's GFSK
  // detector relies on exactly this).
  util::BitVec bits(64, 1u);
  bits[10] = 0;
  bits[30] = 0;
  const auto burst = bt::GfskModulate(bits);
  const auto d1 = dsp::PhaseDiff(burst);
  for (std::size_t i = 1; i < d1.size(); ++i) {
    const float d2 = dsp::WrapPhase(d1[i] - d1[i - 1]);
    EXPECT_LT(std::abs(d2), 0.12f);  // well below any PSK symbol jump
  }
}

TEST(Gfsk, DiscriminatorRecoversBits) {
  util::BitVec bits(200);
  util::Xoshiro256 rng(7);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
  const auto burst = bt::GfskModulate(bits, 2);
  std::vector<float> freq;
  bt::FmDiscriminateInto(burst, freq);
  ASSERT_EQ(freq.size(), burst.size() - 1);
  // First symbol center: 2 ramp symbols then half a symbol.
  const std::size_t first_center = 2 * bt::kSamplesPerSymbol + 4;
  const auto sliced = bt::SliceSymbols(freq, first_center, bits.size());
  EXPECT_EQ(sliced, bits);
}

// A random discriminator track with exact zeros and exact ties mixed in,
// so the plane's `> 0` decisions are tested at the boundary too.
std::vector<float> RandomTrack(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<float> f(n);
  for (auto& v : f) {
    const auto kind = rng.UniformInt(0, 9);
    v = kind == 0   ? 0.0f
        : kind == 1 ? 0.25f
        : kind == 2 ? -0.25f
                    : static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  return f;
}

TEST(GfskChannel, SlicerPlaneWordEqualsSliceSymbols64) {
  std::vector<std::uint64_t> words;
  for (const std::size_t n : {std::size_t{600}, std::size_t{1000},
                              std::size_t{4097}, std::size_t{12345}}) {
    const auto freq = RandomTrack(n, n);
    const bt::SlicerPlane plane = bt::PackSlicerPlane(freq, words);
    // Every center whose 64 symbols lie in [1, n - 2].
    for (std::size_t c = 1; c + 63 * bt::kSamplesPerSymbol + 2 <= n; ++c) {
      const auto bits = bt::SliceSymbols(freq, c, 64);
      ASSERT_EQ(bits.size(), 64u);
      ASSERT_EQ(plane.Word(c, 64), util::BitsToUintLsbFirst(bits))
          << "n " << n << " center " << c;
    }
  }
}

TEST(GfskChannel, MixTableIsTheNcosFirstPeriod) {
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    const double offset = bt::VisibleIndexOffsetHz(idx);
    const bt::GfskChannel ch(offset);
    ASSERT_EQ(ch.period(), 16u) << idx;
    dsp::Nco nco(-offset, dsp::kSampleRateHz);
    for (const dsp::cfloat t : ch.mix_table()) EXPECT_EQ(t, nco.Next());
  }
}

TEST(GfskChannel, MixStaysWithinOneUnitUlpOfTheNco) {
  // The Nco accumulates phase in double; past the first period only its
  // near-zero components drift from the table's, by far less than one ulp
  // of the unit phasor. Every other component is bit-equal.
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    const double offset = bt::VisibleIndexOffsetHz(idx);
    const bt::GfskChannel ch(offset);
    dsp::Nco nco(-offset, dsp::kSampleRateHz);
    for (std::size_t n = 0; n < 1'000'000; ++n) {
      const dsp::cfloat want = nco.Next();
      const dsp::cfloat got = ch.mix_table()[n % ch.period()];
      for (const auto& [w, g] : {std::pair{want.real(), got.real()},
                                 std::pair{want.imag(), got.imag()}}) {
        ASSERT_LT(std::abs(w - g), 0x1p-24f) << idx << " " << n;
        if (std::abs(w) >= 0x1p-24f) {
          ASSERT_EQ(w, g) << idx << " " << n;
        }
      }
    }
  }
}

TEST(GfskChannel, RejectsOffsetsWithoutAShortPeriod) {
  // 100 kHz repeats every 80 samples at 8 Msps; 1234.5 Hz never does.
  EXPECT_THROW(bt::GfskChannel(100e3), std::invalid_argument);
  EXPECT_THROW(bt::GfskChannel(1234.5), std::invalid_argument);
  EXPECT_EQ(bt::GfskChannel(125e3).period(), 64u);
  EXPECT_EQ(bt::GfskChannel(0.0).period(), 1u);
}

TEST(GfskChannel, EmptyWindowGivesAnEmptyTrack) {
  const bt::GfskTrack track =
      bt::GfskChannel(bt::VisibleIndexOffsetHz(0)).Process({}, 0.0);
  EXPECT_TRUE(track.freq.empty());
  EXPECT_TRUE(track.power.empty());
  EXPECT_GT(track.gate, 0.0f);
}

// ----------------------------------------------------------- band demod

bt::BtBurst MakeVisibleBurst(const bt::DeviceAddress& addr,
                             std::vector<std::uint8_t> payload,
                             std::uint32_t clk_start) {
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh5;
  // Find a clk whose hop lands in the visible window.
  for (std::uint32_t clk = clk_start;; ++clk) {
    auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
    if (!burst.samples.empty()) return burst;
  }
}

TEST(BtDemod, DecodesVisibleBurst) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  std::vector<std::uint8_t> payload(225);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  auto burst = MakeVisibleBurst(addr, payload, 100);
  // Embed in a quiet band with margins.
  dsp::SampleVec band(2000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 2000, dsp::cfloat{0.0f, 0.0f});
  util::Xoshiro256 rng(8);
  rfdump::channel::AddAwgn(band, 1e-4, rng);  // ~40 dB SNR

  bt::Demodulator demod;
  const auto pkts = demod.DecodeAll(band);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].lap, addr.lap);
  EXPECT_EQ(pkts[0].packet.header.type, bt::PacketType::kDh5);
  EXPECT_TRUE(pkts[0].packet.crc_ok);
  EXPECT_EQ(pkts[0].packet.payload, payload);
  EXPECT_NEAR(static_cast<double>(pkts[0].start_sample), 2000.0, 64.0);
}

TEST(BtDemod, DecodesABurstOnEveryVisibleChannel) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  const std::vector<std::uint8_t> payload(20, 0xC3);
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh1;
  std::vector<bool> seen(bt::kVisibleChannels, false);
  int found = 0;
  for (std::uint32_t clk = 0; found < bt::kVisibleChannels; ++clk) {
    const auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
    if (burst.samples.empty()) continue;
    const int idx = burst.channel - bt::kFirstVisibleChannel;
    if (seen[static_cast<std::size_t>(idx)]) continue;
    seen[static_cast<std::size_t>(idx)] = true;
    ++found;

    dsp::SampleVec band(1500, dsp::cfloat{0.0f, 0.0f});
    band.insert(band.end(), burst.samples.begin(), burst.samples.end());
    band.insert(band.end(), 1500, dsp::cfloat{0.0f, 0.0f});
    util::Xoshiro256 rng(static_cast<std::uint64_t>(idx) + 20);
    rfdump::channel::AddAwgn(band, 1e-4, rng);
    bt::Demodulator demod;
    const auto pkts = demod.DecodeAll(band);
    ASSERT_EQ(pkts.size(), 1u) << "visible channel " << idx;
    EXPECT_EQ(pkts[0].channel_index, idx);
    EXPECT_EQ(pkts[0].lap, addr.lap);
    EXPECT_TRUE(pkts[0].packet.crc_ok);
    EXPECT_EQ(pkts[0].packet.payload, payload);
  }
}

TEST(BtDemod, SingleChannelModeOnlySeesItsChannel) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  std::vector<std::uint8_t> payload(50, 0x5A);
  auto burst = MakeVisibleBurst(addr, payload, 500);
  const int vis_idx = burst.channel - bt::kFirstVisibleChannel;
  dsp::SampleVec band(1000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 1000, dsp::cfloat{0.0f, 0.0f});
  util::Xoshiro256 rng(9);
  rfdump::channel::AddAwgn(band, 1e-4, rng);

  bt::Demodulator::Config cfg;
  cfg.channel_index = vis_idx;
  bt::Demodulator right(cfg);
  EXPECT_EQ(right.DecodeAll(band).size(), 1u);

  cfg.channel_index = (vis_idx + 4) % 8;
  bt::Demodulator wrong(cfg);
  EXPECT_TRUE(wrong.DecodeAll(band).empty());
}

TEST(BtDemod, NoiseOnlyFindsNothing) {
  dsp::SampleVec band(50000);
  util::Xoshiro256 rng(10);
  rfdump::channel::AddAwgn(band, 1.0, rng);
  bt::Demodulator demod;
  EXPECT_TRUE(demod.DecodeAll(band).empty());
}

// ------------------------------------------------------ sync-check tally

/// The scan loop's candidate walk on visible channel `idx`, replayed from
/// outside: every NextCandidate hit counts; a decoded packet moves past its
/// airtime, a verified sync word with an undecodable header one symbol,
/// anything else one sample.
std::uint64_t CountSyncCandidates(const dsp::SampleVec& x, int idx,
                                  const std::vector<bt::DecodedBtPacket>& pkts) {
  constexpr std::size_t kSps = bt::kSamplesPerSymbol;
  const auto track =
      bt::GfskChannel(bt::VisibleIndexOffsetHz(idx)).Process(x, 0.0);
  const std::size_t need = 68 * kSps;  // access code
  const std::size_t limit =
      track.freq.size() > need ? track.freq.size() - need : 0;
  std::uint64_t hits = 0;
  for (std::size_t pos = 1; (pos = track.NextCandidate(pos, limit)) < limit;) {
    ++hits;
    const auto pkt = std::find_if(pkts.begin(), pkts.end(), [&](const auto& p) {
      return p.channel_index == idx &&
             p.start_sample == static_cast<std::int64_t>(pos);
    });
    if (pkt != pkts.end()) {
      pos = static_cast<std::size_t>(pkt->end_sample);
    } else if (bt::VerifySyncWord(track.plane.Word(pos + 4 * kSps, 64), 0)) {
      pos += kSps;
    } else {
      ++pos;
    }
  }
  return hits;
}

std::uint64_t SyncChecks() {
  return obs::Registry::Default()
      .GetCounter("rfdump_phybt_sync_checks_total")
      .value();
}

TEST(BtDemod, SyncCheckCounterCountsEveryCandidate) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  auto burst = MakeVisibleBurst(addr, std::vector<std::uint8_t>(60, 0x3C), 7);
  dsp::SampleVec band(3000, dsp::cfloat{0.0f, 0.0f});
  band.insert(band.end(), burst.samples.begin(), burst.samples.end());
  band.insert(band.end(), 3000, dsp::cfloat{0.0f, 0.0f});
  util::Xoshiro256 rng(12);
  rfdump::channel::AddAwgn(band, 3e-2, rng);  // noise that passes the gate

  const std::uint64_t before = SyncChecks();
  const auto pkts = bt::Demodulator().DecodeAll(band);
  const std::uint64_t delta = SyncChecks() - before;
  ASSERT_EQ(pkts.size(), 1u);
  std::uint64_t hits = 0;
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    hits += CountSyncCandidates(band, idx, pkts);
  }
  EXPECT_GT(hits, static_cast<std::uint64_t>(bt::kVisibleChannels));
  EXPECT_EQ(delta, RFDUMP_OBS_ENABLED ? hits : 0u);
}

TEST(BtDemod, SyncCheckCounterCountsTheCandidateThatExpiresTheBudget) {
  dsp::SampleVec band(20000);
  util::Xoshiro256 rng(13);
  rfdump::channel::AddAwgn(band, 1.0, rng);
  // Channel 0's front matter plus ten sync checks fit; the eleventh check
  // is counted, fails its charge and ends the scan (and the band loop).
  constexpr std::uint64_t kChecks = 11;
  util::WorkBudget budget;
  budget.Arm({.max_samples = band.size() + (kChecks - 1) * 64 * 8,
              .max_cpu_seconds = 0.0});
  bt::Demodulator::Config cfg;
  cfg.budget = &budget;

  const std::uint64_t before = SyncChecks();
  EXPECT_TRUE(bt::Demodulator(cfg).DecodeAll(band).empty());
  const std::uint64_t delta = SyncChecks() - before;
  EXPECT_TRUE(budget.expired());
  ASSERT_GE(CountSyncCandidates(band, 0, {}), kChecks);
  EXPECT_EQ(delta, RFDUMP_OBS_ENABLED ? kChecks : 0u);
}

TEST(BtDemod, OutOfBandHopNotCaptured) {
  bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh1;
  std::vector<std::uint8_t> payload(20, 1);
  // Find a clk that hops OUTSIDE the visible window.
  for (std::uint32_t clk = 0;; ++clk) {
    const int ch = bt::HopChannel(addr.lap, clk);
    if (!bt::ChannelOffsetHz(ch)) {
      const auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
      EXPECT_TRUE(burst.samples.empty());
      EXPECT_EQ(burst.channel, ch);
      break;
    }
  }
}

// ------------------------------------------------------ occupancy screen

/// A noise span of power 1, the floor every screen test configures.
dsp::SampleVec UnitNoise(std::size_t n, std::uint64_t seed) {
  dsp::SampleVec x(n);
  util::Xoshiro256 rng(seed);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  return x;
}

bool OccupiedOn(int idx, dsp::const_sample_span x, double floor) {
  return bt::GfskChannel(bt::VisibleIndexOffsetHz(idx)).Occupied(x, floor);
}

TEST(GfskScreen, KeepsEveryL2PingPacketFrom0To15Db) {
  // l2ping's DH5 packets (225 + seq % 115 payload bytes, one per 5-slot
  // hop), visible hops only, over unit noise. DESIGN.md §16 has the sweep
  // the screen's threshold comes from: it passes such spans from about
  // -7 dB, and the unscreened scanner first decodes one at 2 dB.
  const bt::DeviceAddress addr{0x2A96EF, 0x47};
  bt::PacketHeader hdr;
  hdr.type = bt::PacketType::kDh5;
  for (int snr_db = 0; snr_db <= 15; ++snr_db) {
    rfdump::emu::Ether ether({}, static_cast<std::uint64_t>(snr_db) + 40);
    std::vector<int> channel;
    std::int64_t t = 2000;
    for (std::uint32_t seq = 0, clk = 0; channel.size() < 12; ++seq, clk += 5) {
      const std::vector<std::uint8_t> payload(225 + seq % 115,
                                              static_cast<std::uint8_t>(seq));
      const auto burst = bt::ModulatePacket(addr, hdr, payload, clk);
      if (burst.samples.empty()) continue;
      ether.AddBurst(burst.samples, t, snr_db, {});
      channel.push_back(burst.channel - bt::kFirstVisibleChannel);
      t += static_cast<std::int64_t>(burst.samples.size()) + 5000;
    }
    const dsp::SampleVec x = ether.Render(t);
    for (std::size_t k = 0; k < channel.size(); ++k) {
      const auto& truth = ether.truth()[k];
      const std::int64_t a = std::max<std::int64_t>(truth.start_sample - 400, 0);
      const std::int64_t b = std::min<std::int64_t>(
          truth.end_sample + 400, static_cast<std::int64_t>(x.size()));
      const dsp::const_sample_span span(x.data() + a,
                                        static_cast<std::size_t>(b - a));
      EXPECT_TRUE(OccupiedOn(channel[k], span, 1.0))
          << snr_db << " dB, packet " << k << " on channel " << channel[k];
    }
  }
}

TEST(GfskScreen, NoiseOnlySpansFailOnEveryChannel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const dsp::SampleVec x = UnitNoise(40000, seed);
    for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
      EXPECT_FALSE(OccupiedOn(idx, x, 1.0)) << "seed " << seed << " ch " << idx;
    }
  }
}

TEST(GfskScreen, NonFiniteWindowKeepsTheChannel) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const dsp::cfloat specials[] = {
      {std::numeric_limits<float>::quiet_NaN(), 0.0f},
      {0.0f, std::numeric_limits<float>::quiet_NaN()},
      {kInf, 0.0f},
      {-kInf, 1.0f},
      {0.5f, kInf}};
  // A special in the first window, in the middle and in the last window; a
  // running sum would carry the first one's NaN into every later stretch.
  for (const std::size_t at : {std::size_t{0}, std::size_t{20001},
                               std::size_t{39990}}) {
    for (const dsp::cfloat v : specials) {
      dsp::SampleVec x = UnitNoise(40000, 7);
      x[at] = v;
      for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
        EXPECT_TRUE(OccupiedOn(idx, x, 1.0)) << "sample " << at << " ch " << idx;
      }
    }
  }
}

TEST(GfskScreen, OneWindowOfEnergyIsNotAStretch) {
  // A click on a half-window boundary lands at n = 16 of one window (w = 1)
  // and at n = 0 of the next (w = 0): all its energy is in one window, which
  // the stretch drops. Midway (n = 8 and n = 24, w = 1/2) it is in two.
  dsp::SampleVec x = UnitNoise(40000, 9);
  x[16000] = {1000.0f, 0.0f};
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    EXPECT_FALSE(OccupiedOn(idx, x, 1.0)) << "ch " << idx;
  }
  std::swap(x[16000], x[16008]);
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    EXPECT_TRUE(OccupiedOn(idx, x, 1.0)) << "ch " << idx;
  }
}

TEST(GfskScreen, UnknownFloorOrShortSpanKeepsTheChannel) {
  const dsp::SampleVec x = UnitNoise(40000, 8);
  for (int idx = 0; idx < bt::kVisibleChannels; ++idx) {
    EXPECT_TRUE(OccupiedOn(idx, x, 0.0));
    EXPECT_TRUE(OccupiedOn(idx, x, -1.0));
    EXPECT_TRUE(OccupiedOn(idx, dsp::const_sample_span(x).first(79), 1.0));
    EXPECT_FALSE(OccupiedOn(idx, dsp::const_sample_span(x).first(80), 1.0));
  }
}

TEST(GfskScreen, ScreenedChannelsAreCountedAndSkipped) {
  // One DH5 at 10 dB over unit noise: the scan with a known floor decodes it
  // on its own channel and does not channelize the seven quiet ones.
  const bt::DeviceAddress addr{0x2A96EF, 0x47};
  const auto burst =
      MakeVisibleBurst(addr, std::vector<std::uint8_t>(120, 0x96), 30);
  rfdump::emu::Ether ether({}, 9);
  ether.AddBurst(burst.samples, 3000, 10.0, {});
  const dsp::SampleVec x = ether.Render(
      3000 + static_cast<std::int64_t>(burst.samples.size()) + 3000);
  auto& screened = obs::Registry::Default().GetCounter(
      "rfdump_phybt_channels_screened_total");

  bt::Demodulator::Config cfg;
  cfg.noise_floor_power = 1.0;
  const std::uint64_t before = screened.value();
  const auto pkts = bt::Demodulator(cfg).DecodeAll(x);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_EQ(pkts[0].channel_index, burst.channel - bt::kFirstVisibleChannel);
  EXPECT_TRUE(pkts[0].packet.crc_ok);
  EXPECT_EQ(screened.value() - before, RFDUMP_OBS_ENABLED ? 7u : 0u);
}

}  // namespace
