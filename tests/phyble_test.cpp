// BLE advertising PHY (include/rfdump/phyble/adv.hpp): CRC-24, whitened
// build/parse round trips, modulate->demodulate over the three advertising
// channels, channel filtering, budget expiry, and the scenario-DSL truth
// records the registry bundle contributes.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rfdump/channel/channel.hpp"
#include "rfdump/dsp/nco.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/phyble/adv.hpp"
#include "rfdump/phybt/gfsk.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace {

using rfdump::phyble::AdvDemodulator;
using rfdump::phyble::AdvPduType;
using rfdump::phyble::BuildAdvBits;
using rfdump::phyble::ParseAdvBits;

std::vector<std::uint8_t> TestPayload(std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(0xA5u ^ (7 * i));
  }
  return payload;
}

// Embeds a burst in idle air, as a dispatched capture interval would carry
// it. The demodulator's self-estimated noise floor (bottom power decile)
// needs genuine idle samples; a span that is 100% burst gates itself out.
rfdump::dsp::SampleVec Embed(const rfdump::dsp::SampleVec& burst,
                             std::size_t pad) {
  rfdump::dsp::SampleVec x(pad);
  x.insert(x.end(), burst.begin(), burst.end());
  x.resize(x.size() + pad);
  return x;
}

// Strips preamble + access address: ParseAdvBits consumes the PDU section.
std::vector<std::uint8_t> PduBits(const rfdump::util::BitVec& air_bits) {
  const auto skip = static_cast<std::ptrdiff_t>(rfdump::phyble::kPreambleBits +
                                                rfdump::phyble::kAccessBits);
  return {air_bits.begin() + skip, air_bits.end()};
}

TEST(PhyBle, Crc24IsOrderSensitiveAndDeterministic) {
  const std::vector<std::uint8_t> a{0x12, 0x34, 0x56};
  const std::vector<std::uint8_t> b{0x34, 0x12, 0x56};
  EXPECT_EQ(rfdump::phyble::Crc24(a), rfdump::phyble::Crc24(a));
  EXPECT_NE(rfdump::phyble::Crc24(a), rfdump::phyble::Crc24(b));
  // 24-bit remainder.
  EXPECT_LT(rfdump::phyble::Crc24(a), 1u << 24);
}

TEST(PhyBle, BuildParseRoundTripAllChannelsAndLengths) {
  for (const int channel : rfdump::phyble::kAdvChannels) {
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{20},
          rfdump::phyble::kMaxAdvPayloadBytes}) {
      const auto payload = TestPayload(len);
      const auto bits =
          BuildAdvBits(channel, AdvPduType::kAdvNonconnInd, payload);
      EXPECT_EQ(bits.size(), rfdump::phyble::AdvAirBits(len));

      const auto pdu = ParseAdvBits(PduBits(bits), channel);
      ASSERT_TRUE(pdu.has_value()) << "ch " << channel << " len " << len;
      EXPECT_EQ(pdu->type, AdvPduType::kAdvNonconnInd);
      EXPECT_TRUE(pdu->crc_ok);
      EXPECT_EQ(pdu->payload, payload);
    }
  }
}

TEST(PhyBle, ParseFlagsCorruptionAndWrongChannel) {
  const auto payload = TestPayload(12);
  const auto bits = BuildAdvBits(37, AdvPduType::kAdvInd, payload);

  // A payload bit flip must flip the CRC verdict, not the parse.
  auto corrupt = PduBits(bits);
  corrupt[8 * rfdump::phyble::kHeaderBytes + 3] ^= 1;
  const auto pdu = ParseAdvBits(corrupt, 37);
  ASSERT_TRUE(pdu.has_value());
  EXPECT_FALSE(pdu->crc_ok);

  // Dewhitening with the wrong channel seed scrambles header + CRC; whatever
  // parses must not pass the CRC.
  const auto wrong = ParseAdvBits(PduBits(bits), 38);
  if (wrong.has_value()) {
    EXPECT_FALSE(wrong->crc_ok);
  }
}

TEST(PhyBle, ModulateDemodulateRoundTripPerChannel) {
  for (const int channel : rfdump::phyble::kAdvChannels) {
    const auto payload = TestPayload(24);
    const auto burst =
        rfdump::phyble::ModulateAdv(channel, AdvPduType::kAdvNonconnInd,
                                    payload);
    ASSERT_GT(burst.samples.size(), 0u);
    EXPECT_EQ(burst.channel, channel);

    AdvDemodulator demod;
    const auto decoded = demod.DecodeAll(Embed(burst.samples, 2000));
    ASSERT_EQ(decoded.size(), 1u) << "ch " << channel;
    EXPECT_EQ(decoded[0].channel, channel);
    EXPECT_TRUE(decoded[0].pdu.crc_ok);
    EXPECT_EQ(decoded[0].pdu.payload, payload);
    EXPECT_EQ(decoded[0].pdu.type, AdvPduType::kAdvNonconnInd);
    EXPECT_GE(decoded[0].start_sample, 0);
    EXPECT_GT(decoded[0].end_sample, decoded[0].start_sample);
  }
}

TEST(PhyBle, AdvChannelMixTablesAreTheNcosFirstPeriod) {
  for (const int channel : rfdump::phyble::kAdvChannels) {
    const double offset = *rfdump::phyble::AdvChannelOffsetHz(channel);
    const rfdump::phybt::GfskChannel ch(offset);
    EXPECT_EQ(ch.period(), offset == 0.0 ? 1u : 8u) << channel;
    rfdump::dsp::Nco nco(-offset, rfdump::dsp::kSampleRateHz);
    for (const rfdump::dsp::cfloat t : ch.mix_table()) {
      EXPECT_EQ(t, nco.Next());
    }
  }
}

TEST(PhyBle, SlicerPlaneWordEqualsSliceSymbols32) {
  constexpr std::size_t kSps = rfdump::phybt::kSamplesPerSymbol;
  std::vector<std::uint64_t> words;
  for (const std::size_t n : {std::size_t{300}, std::size_t{777},
                              std::size_t{2049}, std::size_t{9000}}) {
    rfdump::util::Xoshiro256 rng(n);
    std::vector<float> freq(n);
    for (auto& v : freq) {
      v = rng.UniformInt(0, 7) == 0
              ? 0.0f
              : static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
    }
    const auto plane = rfdump::phybt::PackSlicerPlane(freq, words);
    // Every center whose 32 symbols lie in [1, n - 2].
    for (std::size_t c = 1; c + 31 * kSps + 2 <= n; ++c) {
      const auto bits =
          rfdump::phybt::SliceSymbols(freq, c, rfdump::phyble::kAccessBits);
      ASSERT_EQ(bits.size(), rfdump::phyble::kAccessBits);
      ASSERT_EQ(plane.Word(c, rfdump::phyble::kAccessBits),
                rfdump::util::BitsToUintLsbFirst(bits))
          << "n " << n << " center " << c;
    }
  }
}

TEST(PhyBle, SingleChannelScanIgnoresOtherChannels) {
  const auto payload = TestPayload(16);
  const auto burst =
      rfdump::phyble::ModulateAdv(38, AdvPduType::kAdvInd, payload);
  const auto x = Embed(burst.samples, 2000);

  AdvDemodulator::Config cfg;
  cfg.channel = 38;
  AdvDemodulator same(cfg);
  EXPECT_EQ(same.DecodeAll(x).size(), 1u);

  cfg.channel = 37;
  AdvDemodulator other(cfg);
  EXPECT_EQ(other.DecodeAll(x).size(), 0u);
}

TEST(PhyBle, ExpiredBudgetStopsTheScan) {
  const auto payload = TestPayload(16);
  const auto burst =
      rfdump::phyble::ModulateAdv(37, AdvPduType::kAdvInd, payload);

  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = 1, .max_cpu_seconds = 0.0});
  ASSERT_FALSE(budget.Charge(64));

  AdvDemodulator::Config cfg;
  cfg.budget = &budget;
  AdvDemodulator demod(cfg);
  EXPECT_EQ(demod.DecodeAll(burst.samples).size(), 0u);
}

/// The scan loop's candidate walk on advertising channel `channel`,
/// replayed from outside: every NextCandidate hit counts; a decoded PDU
/// moves past its airtime, a matching access address with an implausible
/// header one symbol, anything else one sample.
std::uint64_t CountSyncCandidates(const rfdump::dsp::SampleVec& x, int channel,
                                  const std::vector<rfdump::phyble::DecodedAdv>& pdus) {
  constexpr std::size_t kSps = rfdump::phybt::kSamplesPerSymbol;
  const auto track =
      rfdump::phybt::GfskChannel(*rfdump::phyble::AdvChannelOffsetHz(channel))
          .Process(x, 0.0);
  const std::size_t need =
      (rfdump::phyble::kPreambleBits + rfdump::phyble::kAccessBits) * kSps;
  const std::size_t limit =
      track.freq.size() > need ? track.freq.size() - need : 0;
  std::uint64_t hits = 0;
  for (std::size_t pos = 1; (pos = track.NextCandidate(pos, limit)) < limit;) {
    ++hits;
    const auto pdu = std::find_if(pdus.begin(), pdus.end(), [&](const auto& p) {
      return p.channel == channel &&
             p.start_sample == static_cast<std::int64_t>(pos);
    });
    if (pdu != pdus.end()) {
      pos = static_cast<std::size_t>(pdu->end_sample);
    } else if (track.plane.Word(pos + rfdump::phyble::kPreambleBits * kSps,
                                rfdump::phyble::kAccessBits) ==
               rfdump::phyble::kAdvAccessAddress) {
      pos += kSps;
    } else {
      ++pos;
    }
  }
  return hits;
}

std::uint64_t SyncChecks() {
  return rfdump::obs::Registry::Default()
      .GetCounter("rfdump_phyble_sync_checks_total")
      .value();
}

TEST(PhyBle, SyncCheckCounterCountsEveryCandidate) {
  const auto burst =
      rfdump::phyble::ModulateAdv(39, AdvPduType::kAdvInd, TestPayload(20));
  auto x = Embed(burst.samples, 3000);
  rfdump::util::Xoshiro256 rng(14);
  rfdump::channel::AddAwgn(x, 3e-2, rng);  // noise that passes the gate

  const std::uint64_t before = SyncChecks();
  const auto pdus = AdvDemodulator().DecodeAll(x);
  const std::uint64_t delta = SyncChecks() - before;
  ASSERT_EQ(pdus.size(), 1u);
  std::uint64_t hits = 0;
  for (const int channel : rfdump::phyble::kAdvChannels) {
    hits += CountSyncCandidates(x, channel, pdus);
  }
  EXPECT_GT(hits, 3u);
  EXPECT_EQ(delta, RFDUMP_OBS_ENABLED ? hits : 0u);
}

TEST(PhyBle, SyncCheckCounterCountsTheCandidateThatExpiresTheBudget) {
  rfdump::dsp::SampleVec x(20000);
  rfdump::util::Xoshiro256 rng(15);
  rfdump::channel::AddAwgn(x, 1.0, rng);
  // Channel 37's front matter plus ten checks fit; the eleventh check is
  // counted, fails its charge and ends the scan (and the channel loop).
  constexpr std::uint64_t kChecks = 11;
  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = x.size() + (kChecks - 1) * 32 * 8,
              .max_cpu_seconds = 0.0});
  AdvDemodulator::Config cfg;
  cfg.budget = &budget;

  const std::uint64_t before = SyncChecks();
  EXPECT_TRUE(AdvDemodulator(cfg).DecodeAll(x).empty());
  const std::uint64_t delta = SyncChecks() - before;
  EXPECT_TRUE(budget.expired());
  ASSERT_GE(CountSyncCandidates(x, 37, {}), kChecks);
  EXPECT_EQ(delta, RFDUMP_OBS_ENABLED ? kChecks : 0u);
}

TEST(PhyBle, AirtimeMatchesBitCountAtOneMbps) {
  const auto bits = rfdump::phyble::AdvAirBits(24);
  EXPECT_EQ(bits, rfdump::phyble::kPreambleBits + rfdump::phyble::kAccessBits +
                      8 * (rfdump::phyble::kHeaderBytes + 24 +
                           rfdump::phyble::kCrcBytes));
  EXPECT_DOUBLE_EQ(rfdump::phyble::AdvAirtimeUs(24),
                   static_cast<double>(bits));
}

TEST(PhyBle, CannedScenarioCarriesBleTruth) {
  // The registry bundle's canned_traffic hook puts each advertising event on
  // all three channels; the scenario DSL needed no BLE-specific edit.
  const auto scenario = rfdump::testing::CannedMixedScenario(7);
  std::size_t ble_truth = 0;
  for (const auto& t : scenario.truth) {
    if (t.protocol == rfdump::core::Protocol::kBleAdv) {
      EXPECT_EQ(t.kind, "BLE-ADV");
      ++ble_truth;
    }
  }
  EXPECT_GT(ble_truth, 0u);
  EXPECT_EQ(ble_truth % 3, 0u);  // one per advertising channel
}

// ------------------------------------------------------ occupancy screen

bool OccupiedOn(int channel, rfdump::dsp::const_sample_span x) {
  return rfdump::phybt::GfskChannel(
             *rfdump::phyble::AdvChannelOffsetHz(channel))
      .Occupied(x, 1.0);
}

TEST(PhyBleScreen, KeepsEveryAdvertisingPduFrom0To15Db) {
  // Advertising events (one PDU on each of 37, 38, 39) over unit noise.
  // DESIGN.md §16 has the sweep the screen's threshold comes from: it
  // passes such spans from about -5 dB, and the unscreened scanner first
  // decodes one at -2 dB.
  for (int snr_db = 0; snr_db <= 15; ++snr_db) {
    rfdump::emu::Ether ether({}, static_cast<std::uint64_t>(snr_db) + 60);
    std::vector<int> channel;
    std::int64_t t = 2000;
    for (std::size_t event = 0; event < 6; ++event) {
      for (const int ch : rfdump::phyble::kAdvChannels) {
        const auto burst = rfdump::phyble::ModulateAdv(
            ch, AdvPduType::kAdvNonconnInd, TestPayload(8 + 5 * event));
        ether.AddBurst(burst.samples, t, snr_db, {});
        channel.push_back(ch);
        t += static_cast<std::int64_t>(burst.samples.size()) + 1200;
      }
    }
    const auto x = ether.Render(t);
    for (std::size_t k = 0; k < channel.size(); ++k) {
      const auto& truth = ether.truth()[k];
      const std::int64_t a = std::max<std::int64_t>(truth.start_sample - 400, 0);
      const std::int64_t b = std::min<std::int64_t>(
          truth.end_sample + 400, static_cast<std::int64_t>(x.size()));
      EXPECT_TRUE(OccupiedOn(
          channel[k], rfdump::dsp::const_sample_span(
                          x.data() + a, static_cast<std::size_t>(b - a))))
          << snr_db << " dB, PDU " << k << " on channel " << channel[k];
    }
  }
}

TEST(PhyBleScreen, NoiseOnlySpansFailAndAreCounted) {
  auto& screened = rfdump::obs::Registry::Default().GetCounter(
      "rfdump_phyble_channels_screened_total");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    rfdump::dsp::SampleVec x(40000);
    rfdump::util::Xoshiro256 rng(seed + 100);
    rfdump::channel::AddAwgn(x, 1.0, rng);
    for (const int ch : rfdump::phyble::kAdvChannels) {
      EXPECT_FALSE(OccupiedOn(ch, x)) << "seed " << seed << " ch " << ch;
    }
    AdvDemodulator::Config cfg;
    cfg.noise_floor_power = 1.0;
    const std::uint64_t before = screened.value();
    EXPECT_TRUE(AdvDemodulator(cfg).DecodeAll(x).empty());
    EXPECT_EQ(screened.value() - before, RFDUMP_OBS_ENABLED ? 3u : 0u);
    // An unknown floor keeps the full scan.
    EXPECT_TRUE(rfdump::phybt::GfskChannel(0.0).Occupied(x, 0.0));
  }
}

}  // namespace
