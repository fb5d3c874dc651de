// 802.11 MAC framing tests.

#include <algorithm>

#include <gtest/gtest.h>

#include "rfdump/mac80211/frames.hpp"
#include "rfdump/core/protocols.hpp"
#include "rfdump/mac80211/timing.hpp"

namespace mac = rfdump::mac80211;

namespace {

const mac::MacAddress kA = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55};
const mac::MacAddress kB = {0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB};
const mac::MacAddress kAp = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};

TEST(MacFrames, DataFrameRoundTrip) {
  const auto body = mac::BuildIcmpEchoBody(false, 0x1234, 42, 64);
  const auto bytes = mac::BuildDataFrame(kB, kA, kAp, 7, body, 314);
  EXPECT_EQ(bytes.size(), mac::DataFrameBytes(body.size()));
  const auto frame = mac::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, mac::FrameKind::kData);
  EXPECT_EQ(frame->addr1, kB);
  EXPECT_EQ(frame->addr2, kA);
  EXPECT_EQ(frame->addr3, kAp);
  EXPECT_EQ(frame->sequence, 7);
  EXPECT_EQ(frame->duration, 314);
  EXPECT_EQ(frame->body, body);
}

TEST(MacFrames, AckFrame) {
  const auto bytes = mac::BuildAckFrame(kA);
  EXPECT_EQ(bytes.size(), mac::kAckFrameBytes);
  const auto frame = mac::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, mac::FrameKind::kAck);
  EXPECT_EQ(frame->addr1, kA);
}

TEST(MacFrames, BeaconFrame) {
  const auto bytes = mac::BuildBeaconFrame(kAp, kAp, 100, "emulab", 123456);
  const auto frame = mac::ParseFrame(bytes);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, mac::FrameKind::kBeacon);
  EXPECT_EQ(frame->addr1, mac::kBroadcast);
  EXPECT_EQ(frame->sequence, 100);
  // SSID is recoverable from the body.
  const std::string ssid(frame->body.begin() + 14, frame->body.begin() + 20);
  EXPECT_EQ(ssid, "emulab");
}

TEST(MacFrames, FcsCorruptionRejected) {
  const auto body = mac::BuildIcmpEchoBody(true, 1, 2, 16);
  auto bytes = mac::BuildDataFrame(kB, kA, kAp, 3, body);
  bytes[30] ^= 0x01;
  EXPECT_FALSE(mac::ParseFrame(bytes).has_value());
}

TEST(MacFrames, TooShortRejected) {
  std::vector<std::uint8_t> tiny(5, 0);
  EXPECT_FALSE(mac::ParseFrame(tiny).has_value());
}

TEST(MacFrames, IcmpSeqRecoverable) {
  for (std::uint16_t seq : {0, 1, 255, 30000}) {
    const auto body = mac::BuildIcmpEchoBody(false, 99, seq, 472);
    EXPECT_EQ(body.size(), mac::IcmpEchoBodyBytes(472));
    const auto got = mac::ParseIcmpEchoSeq(body);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, seq);
  }
}

TEST(MacFrames, IcmpParserRejectsNonIcmp) {
  std::vector<std::uint8_t> junk(50, 0xEE);
  EXPECT_FALSE(mac::ParseIcmpEchoSeq(junk).has_value());
  EXPECT_FALSE(mac::ParseIcmpEchoSeq({}).has_value());
}

TEST(MacFrames, EchoRequestVsReplyDiffer) {
  const auto req = mac::BuildIcmpEchoBody(false, 1, 5, 32);
  const auto rep = mac::BuildIcmpEchoBody(true, 1, 5, 32);
  EXPECT_NE(req, rep);
  EXPECT_EQ(req.size(), rep.size());
}

TEST(MacFrames, AddressFormatting) {
  EXPECT_EQ(mac::ToString(kA), "00:11:22:33:44:55");
  EXPECT_EQ(mac::ToString(mac::kBroadcast), "ff:ff:ff:ff:ff:ff");
}

TEST(MacTiming, DerivedConstants) {
  EXPECT_DOUBLE_EQ(mac::kDifsUs, 50.0);
  EXPECT_DOUBLE_EQ(mac::kSifsUs, 10.0);
  EXPECT_DOUBLE_EQ(mac::kSlotTimeUs, 20.0);
}

TEST(ProtocolRegistry, TableCoversAllProtocols) {
  using rfdump::core::Protocol;
  const auto table = rfdump::core::FeatureTable();
  EXPECT_GE(table.size(), 7u);
  const auto rows = [&table](Protocol p) {
    return std::count_if(table.begin(), table.end(),
                         [p](const auto& row) { return row.protocol == p; });
  };
  EXPECT_EQ(rows(Protocol::kWifi80211b), 4);
  EXPECT_EQ(rows(Protocol::kBluetooth), 1);
  // Names render.
  for (const auto& row : table) {
    EXPECT_NE(std::string(rfdump::core::ProtocolName(row.protocol)), "?");
    EXPECT_NE(std::string(rfdump::core::ModulationName(row.modulation)), "?");
  }
}

}  // namespace
