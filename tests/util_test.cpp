// Tests for bit packing and CRC/HEC primitives.

#include <gtest/gtest.h>

#include "rfdump/util/bits.hpp"
#include "rfdump/util/crc.hpp"

using namespace rfdump::util;

namespace {

TEST(Bits, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA5, 0x3C, 0x01};
  const auto bits = BytesToBitsLsbFirst(bytes);
  ASSERT_EQ(bits.size(), bytes.size() * 8);
  EXPECT_EQ(BitsToBytesLsbFirst(bits), bytes);
}

TEST(Bits, LsbFirstOrder) {
  const std::vector<std::uint8_t> bytes = {0x01};  // bit 0 set
  const auto bits = BytesToBitsLsbFirst(bytes);
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, UintRoundTrip) {
  const std::uint64_t v = 0xDEADBEEFCAFEull;
  const auto bits = UintToBitsLsbFirst(v, 48);
  ASSERT_EQ(bits.size(), 48u);
  EXPECT_EQ(BitsToUintLsbFirst(bits), v);
}

TEST(Bits, PartialByte) {
  BitVec bits = {1, 0, 1};  // 0b101 = 5
  const auto bytes = BitsToBytesLsbFirst(bits);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 5);
}

TEST(Bits, AppendBits) {
  BitVec dst = {1, 0};
  BitVec src = {1, 1};
  AppendBits(dst, src);
  EXPECT_EQ(dst, (BitVec{1, 0, 1, 1}));
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (classic check value).
  const std::string s = "123456789";
  std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyAndSensitivity) {
  EXPECT_EQ(Crc32({}), 0x00000000u);
  std::vector<std::uint8_t> a = {1, 2, 3};
  std::vector<std::uint8_t> b = {1, 2, 4};
  EXPECT_NE(Crc32(a), Crc32(b));
}

TEST(Crc16, DetectsSingleBitErrors) {
  BitVec bits(48, 0);
  bits[5] = 1;
  bits[17] = 1;
  const auto c1 = Crc16CcittBits(bits);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto flipped = bits;
    flipped[i] ^= 1;
    EXPECT_NE(Crc16CcittBits(flipped), c1) << "bit " << i;
  }
}

TEST(Crc16, InitMatters) {
  BitVec bits = {1, 0, 1, 1, 0, 0, 1, 0};
  EXPECT_NE(Crc16CcittBits(bits, 0xFFFF), Crc16CcittBits(bits, 0x0000));
}

TEST(BtHec, SeededByUap) {
  BitVec header_bits = {1, 0, 0, 1, 1, 0, 1, 0, 1, 0};
  EXPECT_NE(BluetoothHec(header_bits, 0x47), BluetoothHec(header_bits, 0x00));
}

TEST(BtHec, DetectsSingleBitErrors) {
  BitVec bits = {1, 0, 0, 1, 1, 0, 1, 0, 1, 0};
  const auto h = BluetoothHec(bits, 0x47);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto flipped = bits;
    flipped[i] ^= 1;
    EXPECT_NE(BluetoothHec(flipped, 0x47), h) << "bit " << i;
  }
}

}  // namespace
