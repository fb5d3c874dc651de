#include "rfdump/util/bits.hpp"

#include <cassert>

namespace rfdump::util {

BitVec BytesToBitsLsbFirst(std::span<const std::uint8_t> bytes) {
  BitVec bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 0; i < 8; ++i) {
      bits.push_back(static_cast<std::uint8_t>((b >> i) & 1u));
    }
  }
  return bits;
}

std::vector<std::uint8_t> BitsToBytesLsbFirst(
    std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0u);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] & 1u) bytes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

BitVec UintToBitsLsbFirst(std::uint64_t value, std::size_t count) {
  BitVec bits(count);
  for (std::size_t i = 0; i < count; ++i) {
    bits[i] = static_cast<std::uint8_t>((value >> i) & 1u);
  }
  return bits;
}

std::uint64_t BitsToUintLsbFirst(std::span<const std::uint8_t> bits) {
  assert(bits.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] & 1u) v |= (std::uint64_t{1} << i);
  }
  return v;
}

void AppendBits(BitVec& dst, std::span<const std::uint8_t> src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace rfdump::util
