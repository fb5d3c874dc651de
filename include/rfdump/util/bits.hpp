#pragma once
// Bit-level helpers shared by the PHY implementations. All 802.11 and
// Bluetooth fields are transmitted LSB-first, so that is the default
// convention here.

#include <cstdint>
#include <span>
#include <vector>

namespace rfdump::util {

/// A sequence of bits stored one per byte (values 0/1).
using BitVec = std::vector<std::uint8_t>;

/// Unpack bytes to bits, LSB of each byte first (802.11/Bluetooth order).
[[nodiscard]] BitVec BytesToBitsLsbFirst(std::span<const std::uint8_t> bytes);

/// Pack bits (LSB-first per byte) back to bytes. Trailing partial bytes are
/// zero-padded in the high bits.
[[nodiscard]] std::vector<std::uint8_t> BitsToBytesLsbFirst(
    std::span<const std::uint8_t> bits);

/// Unpack an integer to `count` bits, LSB first.
[[nodiscard]] BitVec UintToBitsLsbFirst(std::uint64_t value, std::size_t count);

/// Pack up to 64 bits (LSB first) into an integer.
[[nodiscard]] std::uint64_t BitsToUintLsbFirst(
    std::span<const std::uint8_t> bits);

/// Append `src` to `dst`.
void AppendBits(BitVec& dst, std::span<const std::uint8_t> src);

}  // namespace rfdump::util
