#pragma once
// pcap export — the point of a tcpdump-for-the-ether is interoperating with
// the tcpdump/wireshark toolchain. Decoded 802.11 MPDUs are written as a
// classic pcap file with LINKTYPE_IEEE802_11 (105), one record per frame,
// timestamped from the sample position; wireshark opens it directly.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rfdump/core/protocol_registry.hpp"

namespace rfdump::trace {

/// LINKTYPE_IEEE802_11 per the pcap spec.
inline constexpr std::uint32_t kLinkType80211 = 105;

/// Writes the 802.11 events among `events` (e.g. MonitorReport::events) to
/// `path` as a pcap file. Only events with decoded payloads are written
/// (header-only CCK detections carry no bytes). Returns the number of
/// records written. Throws std::runtime_error on I/O failure.
std::size_t WritePcap(const std::string& path,
                      std::span<const core::ProtocolEvent> events,
                      double sample_rate_hz = dsp::kSampleRateHz);

/// Minimal pcap reader for round-trip testing: returns (timestamp_us, bytes)
/// records. Throws on malformed files.
struct PcapRecord {
  std::uint64_t timestamp_us = 0;
  std::vector<std::uint8_t> bytes;
};
[[nodiscard]] std::vector<PcapRecord> ReadPcap(const std::string& path,
                                               std::uint32_t* linktype_out =
                                                   nullptr);

}  // namespace rfdump::trace
