#include "rfdump/mac80211/frames.hpp"

#include <cstdio>

#include "rfdump/util/crc.hpp"

namespace rfdump::mac80211 {
namespace {

void AppendU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void AppendAddr(std::vector<std::uint8_t>& out, const MacAddress& a) {
  out.insert(out.end(), a.begin(), a.end());
}

void AppendFcs(std::vector<std::uint8_t>& out) {
  const std::uint32_t fcs = util::Crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((fcs >> (8 * i)) & 0xFF));
  }
}

std::uint16_t ReadU16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] | (b[at + 1] << 8));
}

MacAddress ReadAddr(std::span<const std::uint8_t> b, std::size_t at) {
  MacAddress a{};
  for (int i = 0; i < 6; ++i) a[i] = b[at + i];
  return a;
}

// 16-bit ones-complement checksum (IP/ICMP).
std::uint16_t InternetChecksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (data.size() % 2) sum += static_cast<std::uint32_t>(data.back() << 8);
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace

std::string ToString(const MacAddress& addr) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", addr[0],
                addr[1], addr[2], addr[3], addr[4], addr[5]);
  return buf;
}

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kData: return "DATA";
    case FrameKind::kAck: return "ACK";
    case FrameKind::kBeacon: return "BEACON";
    case FrameKind::kOther: return "OTHER";
  }
  return "?";
}

std::vector<std::uint8_t> BuildDataFrame(const MacAddress& dest,
                                         const MacAddress& src,
                                         const MacAddress& bssid,
                                         std::uint16_t sequence,
                                         std::span<const std::uint8_t> body,
                                         std::uint16_t duration_us) {
  std::vector<std::uint8_t> out;
  out.reserve(DataFrameBytes(body.size()));
  // Frame control: protocol 0, type 2 (data), subtype 0, FromDS=1.
  out.push_back(0x08);
  out.push_back(0x02);
  AppendU16(out, duration_us);
  AppendAddr(out, dest);
  AppendAddr(out, src);
  AppendAddr(out, bssid);
  AppendU16(out, static_cast<std::uint16_t>(sequence << 4));
  out.insert(out.end(), body.begin(), body.end());
  AppendFcs(out);
  return out;
}

std::vector<std::uint8_t> BuildAckFrame(const MacAddress& dest) {
  std::vector<std::uint8_t> out;
  out.reserve(kAckFrameBytes);
  // Frame control: type 1 (control), subtype 13 (ACK).
  out.push_back(0xD4);
  out.push_back(0x00);
  AppendU16(out, 0);
  AppendAddr(out, dest);
  AppendFcs(out);
  return out;
}

std::vector<std::uint8_t> BuildBeaconFrame(const MacAddress& src,
                                           const MacAddress& bssid,
                                           std::uint16_t sequence,
                                           const std::string& ssid,
                                           std::uint64_t timestamp_us) {
  std::vector<std::uint8_t> out;
  // 24-byte header, 12-byte fixed body, SSID element, FCS.
  out.reserve(24 + 12 + 2 + ssid.size() + 4);
  // Frame control: type 0 (mgmt), subtype 8 (beacon).
  out.push_back(0x80);
  out.push_back(0x00);
  AppendU16(out, 0);
  AppendAddr(out, kBroadcast);
  AppendAddr(out, src);
  AppendAddr(out, bssid);
  AppendU16(out, static_cast<std::uint16_t>(sequence << 4));
  // Body: timestamp(8) + beacon interval(2) + capabilities(2) + SSID element.
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((timestamp_us >> (8 * i)) & 0xFF));
  }
  AppendU16(out, 100);     // beacon interval: 100 TU
  AppendU16(out, 0x0401);  // ESS + short preamble capable
  out.push_back(0x00);     // element id: SSID
  out.push_back(static_cast<std::uint8_t>(ssid.size()));
  out.insert(out.end(), ssid.begin(), ssid.end());
  AppendFcs(out);
  return out;
}

std::vector<std::uint8_t> BuildIcmpEchoBody(bool is_reply, std::uint16_t ident,
                                            std::uint16_t icmp_seq,
                                            std::size_t payload_bytes) {
  // LLC/SNAP header for IPv4.
  std::vector<std::uint8_t> body = {0xAA, 0xAA, 0x03, 0x00,
                                    0x00, 0x00, 0x08, 0x00};
  body.reserve(IcmpEchoBodyBytes(payload_bytes));
  // IPv4 header (20 bytes, no options).
  const std::uint16_t ip_len =
      static_cast<std::uint16_t>(20 + 8 + payload_bytes);
  std::vector<std::uint8_t> ip = {
      0x45, 0x00,
      static_cast<std::uint8_t>(ip_len >> 8),
      static_cast<std::uint8_t>(ip_len & 0xFF),
      0x00, 0x00, 0x40, 0x00,  // id, flags: DF
      0x40, 0x01, 0x00, 0x00,  // TTL 64, protocol ICMP, checksum placeholder
      10, 0, 0, 1,             // src 10.0.0.1
      10, 0, 0, 2,             // dst 10.0.0.2
  };
  const std::uint16_t ip_csum = InternetChecksum(ip);
  ip[10] = static_cast<std::uint8_t>(ip_csum >> 8);
  ip[11] = static_cast<std::uint8_t>(ip_csum & 0xFF);
  body.insert(body.end(), ip.begin(), ip.end());
  // ICMP echo header + payload.
  std::vector<std::uint8_t> icmp = {
      static_cast<std::uint8_t>(is_reply ? 0x00 : 0x08), 0x00, 0x00, 0x00,
      static_cast<std::uint8_t>(ident >> 8),
      static_cast<std::uint8_t>(ident & 0xFF),
      static_cast<std::uint8_t>(icmp_seq >> 8),
      static_cast<std::uint8_t>(icmp_seq & 0xFF),
  };
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    icmp.push_back(static_cast<std::uint8_t>(i & 0xFF));
  }
  const std::uint16_t icmp_csum = InternetChecksum(icmp);
  icmp[2] = static_cast<std::uint8_t>(icmp_csum >> 8);
  icmp[3] = static_cast<std::uint8_t>(icmp_csum & 0xFF);
  body.insert(body.end(), icmp.begin(), icmp.end());
  return body;
}

std::optional<Frame> ParseFrame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kAckFrameBytes) return std::nullopt;
  // FCS check.
  const std::uint32_t fcs = util::Crc32(bytes.first(bytes.size() - 4));
  std::uint32_t rx_fcs = 0;
  for (int i = 0; i < 4; ++i) {
    rx_fcs |= static_cast<std::uint32_t>(bytes[bytes.size() - 4 + i])
              << (8 * i);
  }
  if (fcs != rx_fcs) return std::nullopt;

  Frame f;
  const std::uint8_t fc0 = bytes[0];
  const unsigned type = (fc0 >> 2) & 0x3;
  const unsigned subtype = (fc0 >> 4) & 0xF;
  f.duration = ReadU16(bytes, 2);
  f.addr1 = ReadAddr(bytes, 4);
  if (type == 1 && subtype == 13) {
    f.kind = FrameKind::kAck;
    return f;
  }
  if (bytes.size() < 24 + 4) return std::nullopt;
  f.addr2 = ReadAddr(bytes, 10);
  f.addr3 = ReadAddr(bytes, 16);
  f.sequence = static_cast<std::uint16_t>(ReadU16(bytes, 22) >> 4);
  f.body.assign(bytes.begin() + 24, bytes.end() - 4);
  if (type == 2 && subtype == 0) {
    f.kind = FrameKind::kData;
  } else if (type == 0 && subtype == 8) {
    f.kind = FrameKind::kBeacon;
  } else {
    f.kind = FrameKind::kOther;
  }
  return f;
}

std::optional<std::uint16_t> ParseIcmpEchoSeq(
    std::span<const std::uint8_t> body) {
  // LLC/SNAP(8) + IP(20) + ICMP(>=8); check the SNAP IPv4 ethertype and the
  // ICMP echo type fields.
  if (body.size() < 36) return std::nullopt;
  if (body[0] != 0xAA || body[1] != 0xAA || body[6] != 0x08 ||
      body[7] != 0x00) {
    return std::nullopt;
  }
  if ((body[8] >> 4) != 4 || body[17] != 0x01) return std::nullopt;  // IPv4/ICMP
  const std::uint8_t icmp_type = body[28];
  if (icmp_type != 0x00 && icmp_type != 0x08) return std::nullopt;
  return static_cast<std::uint16_t>((body[34] << 8) | body[35]);
}

}  // namespace rfdump::mac80211
