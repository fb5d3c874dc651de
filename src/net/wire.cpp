#include "rfdump/net/wire.hpp"

#include <cstring>

#include "rfdump/util/crc.hpp"

namespace rfdump::net {

namespace {

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Low 16 bits of CRC32 over the 16 header bytes with the checksum field
/// (offset 6-7) treated as zero.
std::uint16_t HeaderCheck(const std::uint8_t* h) {
  std::uint8_t tmp[kFrameHeaderBytes];
  std::memcpy(tmp, h, kFrameHeaderBytes);
  tmp[6] = 0;
  tmp[7] = 0;
  return static_cast<std::uint16_t>(util::Crc32({tmp, kFrameHeaderBytes}) &
                                    0xFFFF);
}

bool KnownType(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kHeartbeat:
    case FrameType::kAck:
    case FrameType::kMetrics:
    case FrameType::kEventBatch:
    case FrameType::kHealth:
    case FrameType::kGapReport:
      return true;
  }
  return false;
}

}  // namespace

bool IsDataFrame(FrameType type) {
  return static_cast<std::uint8_t>(type) >= 16;
}

std::vector<std::uint8_t> EncodeFrame(const FrameHeader& header,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  PutU16(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(header.type));
  PutU16(out, header.sensor_id);
  PutU16(out, 0);  // header checksum, patched below
  PutU32(out, header.seq);
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  const std::uint16_t check = HeaderCheck(out.data());
  out[6] = static_cast<std::uint8_t>(check & 0xFF);
  out[7] = static_cast<std::uint8_t>(check >> 8);
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint32_t crc = util::Crc32({out.data(), out.size()});
  PutU32(out, crc);
  return out;
}

void FrameParser::Feed(std::span<const std::uint8_t> bytes,
                       const std::function<void(Frame&&)>& on_frame) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  std::size_t pos = 0;
  while (true) {
    // Hunt for the magic; everything skipped is noise or a damaged frame.
    while (pos + 2 <= buf_.size() && GetU16(buf_.data() + pos) != kWireMagic) {
      ++pos;
      ++stats_.bad_magic_bytes;
    }
    if (buf_.size() - pos < kFrameHeaderBytes) break;
    const std::uint8_t* h = buf_.data() + pos;
    const std::uint8_t version = h[2];
    const std::uint8_t type = h[3];
    const std::uint32_t payload_len = GetU32(h + 12);
    // Header sanity before trusting payload_len. A bad field may itself be
    // corruption inside a valid frame, so resync one byte at a time — the
    // CRC of any frame we eventually accept still has to check out.
    if (version != kWireVersion || !KnownType(type) ||
        payload_len > kMaxPayloadBytes) {
      if (version != kWireVersion) {
        ++stats_.bad_version;
      } else if (!KnownType(type)) {
        ++stats_.bad_type;
      } else {
        ++stats_.bad_length;
      }
      ++pos;
      continue;
    }
    // The header checksum must hold before payload_len is trusted: a
    // corrupted-but-plausible length would otherwise stall the parser
    // waiting for bytes that never come, swallowing every frame behind it.
    if (HeaderCheck(h) != GetU16(h + 6)) {
      ++stats_.bad_header_checksum;
      ++pos;
      continue;
    }
    const std::size_t total =
        kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
    if (buf_.size() - pos < total) break;  // wait for the rest
    const std::uint32_t want = GetU32(h + kFrameHeaderBytes + payload_len);
    const std::uint32_t got =
        util::Crc32({h, kFrameHeaderBytes + payload_len});
    if (want != got) {
      ++stats_.bad_crc;
      ++pos;
      continue;
    }
    Frame frame;
    frame.header.type = static_cast<FrameType>(type);
    frame.header.sensor_id = GetU16(h + 4);
    frame.header.seq = GetU32(h + 8);
    frame.header.payload_len = payload_len;
    frame.payload.assign(h + kFrameHeaderBytes,
                         h + kFrameHeaderBytes + payload_len);
    ++stats_.frames_ok;
    pos += total;
    on_frame(std::move(frame));
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
}

void ByteWriter::U16(std::uint16_t v) { PutU16(out_, v); }
void ByteWriter::U32(std::uint32_t v) { PutU32(out_, v); }

void ByteWriter::U64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void ByteWriter::F64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Bytes(std::span<const std::uint8_t> b) {
  out_.insert(out_.end(), b.begin(), b.end());
}

bool ByteReader::Need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::U8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::U16() {
  if (!Need(2)) return 0;
  const std::uint16_t v = GetU16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::U32() {
  if (!Need(4)) return 0;
  const std::uint32_t v = GetU32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::U64() {
  if (!Need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<std::uint8_t> ByteReader::Bytes(std::size_t n) {
  if (!Need(n)) return {};
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace rfdump::net
