#pragma once
// Framed wire format for the multi-sensor fleet (DESIGN.md §12).
//
// Sensors ship MonitorReport events, health reports and heartbeats to the
// central aggregator over links that drop, duplicate, reorder and corrupt
// bytes (net/faulty_link.hpp emulates such a link in-process). The frame
// layer is the part that must survive all of that:
//
//   * length-prefixed frames with a fixed 16-byte header, so a reader never
//     over-reads a stream that was cut mid-frame;
//   * CRC32 (IEEE 802.3, the same util::Crc32 the 802.11 FCS uses) over
//     header + payload, so a corrupted frame is *dropped*, never decoded;
//   * a version byte, so a future header revision is rejected cleanly
//     instead of misparsed;
//   * per-sensor monotonic sequence numbers on data frames, so the receiver
//     can detect loss, discard duplicates and reorder — control frames
//     (hello / heartbeat / ack) carry seq 0 and are idempotent.
//
// FrameParser consumes an arbitrary byte stream incrementally: partial
// frames wait for more bytes, corrupt frames are skipped by re-scanning for
// the magic from the next byte (resync), and every discard reason is
// counted. Encode → parse round-trip is the conformance gate
// (tests/net_test.cpp).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace rfdump::net {

inline constexpr std::uint16_t kWireMagic = 0x4652;  // "RF", little-endian
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 4;  // CRC32
/// Upper bound a receiver enforces on payload_len before trusting it; a
/// corrupted length field must not make the parser wait forever for bytes
/// that will never come.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

/// Frame type tags. Data frames (sequenced, retransmitted until acked) and
/// control frames (seq 0, idempotent, never retransmitted) are disjoint
/// ranges so a receiver can classify without a table.
enum class FrameType : std::uint8_t {
  // Control frames.
  kHello = 1,      // session (re)establishment; carries the sensor epoch
  kHeartbeat = 2,  // liveness + clock sample (sensor local time)
  kAck = 3,        // aggregator -> sensor cumulative ack
  kMetrics = 4,    // absolute-value metrics snapshot (federation, DESIGN §13)
  // Data frames.
  kEventBatch = 16,  // decoded transmissions from one monitor block
  kHealth = 17,      // one core::HealthReport
  kGapReport = 18,   // cumulative list of sequence ranges lost by the sensor
};

[[nodiscard]] bool IsDataFrame(FrameType type);

/// Fixed-layout frame header (encoded little-endian, 16 bytes):
///   0  u16  magic   = kWireMagic
///   2  u8   version = kWireVersion
///   3  u8   type
///   4  u16  sensor_id
///   6  u16  header_check  (low 16 bits of CRC32 over the header with this
///                          field zeroed — guards payload_len *before* the
///                          parser commits to waiting for that many bytes;
///                          without it a corrupted-but-plausible length
///                          stalls the stream behind bytes that never come)
///   8  u32  seq           (0 = unsequenced control frame)
///   12 u32  payload_len   (bytes following the header, before the CRC)
struct FrameHeader {
  FrameType type = FrameType::kHeartbeat;
  std::uint16_t sensor_id = 0;
  std::uint32_t seq = 0;
  std::uint32_t payload_len = 0;
};

/// One successfully parsed frame.
struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Serializes header + payload + CRC32 into one contiguous buffer.
[[nodiscard]] std::vector<std::uint8_t> EncodeFrame(
    const FrameHeader& header, std::span<const std::uint8_t> payload);

/// Why the parser discarded bytes (exported so receivers can count and
/// tests can assert the exact reason).
struct ParseStats {
  std::uint64_t frames_ok = 0;
  std::uint64_t bad_magic_bytes = 0;  // bytes skipped hunting for the magic
  std::uint64_t bad_version = 0;
  std::uint64_t bad_type = 0;
  std::uint64_t bad_length = 0;
  std::uint64_t bad_header_checksum = 0;  // header damaged (incl. length)
  std::uint64_t bad_crc = 0;
};

/// Incremental frame reader. Feed arbitrary byte slices (possibly split
/// mid-frame, possibly corrupted); complete CRC-valid frames come out in
/// order. On any header/CRC failure the parser resynchronizes by advancing
/// one byte and re-scanning for the magic, so one corrupt frame never takes
/// down the stream behind it.
class FrameParser {
 public:
  /// Appends bytes and invokes `on_frame` for every complete valid frame.
  void Feed(std::span<const std::uint8_t> bytes,
            const std::function<void(Frame&&)>& on_frame);

  const ParseStats& stats() const { return stats_; }
  /// Bytes buffered waiting for the rest of a frame.
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  ParseStats stats_;
};

// --------------------------------------------------------------- byte I/O
// Little-endian primitive serialization shared by the frame and message
// layers (net/messages.hpp). Reader failure is sticky: once a read runs
// past the end, ok() is false and every subsequent read returns 0.

class ByteWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(v); }
  void U16(std::uint16_t v);
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v);
  void Bytes(std::span<const std::uint8_t> b);

  [[nodiscard]] std::vector<std::uint8_t> Take() { return std::move(out_); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t U8();
  [[nodiscard]] std::uint16_t U16();
  [[nodiscard]] std::uint32_t U32();
  [[nodiscard]] std::uint64_t U64();
  [[nodiscard]] std::int64_t I64() {
    return static_cast<std::int64_t>(U64());
  }
  [[nodiscard]] double F64();
  /// Next `n` raw bytes (empty + !ok() on under-run).
  [[nodiscard]] std::vector<std::uint8_t> Bytes(std::size_t n);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[nodiscard]] bool Need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace rfdump::net
