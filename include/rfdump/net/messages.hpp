#pragma once
// Message payloads carried inside net frames (DESIGN.md §12).
//
// The fleet ships three things from sensor to aggregator: decoded
// transmissions (compact EventRecords, not whole DecodedFrames — the
// aggregator fuses and dedups, it does not re-demodulate), per-block
// health, and liveness/clock samples. The aggregator ships back cumulative
// acks. All timestamps in sensor->aggregator messages are in the *sensor's
// local sample timeline* (its front-end clock, which is offset from true
// ether time); the aggregator aligns them (net/aggregator.hpp).
//
// Every message has an Encode() producing the frame payload bytes and a
// Decode() returning false on truncated/garbage input (the frame CRC
// catches corruption; Decode guards against a hostile or version-skewed
// peer). Encode/decode round-trip identity is asserted per message type in
// tests/net_test.cpp.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/net/wire.hpp"
#include "rfdump/obs/context.hpp"

namespace rfdump::net {

/// One decoded transmission, compacted for the wire. `payload_digest` is a
/// FNV-1a hash of the decoded payload bytes so the aggregator can
/// distinguish "same packet heard twice" from "different packet, same
/// position" without shipping payloads.
struct EventRecord {
  core::Protocol protocol = core::Protocol::kUnknown;
  std::int16_t channel = -1;  // protocol channel index, -1 if n/a
  std::int64_t start_sample = 0;  // sensor-local timeline
  std::int64_t end_sample = 0;
  std::uint32_t payload_bytes = 0;
  bool crc_ok = false;
  std::uint64_t payload_digest = 0;

  bool operator==(const EventRecord&) const = default;
};

[[nodiscard]] std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes);

/// Compacts one decode for the wire.
[[nodiscard]] EventRecord ToEventRecord(const core::ProtocolEvent& ev);

/// Session (re)establishment. `epoch` increments on every sensor-side
/// reconnect so the aggregator can tell a fresh session from a delayed
/// duplicate of an old one.
struct HelloMsg {
  std::uint32_t epoch = 0;
  std::int64_t local_time = 0;  // sensor sample clock at send
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<HelloMsg> Decode(std::span<const std::uint8_t> p);
};

/// Liveness + clock sample. The aggregator's offset estimator min-filters
/// (arrival_time - local_time) over these (see net/aggregator.hpp).
struct HeartbeatMsg {
  std::int64_t local_time = 0;
  std::uint64_t frames_sent = 0;  // session lifetime total, for loss stats
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<HeartbeatMsg> Decode(std::span<const std::uint8_t> p);
};

/// Aggregator -> sensor: everything up to and including `cum_seq` has been
/// delivered (or declared lost by a GapReport); the sensor may drop those
/// frames from its retransmit ring.
struct AckMsg {
  std::uint32_t cum_seq = 0;
  std::uint32_t epoch = 0;  // echo of the sensor epoch being acked
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<AckMsg> Decode(std::span<const std::uint8_t> p);
};

/// A batch of decoded transmissions (one monitor block's worth). `ctx` is
/// the sensor-side span that published the batch (DESIGN.md §13); all-zero
/// when tracing is disabled, in which case the aggregator roots locally.
struct EventBatchMsg {
  std::int64_t block_start = 0;  // sensor-local block position
  obs::TraceContext ctx;
  std::vector<EventRecord> events;
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<EventBatchMsg> Decode(std::span<const std::uint8_t> p);
};

/// One core::HealthReport, shipped verbatim (all fields).
struct HealthMsg {
  core::HealthReport report;
  obs::TraceContext ctx;
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<HealthMsg> Decode(std::span<const std::uint8_t> p);
};

/// Inclusive range of sequence numbers the sensor gave up on (retransmit
/// ring overflow). GapReports are *cumulative*: each one carries the full
/// merged list for the session, so losing all but the last is harmless.
struct SeqRange {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  bool operator==(const SeqRange&) const = default;
};

struct GapReportMsg {
  std::vector<SeqRange> lost;
  obs::TraceContext ctx;
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<GapReportMsg> Decode(std::span<const std::uint8_t> p);
};

/// One scalar metric in a federation snapshot (DESIGN.md §13). Values are
/// ABSOLUTE (never increments): the aggregator applies last-write-wins per
/// name, so dropped, duplicated or reordered snapshots can never
/// double-count — at worst the fused view is briefly stale.
struct MetricEntry {
  std::string name;  // registered metric name, <= kMaxMetricNameBytes
  std::uint8_t kind = 0;  // obs::MetricKind on the wire: 0 counter, 1 gauge
  double value = 0.0;
  bool operator==(const MetricEntry&) const = default;
};

inline constexpr std::size_t kMaxMetricNameBytes = 256;

/// Periodic sensor -> aggregator metrics snapshot, shipped as an
/// unsequenced kMetrics control frame on the heartbeat cadence. Delta
/// selection (only changed entries) keeps it small; `full` marks snapshots
/// carrying every entry (sent periodically so a lost delta heals).
/// `snapshot_id` increases monotonically per session so the receiver can
/// discard stale or duplicated snapshots.
struct MetricsMsg {
  std::uint32_t snapshot_id = 0;
  std::uint8_t full = 0;
  std::vector<MetricEntry> entries;
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;
  static std::optional<MetricsMsg> Decode(std::span<const std::uint8_t> p);
};

}  // namespace rfdump::net
