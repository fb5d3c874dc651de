#include "rfdump/net/messages.hpp"

namespace rfdump::net {

namespace {

/// Caps the element count a hostile length prefix can demand. Every decoded
/// element is at least a few bytes, so `remaining` bounds any honest count.
bool PlausibleCount(std::uint64_t count, std::size_t remaining,
                    std::size_t min_element_bytes) {
  return count * min_element_bytes <= remaining;
}

void EncodeEvent(ByteWriter& w, const EventRecord& e) {
  w.U8(static_cast<std::uint8_t>(e.protocol));
  w.U16(static_cast<std::uint16_t>(e.channel));
  w.I64(e.start_sample);
  w.I64(e.end_sample);
  w.U32(e.payload_bytes);
  w.U8(e.crc_ok ? 1 : 0);
  w.U64(e.payload_digest);
}

constexpr std::size_t kEventBytes = 1 + 2 + 8 + 8 + 4 + 1 + 8;

void EncodeCtx(ByteWriter& w, const obs::TraceContext& ctx) {
  w.U64(ctx.trace_id);
  w.U64(ctx.span_id);
}

obs::TraceContext DecodeCtx(ByteReader& r) {
  obs::TraceContext ctx;
  ctx.trace_id = r.U64();
  ctx.span_id = r.U64();
  return ctx;
}

bool DecodeEvent(ByteReader& r, EventRecord& e) {
  const std::uint8_t proto = r.U8();
  if (proto >= core::kProtocolCount) return false;
  e.protocol = static_cast<core::Protocol>(proto);
  e.channel = static_cast<std::int16_t>(r.U16());
  e.start_sample = r.I64();
  e.end_sample = r.I64();
  e.payload_bytes = r.U32();
  e.crc_ok = r.U8() != 0;
  e.payload_digest = r.U64();
  return r.ok();
}

}  // namespace

std::uint64_t Fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

EventRecord ToEventRecord(const core::ProtocolEvent& ev) {
  EventRecord e;
  e.protocol = ev.protocol;
  e.channel = static_cast<std::int16_t>(ev.channel);
  e.start_sample = ev.start_sample;
  e.end_sample = ev.end_sample;
  e.payload_bytes = static_cast<std::uint32_t>(ev.payload.size());
  e.crc_ok = ev.crc_ok;
  e.payload_digest = Fnv1a64({ev.payload.data(), ev.payload.size()});
  return e;
}

std::vector<std::uint8_t> HelloMsg::Encode() const {
  ByteWriter w;
  w.U32(epoch);
  w.I64(local_time);
  return w.Take();
}

std::optional<HelloMsg> HelloMsg::Decode(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  HelloMsg m;
  m.epoch = r.U32();
  m.local_time = r.I64();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> HeartbeatMsg::Encode() const {
  ByteWriter w;
  w.I64(local_time);
  w.U64(frames_sent);
  return w.Take();
}

std::optional<HeartbeatMsg> HeartbeatMsg::Decode(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  HeartbeatMsg m;
  m.local_time = r.I64();
  m.frames_sent = r.U64();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> AckMsg::Encode() const {
  ByteWriter w;
  w.U32(cum_seq);
  w.U32(epoch);
  return w.Take();
}

std::optional<AckMsg> AckMsg::Decode(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  AckMsg m;
  m.cum_seq = r.U32();
  m.epoch = r.U32();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> EventBatchMsg::Encode() const {
  ByteWriter w;
  w.I64(block_start);
  EncodeCtx(w, ctx);
  w.U32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) EncodeEvent(w, e);
  return w.Take();
}

std::optional<EventBatchMsg> EventBatchMsg::Decode(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  EventBatchMsg m;
  m.block_start = r.I64();
  m.ctx = DecodeCtx(r);
  const std::uint32_t count = r.U32();
  if (!r.ok() || !PlausibleCount(count, r.remaining(), kEventBytes)) {
    return std::nullopt;
  }
  m.events.resize(count);
  for (auto& e : m.events) {
    if (!DecodeEvent(r, e)) return std::nullopt;
  }
  return m;
}

std::vector<std::uint8_t> HealthMsg::Encode() const {
  ByteWriter w;
  const core::HealthReport& h = report;
  w.I64(h.block_start);
  w.U64(h.block_samples);
  w.U32(h.gap_count);
  w.I64(h.gap_samples);
  w.I64(h.overlap_samples);
  w.U64(h.sanitized_samples);
  w.U64(h.nonfinite_samples);
  w.F64(h.saturation_fraction);
  w.U8(static_cast<std::uint8_t>(h.shed_stage));
  w.F64(h.block_load);
  w.U64(h.tagged_detections);
  w.U64(h.rejected_detections);
  w.U64(h.vetoed_detections);
  w.U64(h.forwarded_intervals);
  w.U64(h.supervised_intervals);
  w.U64(h.deadline_intervals);
  w.U64(h.exception_intervals);
  w.U64(h.skipped_intervals);
  w.U64(h.quarantined_intervals);
  w.U32(h.breaker_trips);
  w.U32(static_cast<std::uint32_t>(h.open_breakers));
  EncodeCtx(w, ctx);
  return w.Take();
}

std::optional<HealthMsg> HealthMsg::Decode(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  HealthMsg m;
  core::HealthReport& h = m.report;
  h.block_start = r.I64();
  h.block_samples = r.U64();
  h.gap_count = r.U32();
  h.gap_samples = r.I64();
  h.overlap_samples = r.I64();
  h.sanitized_samples = r.U64();
  h.nonfinite_samples = r.U64();
  h.saturation_fraction = r.F64();
  h.shed_stage = r.U8();
  h.block_load = r.F64();
  h.tagged_detections = r.U64();
  h.rejected_detections = r.U64();
  h.vetoed_detections = r.U64();
  h.forwarded_intervals = r.U64();
  h.supervised_intervals = r.U64();
  h.deadline_intervals = r.U64();
  h.exception_intervals = r.U64();
  h.skipped_intervals = r.U64();
  h.quarantined_intervals = r.U64();
  h.breaker_trips = r.U32();
  h.open_breakers = static_cast<int>(r.U32());
  m.ctx = DecodeCtx(r);
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> GapReportMsg::Encode() const {
  ByteWriter w;
  EncodeCtx(w, ctx);
  w.U32(static_cast<std::uint32_t>(lost.size()));
  for (const auto& range : lost) {
    w.U32(range.first);
    w.U32(range.last);
  }
  return w.Take();
}

std::optional<GapReportMsg> GapReportMsg::Decode(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  GapReportMsg m;
  m.ctx = DecodeCtx(r);
  const std::uint32_t count = r.U32();
  if (!r.ok() || !PlausibleCount(count, r.remaining(), 8)) {
    return std::nullopt;
  }
  m.lost.resize(count);
  for (auto& range : m.lost) {
    range.first = r.U32();
    range.last = r.U32();
    if (!r.ok() || range.first == 0 || range.last < range.first) {
      return std::nullopt;
    }
  }
  return m;
}

std::vector<std::uint8_t> MetricsMsg::Encode() const {
  ByteWriter w;
  w.U32(snapshot_id);
  w.U8(full);
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.U16(static_cast<std::uint16_t>(e.name.size()));
    w.Bytes({reinterpret_cast<const std::uint8_t*>(e.name.data()),
             e.name.size()});
    w.U8(e.kind);
    w.F64(e.value);
  }
  return w.Take();
}

std::optional<MetricsMsg> MetricsMsg::Decode(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  MetricsMsg m;
  m.snapshot_id = r.U32();
  m.full = r.U8();
  const std::uint32_t count = r.U32();
  // Smallest honest entry: 2-byte length + 1-char name + kind + f64.
  if (!r.ok() || m.full > 1 || !PlausibleCount(count, r.remaining(), 12)) {
    return std::nullopt;
  }
  m.entries.resize(count);
  for (auto& e : m.entries) {
    const std::uint16_t len = r.U16();
    if (!r.ok() || len == 0 || len > kMaxMetricNameBytes) return std::nullopt;
    const auto bytes = r.Bytes(len);
    e.name.assign(bytes.begin(), bytes.end());
    e.kind = r.U8();
    e.value = r.F64();
    if (!r.ok() || e.kind > 1) return std::nullopt;
  }
  return m;
}

}  // namespace rfdump::net
