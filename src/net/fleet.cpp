#include "rfdump/net/fleet.hpp"

#include <cinttypes>
#include <cstdio>

namespace rfdump::net {

namespace {

// Minimal JSON emission helpers for FleetStatus::ToJson. Keys are
// hard-coded identifiers and every value is numeric or boolean, so no
// string escaping is needed.
void JKey(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

void JU64(std::string& out, const char* key, std::uint64_t v) {
  char buf[32];
  JKey(out, key);
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void JI64(std::string& out, const char* key, std::int64_t v) {
  char buf[32];
  JKey(out, key);
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void JF64(std::string& out, const char* key, double v) {
  char buf[48];
  JKey(out, key);
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void JBool(std::string& out, const char* key, bool v) {
  JKey(out, key);
  out += v ? "true" : "false";
}

void JStr(std::string& out, const char* key, const char* v) {
  JKey(out, key);
  out += '"';
  out += v;
  out += '"';
}

void JRanges(std::string& out, const char* key,
             const std::vector<SeqRange>& ranges) {
  JKey(out, key);
  out += '[';
  bool first = true;
  char buf[48];
  for (const auto& r : ranges) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "[%u,%u]", r.first, r.last);
    out += buf;
  }
  out += ']';
}

}  // namespace

void MonitorSensorSink::Buffer(EventRecord record) {
  if (pending_.empty()) {
    // First event of the block anchors the batch position if no health
    // report preceded it (batch-mode pipelines emit health last).
    if (block_start_ == 0) block_start_ = record.start_sample;
  }
  pending_.push_back(record);
}

void MonitorSensorSink::OnEvent(const core::ProtocolEvent& event) {
  Buffer(ToEventRecord(event));
}

void MonitorSensorSink::OnHealth(const core::HealthReport& report) {
  // Health leads each block (sink contract), so everything buffered belongs
  // to the *previous* block: ship it before starting the new one.
  Flush();
  block_start_ = report.block_start;
  session_.PublishHealth(report);
}

void MonitorSensorSink::Flush() {
  if (pending_.empty()) return;
  // Root of the distributed trace for this block: the session's publish
  // span and every aggregator span downstream parent under it.
  obs::LinkedSpan span(session_.tracer(), "sensor/flush_block", {});
  EventBatchMsg batch;
  batch.block_start = block_start_;
  batch.ctx = span.context();
  batch.events = std::move(pending_);
  pending_.clear();
  events_published_ += batch.events.size();
  session_.PublishEvents(batch);
}

Fleet::Fleet(Config config)
    : config_(std::move(config)),
      aggregator_([&] {
        auto agg = config_.aggregator;
        agg.samples_per_tick = config_.samples_per_tick;
        return agg;
      }()) {
  nodes_.reserve(config_.sensors.size());
  for (auto spec : config_.sensors) {
    spec.session.sensor_id = spec.id;
    nodes_.push_back(std::make_unique<Node>(spec));
  }
}

std::uint32_t Fleet::Publish(std::size_t i, std::int64_t block_start,
                             std::vector<EventRecord> events) {
  EventBatchMsg batch;
  batch.block_start = block_start;
  batch.events = std::move(events);
  return nodes_[i]->session.PublishEvents(batch);
}

void Fleet::Tick() {
  ++now_;
  // Advance the aggregator clock before ingest: the offset estimator stamps
  // arrivals with the aggregator's current tick, and a min-filter never
  // recovers from an arrival stamped one tick early.
  aggregator_.Tick(now_);
  // Sensor side: advance sessions, push their output through the sensor-side
  // transports, and hand whatever the central-side transports surface this
  // tick to the aggregator (a byte stream; its FrameParser owns reassembly).
  std::vector<std::uint8_t> rx;
  for (auto& node : nodes_) {
    node->session.Tick(now_, now_ * config_.samples_per_tick +
                                 node->spec.clock_offset_samples);
    for (auto& frame : node->session.TakeOutbound()) {
      node->sensor_side.Send(frame);
    }
    rx.clear();
    node->central_side.Poll(now_, rx);
    if (!rx.empty()) aggregator_.HandleBytes(node->spec.id, rx);
  }
  // Aggregator side again: ack emission for frames that just arrived (the
  // second Tick at the same tick value only drains ack_due), then the
  // return path.
  aggregator_.Tick(now_);
  for (auto& node : nodes_) {
    for (auto& frame : aggregator_.TakeOutbound(node->spec.id)) {
      node->central_side.Send(frame);
    }
    rx.clear();
    node->sensor_side.Poll(now_, rx);
    if (!rx.empty()) node->session.HandleBytes(rx);
  }
}

void Fleet::Run(int ticks) {
  for (int i = 0; i < ticks; ++i) Tick();
}

void Fleet::SetLossless(bool lossless) {
  for (auto& node : nodes_) {
    node->uplink.set_lossless(lossless);
    node->downlink.set_lossless(lossless);
  }
}

FleetStatus Fleet::StatusReport() const {
  FleetStatus fs;
  fs.tick = now_;
  fs.live_sensors = aggregator_.live_sensors();
  fs.fused_events = aggregator_.fused().size();
  fs.merges = aggregator_.merges();
  fs.fused_pruned = aggregator_.fused_pruned();
  fs.sensors.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    FleetStatus::SensorRow row;
    row.id = node->spec.id;
    row.session_state = node->session.state();
    row.epoch = node->session.epoch();
    row.acked_seq = node->session.acked_seq();
    row.unacked = node->session.unacked();
    row.session = node->session.stats();
    row.lost_ranges = node->session.lost_ranges();
    row.known = aggregator_.Known(row.id);
    if (row.known) {
      row.agg = aggregator_.status(row.id);
      row.parse = aggregator_.parse_stats(row.id);
    }
    fs.sensors.push_back(std::move(row));
  }
  return fs;
}

std::string FleetStatus::ToJson() const {
  std::string out = "{";
  JI64(out, "tick", tick);
  out += ',';
  JU64(out, "live_sensors", live_sensors);
  out += ',';
  JU64(out, "fused_events", fused_events);
  out += ',';
  JU64(out, "merges", merges);
  out += ',';
  JU64(out, "fused_pruned", fused_pruned);
  out += ',';
  JKey(out, "sensors");
  out += '[';
  bool first = true;
  for (const SensorRow& r : sensors) {
    if (!first) out += ',';
    first = false;
    out += '{';
    JU64(out, "id", r.id);
    out += ',';
    JKey(out, "session");
    out += '{';
    JStr(out, "state", SessionStateName(r.session_state));
    out += ',';
    JU64(out, "epoch", r.epoch);
    out += ',';
    JU64(out, "acked_seq", r.acked_seq);
    out += ',';
    JU64(out, "unacked", r.unacked);
    out += ',';
    JU64(out, "frames_sent", r.session.frames_sent);
    out += ',';
    JU64(out, "retransmits", r.session.retransmits);
    out += ',';
    JU64(out, "heartbeats", r.session.heartbeats);
    out += ',';
    JU64(out, "reconnects", r.session.reconnects);
    out += ',';
    JU64(out, "ring_overflow_drops", r.session.ring_overflow_drops);
    out += ',';
    JU64(out, "stale_acks", r.session.stale_acks);
    out += ',';
    JU64(out, "metrics_snapshots", r.session.metrics_snapshots);
    out += ',';
    JF64(out, "rtt_ticks", r.session.rtt_ticks);
    out += ',';
    JRanges(out, "lost_ranges", r.lost_ranges);
    out += "},";
    JKey(out, "aggregator");
    out += '{';
    JBool(out, "known", r.known);
    out += ',';
    JBool(out, "live", r.agg.state == Aggregator::SensorState::kLive);
    out += ',';
    JF64(out, "trust", r.agg.trust);
    out += ',';
    JU64(out, "epoch", r.agg.epoch);
    out += ',';
    JU64(out, "cum_seq", r.agg.cum_seq);
    out += ',';
    JI64(out, "last_heard_tick", r.agg.last_heard_tick);
    out += ',';
    JBool(out, "offset_known", r.agg.offset_known);
    out += ',';
    JI64(out, "clock_offset", r.agg.clock_offset);
    out += ',';
    JU64(out, "offset_updates", r.agg.offset_updates);
    out += ',';
    JU64(out, "frames_delivered", r.agg.frames_delivered);
    out += ',';
    JU64(out, "duplicates_dropped", r.agg.duplicates_dropped);
    out += ',';
    JU64(out, "corrupt_dropped", r.agg.corrupt_dropped);
    out += ',';
    JU64(out, "reorder_overflow", r.agg.reorder_overflow);
    out += ',';
    JU64(out, "events_received", r.agg.events_received);
    out += ',';
    JU64(out, "events_held_untrusted", r.agg.events_held_untrusted);
    out += ',';
    JU64(out, "degraded_transitions", r.agg.degraded_transitions);
    out += ',';
    JU64(out, "metrics_snapshots_applied", r.agg.metrics_snapshots_applied);
    out += ',';
    JU64(out, "health_reports", r.agg.health.size());
    out += ',';
    JRanges(out, "lost_applied", r.agg.lost_applied);
    out += "},";
    JKey(out, "parse");
    out += '{';
    JU64(out, "frames_ok", r.parse.frames_ok);
    out += ',';
    JU64(out, "bad_magic_bytes", r.parse.bad_magic_bytes);
    out += ',';
    JU64(out, "bad_version", r.parse.bad_version);
    out += ',';
    JU64(out, "bad_type", r.parse.bad_type);
    out += ',';
    JU64(out, "bad_length", r.parse.bad_length);
    out += ',';
    JU64(out, "bad_header_checksum", r.parse.bad_header_checksum);
    out += ',';
    JU64(out, "bad_crc", r.parse.bad_crc);
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string FleetStatus::ToText() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "fleet @ tick %" PRId64 ": %zu live, %zu fused (%" PRIu64
                " merged, %" PRIu64 " pruned)\n",
                tick, live_sensors, fused_events, merges, fused_pruned);
  out += line;
  out +=
      "  id state      epoch  seq(ack/cum) unack  rtt   trust live  gaps "
      "retx corrupt dup   events\n";
  for (const SensorRow& r : sensors) {
    std::snprintf(
        line, sizeof(line),
        "  %-2u %-10s %-6u %u/%u %-5zu %-5.1f %-5.2f %-5s %-4zu %-4" PRIu64
        " %-7" PRIu64 " %-5" PRIu64 " %" PRIu64 "\n",
        r.id, SessionStateName(r.session_state), r.epoch, r.acked_seq,
        r.agg.cum_seq, r.unacked, r.session.rtt_ticks, r.agg.trust,
        !r.known ? "?"
                 : (r.agg.state == Aggregator::SensorState::kLive ? "yes"
                                                                  : "NO"),
        r.agg.lost_applied.size(), r.session.retransmits,
        r.agg.corrupt_dropped, r.agg.duplicates_dropped,
        r.agg.events_received);
    out += line;
    if (r.agg.offset_known) {
      std::snprintf(line, sizeof(line),
                    "     clock offset %+" PRId64 " samples (%" PRIu64
                    " updates), %" PRIu64 " health, %" PRIu64
                    " metric snapshots\n",
                    r.agg.clock_offset, r.agg.offset_updates,
                    static_cast<std::uint64_t>(r.agg.health.size()),
                    r.agg.metrics_snapshots_applied);
      out += line;
    }
  }
  return out;
}

}  // namespace rfdump::net
