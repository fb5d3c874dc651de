#pragma once
// Fleet harness: N sensors -> one aggregator over emulated faulty links
// (DESIGN.md §12; the multi-sensor architecture from ROADMAP item 2).
//
// Fleet owns the whole in-process topology: per sensor a SensorSession and
// a duplex pair of FaultyLinks (uplink carries data/heartbeats, downlink
// carries acks), all feeding one Aggregator. One Tick() advances the
// virtual clock everywhere in a fixed pump order, so a run is reproducible
// bit-for-bit from (config, seeds):
//
//   session.Tick -> uplink.Send/Advance -> aggregator.HandleBytes
//   -> aggregator.Tick -> downlink.Send/Advance -> session.HandleBytes
//
// The sensor's local sample clock is `tick * samples_per_tick +
// clock_offset_samples` — the same skew an emu::FrontEnd applies to its
// segment timestamps, so a real monitor's event positions and the fleet's
// heartbeat clock samples agree.
//
// MonitorSensorSink adapts a StreamingMonitor to a session: it implements
// core::ResultSink, buffering decoded events per block and shipping them as
// EventBatchMsg frames. The sink contract delivers health *first* for each
// block, so a health report is the signal that the previous block's events
// are complete; Flush() ships the tail after the monitor's own Flush().

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rfdump/core/result_sink.hpp"
#include "rfdump/net/aggregator.hpp"
#include "rfdump/net/faulty_link.hpp"
#include "rfdump/net/messages.hpp"
#include "rfdump/net/session.hpp"
#include "rfdump/net/transport.hpp"

namespace rfdump::net {

/// Point-in-time snapshot of everything the fleet knows about itself:
/// both sides of every sensor's link (session ledgers, aggregator status,
/// parse stats) plus the fused-view totals. Rendered by the CLI's
/// `--fleet-status[=json]` (DESIGN.md §13).
struct FleetStatus {
  struct SensorRow {
    std::uint16_t id = 0;
    // Sensor side (session).
    SensorSession::State session_state = SensorSession::State::kConnecting;
    std::uint32_t epoch = 0;
    std::uint32_t acked_seq = 0;
    std::size_t unacked = 0;
    SensorSession::Stats session;
    std::vector<SeqRange> lost_ranges;
    // Central side (aggregator); `known` is false until the aggregator has
    // heard a first valid frame, in which case `agg`/`parse` are defaulted.
    bool known = false;
    Aggregator::SensorStatus agg;
    ParseStats parse;
  };

  std::int64_t tick = 0;
  std::size_t live_sensors = 0;
  std::size_t fused_events = 0;
  std::uint64_t merges = 0;
  std::uint64_t fused_pruned = 0;
  std::vector<SensorRow> sensors;

  /// Machine-readable rendering (schema-checked in tests/net_test.cpp).
  [[nodiscard]] std::string ToJson() const;
  /// One-screen operator rendering.
  [[nodiscard]] std::string ToText() const;
};

/// core::ResultSink -> SensorSession bridge. Not thread-safe itself, but the
/// monitor serialises sink calls and the session serialises publishes, so
/// monitor-thread emission concurrent with fleet-thread Tick is safe.
class MonitorSensorSink final : public core::ResultSink {
 public:
  explicit MonitorSensorSink(SensorSession& session) : session_(session) {}

  /// One override covers every registered protocol: every decode reaches
  /// the sink as one core::ProtocolEvent, whatever bundle produced it.
  void OnEvent(const core::ProtocolEvent& event) override;
  void OnHealth(const core::HealthReport& report) override;

  /// Ships any buffered tail events. Call after StreamingMonitor::Flush().
  void Flush();

  /// Events handed to the session so far (published, not necessarily acked).
  [[nodiscard]] std::uint64_t events_published() const {
    return events_published_;
  }

 private:
  void Buffer(EventRecord record);

  SensorSession& session_;
  std::vector<EventRecord> pending_;
  std::int64_t block_start_ = 0;  // sensor-local position of pending_'s block
  std::uint64_t events_published_ = 0;
};

/// Owns sessions, links, and the aggregator; advances them in lockstep.
class Fleet {
 public:
  struct SensorSpec {
    std::uint16_t id = 0;
    /// Sensor clock skew: local = global + offset (matches
    /// emu::FrontEnd::Config::clock_offset_samples).
    std::int64_t clock_offset_samples = 0;
    SensorSession::Config session;  // sensor_id is overwritten with `id`
    FaultyLink::Config uplink;
    FaultyLink::Config downlink;
    std::uint64_t seed = 1;  // session jitter + both link fault schedules
  };

  struct Config {
    /// Samples of ether time per fleet tick (1 ms at 8 Msps by default).
    std::int64_t samples_per_tick = 8000;
    Aggregator::Config aggregator;  // samples_per_tick is overwritten
    std::vector<SensorSpec> sensors;
  };

  explicit Fleet(Config config);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::int64_t tick() const { return now_; }

  SensorSession& session(std::size_t i) { return nodes_[i]->session; }
  FaultyLink& uplink(std::size_t i) { return nodes_[i]->uplink; }
  FaultyLink& downlink(std::size_t i) { return nodes_[i]->downlink; }
  MonitorSensorSink& sink(std::size_t i) { return nodes_[i]->sink; }
  /// The Transport seam the pump drives (sensor side of sensor i's links);
  /// the TCP path (net/endpoint.hpp) plugs the same interface.
  Transport& transport(std::size_t i) { return nodes_[i]->sensor_side; }
  Aggregator& aggregator() { return aggregator_; }
  const Aggregator& aggregator() const { return aggregator_; }
  [[nodiscard]] std::uint16_t sensor_id(std::size_t i) const {
    return nodes_[i]->spec.id;
  }

  /// Publishes a synthetic event batch on sensor i (chaos tests inject here;
  /// real monitors publish through sink(i) instead). `block_start` and event
  /// positions are in the sensor's *local* timeline.
  std::uint32_t Publish(std::size_t i, std::int64_t block_start,
                        std::vector<EventRecord> events);

  /// One lockstep tick of the whole topology.
  void Tick();
  /// Convenience: `ticks` consecutive Tick() calls.
  void Run(int ticks);

  /// Drain mode: stop injecting new link faults fleet-wide so retransmits
  /// converge (scheduled partitions still apply).
  void SetLossless(bool lossless);

  /// Snapshots per-sensor liveness, trust, seq/ack/gap ledgers, ParseStats,
  /// clock offsets and link health — refreshable mid-run.
  [[nodiscard]] FleetStatus StatusReport() const;

 private:
  // SensorSession owns a mutex, so nodes live behind stable pointers. The
  // FaultyLinks stay owned here (chaos tests keep their uplink()/downlink()
  // handles and fault logs); the two LinkTransports are the per-side views
  // the pump actually drives, the same Transport seam the TCP path plugs
  // into (net/endpoint.hpp).
  struct Node {
    explicit Node(SensorSpec s)
        : spec(s),
          session(s.session, s.seed),
          uplink(s.uplink, s.seed * 2 + 1),
          downlink(s.downlink, s.seed * 2 + 2),
          sink(session),
          sensor_side(uplink, downlink),
          central_side(downlink, uplink) {}

    SensorSpec spec;
    SensorSession session;
    FaultyLink uplink;
    FaultyLink downlink;
    MonitorSensorSink sink;
    LinkTransport sensor_side;   // tx = uplink, rx = downlink
    LinkTransport central_side;  // tx = downlink, rx = uplink
  };

  Config config_;
  Aggregator aggregator_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::int64_t now_ = 0;
};

}  // namespace rfdump::net
