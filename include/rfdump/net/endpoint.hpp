#pragma once
// Transport <-> session/aggregator glue (DESIGN.md §14).
//
// SensorSession and Aggregator are transport-agnostic: they consume and
// produce encoded frames plus raw inbound bytes. The two classes here own
// the remaining plumbing for a real (reconnecting, multi-connection)
// transport:
//
//   * SensorEndpoint drives one session over a redialable Transport. It
//     dials through a caller-supplied factory, pumps outbound frames into
//     the transport (counting backpressure rejects — the retransmit ring
//     re-offers refused data frames on RTO), feeds received bytes back,
//     and on transport death calls SensorSession::OnTransportDown() so
//     reconnect timing is governed by the session's epoch-bumping backoff:
//     while the session sits in kBackoff no dial is attempted, and the
//     next dial happens when it re-enters kConnecting.
//
//   * AggregatorServer drives one Aggregator over many inbound transports
//     (accepted from a TcpListener, or injected directly in tests). A TCP
//     connection does not announce which sensor it carries, so the server
//     sniffs the first CRC-valid frame on each connection to bind it to
//     that frame's sensor_id — then *replays the connection's raw bytes*
//     into the aggregator, whose own per-sensor FrameParser stays the
//     single authority on parse/corruption accounting. Acks route back to
//     the most recently bound connection per sensor (a reconnect
//     supersedes its dead predecessor).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rfdump/net/aggregator.hpp"
#include "rfdump/net/session.hpp"
#include "rfdump/net/tcp.hpp"
#include "rfdump/net/transport.hpp"

namespace rfdump::net {

class SensorEndpoint {
 public:
  /// Returns a freshly dialed transport (or nullptr to skip this attempt,
  /// e.g. socket creation failed under fd exhaustion).
  using DialFn =
      std::function<std::unique_ptr<Transport>(std::int64_t tick)>;

  struct Stats {
    std::uint64_t dials = 0;
    std::uint64_t transport_down = 0;   // kClosed observed -> session backoff
    std::uint64_t send_rejects = 0;     // frames refused by the transport
    std::uint64_t frames_sent = 0;      // frames the transport accepted
  };

  SensorEndpoint(SensorSession& session, DialFn dial)
      : session_(session), dial_(std::move(dial)) {}

  /// One pump cycle: session tick, (re)dial if due, outbound -> transport,
  /// transport -> session, death -> OnTransportDown.
  void Pump(std::int64_t tick, std::int64_t local_time);

  [[nodiscard]] SensorSession& session() { return session_; }
  [[nodiscard]] Transport* transport() { return transport_.get(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Aggregate of every dead transport's stats plus the live one's. Test
  /// seam: only tests call it.
  [[nodiscard]] Transport::Stats transport_totals() const;

 private:
  void DropTransportLocked();

  SensorSession& session_;
  DialFn dial_;
  std::unique_ptr<Transport> transport_;
  Stats stats_;
  Transport::Stats closed_totals_;  // accumulated from dead transports
  std::vector<std::uint8_t> rx_buf_;
};

class AggregatorServer {
 public:
  struct Config {
    Aggregator::Config aggregator;
    TcpTransport::Config transport;  // applied to accepted connections
    /// Cap on buffered bytes per *unbound* connection (no valid frame seen
    /// yet). A connection that exceeds it without producing one CRC-valid
    /// frame is garbage or hostile: dropped.
    std::size_t max_unbound_bytes = 64 * 1024;
    /// Accepts per Pump, so an accept storm cannot starve the tick.
    int max_accepts_per_pump = 16;
  };

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t adopted = 0;          // transports injected directly
    std::uint64_t bound = 0;            // connections bound to a sensor id
    std::uint64_t closed = 0;
    std::uint64_t unbound_dropped = 0;  // over max_unbound_bytes, no frame
    std::uint64_t ack_frames_sent = 0;
    std::uint64_t ack_send_rejects = 0;
  };

  explicit AggregatorServer(Config config);

  /// Attach the accepting socket (optional; tests may only Adopt()).
  void set_listener(TcpListener* listener) { listener_ = listener; }

  /// Takes ownership of an already-connected transport (server side).
  void Adopt(std::unique_ptr<Transport> transport);

  /// One pump cycle: accept, ingest every connection, tick the aggregator,
  /// route acks, reap dead connections.
  void Pump(std::int64_t tick);

  [[nodiscard]] Aggregator& aggregator() { return aggregator_; }
  [[nodiscard]] const Aggregator& aggregator() const { return aggregator_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

 private:
  struct Connection {
    std::unique_ptr<Transport> transport;
    bool bound = false;
    std::uint16_t sensor_id = 0;
    FrameParser sniffer;              // only used until bound
    std::vector<std::uint8_t> raw;    // bytes held back until bound
    std::uint64_t order = 0;          // adoption order; newest wins acks
  };

  void Ingest(Connection& conn, std::span<const std::uint8_t> bytes);

  Config config_;
  Aggregator aggregator_;
  TcpListener* listener_ = nullptr;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_order_ = 0;
  Stats stats_;
  std::vector<std::uint8_t> rx_buf_;
};

}  // namespace rfdump::net
