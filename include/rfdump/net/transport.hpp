#pragma once
// Transport abstraction under the frame layer (DESIGN.md §14).
//
// Everything above this interface — SensorSession, Aggregator, Fleet — deals
// in encoded frames and byte streams; everything below it deals in how those
// bytes actually move. Two implementations exist:
//
//   * LinkTransport (this header): the in-memory FaultyLink pair the fleet
//     harness has always pumped, refactored behind the interface so the
//     chaos sweep keeps its exact semantics (and its ground-truth logs);
//   * TcpTransport (net/tcp.hpp): real nonblocking sockets over loopback or
//     a wire, with FaultySyscalls underneath for chaos testing at the
//     syscall boundary.
//
// The contract is deliberately narrow and byte-stream shaped, because that
// is all TCP gives you:
//
//   * Send() takes one *encoded frame* (the natural unit the session and
//     aggregator produce) and may refuse it — `false` means the transport's
//     bounded send buffer is at its high-water mark. Callers do not retry:
//     a refused data frame sits in the session's retransmit ring and comes
//     back on its RTO; a refused control frame is regenerated on the next
//     heartbeat/ack cadence. Backpressure therefore degrades a slow peer to
//     the ring's bounded memory instead of growing a queue without limit.
//   * Poll() advances the transport one virtual tick and *appends* whatever
//     bytes arrived to `received` — unframed, possibly cut mid-header; the
//     caller's FrameParser owns reassembly and resync.
//   * state() reports the connection lifecycle. kClosed is terminal: a
//     transport never reconnects itself. The owner (SensorEndpoint) maps
//     kClosed to SensorSession::OnTransportDown(), which routes reconnect
//     through the session's existing epoch-bumping backoff.

#include <cstdint>
#include <span>
#include <vector>

#include "rfdump/net/faulty_link.hpp"

namespace rfdump::net {

class Transport {
 public:
  enum class State {
    kConnecting,  // handshake in flight (TCP: nonblocking connect pending)
    kConnected,
    kClosed,      // terminal: EOF, reset, or connect failure/timeout
  };

  /// Counters every implementation keeps; the TCP transport fills the
  /// syscall-shaped ones, the in-memory link leaves them zero.
  struct Stats {
    std::uint64_t frames_accepted = 0;   // Send() == true
    std::uint64_t send_rejects = 0;      // Send() == false (backpressure)
    std::uint64_t bytes_sent = 0;        // handed to the wire
    std::uint64_t bytes_received = 0;
    std::uint64_t partial_writes = 0;    // write consumed < requested
    std::uint64_t partial_reads = 0;     // read returned < requested
    std::uint64_t eintr_retries = 0;
    std::uint64_t eagain_yields = 0;     // would-block, resumed next Poll
    std::uint64_t resets = 0;            // ECONNRESET / EPIPE
    std::uint64_t connect_timeouts = 0;
    std::size_t send_buffer_peak = 0;    // high-water mark actually reached
  };

  virtual ~Transport() = default;

  /// Queues one encoded frame. Returns false when the bounded send buffer
  /// would overflow (backpressure) or the transport is closed; the frame is
  /// NOT taken in that case.
  virtual bool Send(std::span<const std::uint8_t> frame) = 0;

  /// Advances to `tick` and appends received bytes (an arbitrary slice of
  /// the peer's byte stream) to `received`.
  virtual void Poll(std::int64_t tick, std::vector<std::uint8_t>& received) = 0;

  [[nodiscard]] virtual State state() const = 0;
  virtual void Close() = 0;
  [[nodiscard]] virtual const Stats& stats() const = 0;
};

/// One side of an in-memory duplex channel built from two FaultyLinks. The
/// links are owned elsewhere (Fleet's Node keeps them, so chaos tests keep
/// their uplink()/downlink() handles and fault logs); each side sends into
/// its tx link and drains its rx link. Always connected; Send never applies
/// backpressure — the FaultyLink *is* the fault model here, and the chaos
/// sweep's ground truth depends on every offered frame entering the link.
class LinkTransport final : public Transport {
 public:
  LinkTransport(FaultyLink& tx, FaultyLink& rx) : tx_(tx), rx_(rx) {}

  bool Send(std::span<const std::uint8_t> frame) override;
  void Poll(std::int64_t tick, std::vector<std::uint8_t>& received) override;
  [[nodiscard]] State state() const override {
    return closed_ ? State::kClosed : State::kConnected;
  }
  void Close() override { closed_ = true; }
  [[nodiscard]] const Stats& stats() const override { return stats_; }

 private:
  FaultyLink& tx_;
  FaultyLink& rx_;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace rfdump::net
