// rfdump::net unit tests (DESIGN.md §12): the wire-format conformance gate
// (encode -> parse round-trip under splits, corruption, garbage and version
// skew), message codec round-trips with hostile-input guards, FaultyLink
// determinism + ground-truth fault logging, SensorSession reliability
// (retransmit, ack, ring overflow -> explicit gaps, backoff reconnect), and
// Aggregator reassembly / clock alignment / dedup / liveness / trust.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "rfdump/net/aggregator.hpp"
#include "rfdump/net/faulty_link.hpp"
#include "rfdump/net/fleet.hpp"
#include "rfdump/net/messages.hpp"
#include "rfdump/net/session.hpp"
#include "rfdump/net/wire.hpp"

namespace net = rfdump::net;
namespace core = rfdump::core;

namespace {

std::vector<std::uint8_t> Payload(std::size_t n, std::uint8_t base = 7) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(base + i * 13);
  }
  return p;
}

net::Frame RequireOne(net::FrameParser& parser,
                      std::span<const std::uint8_t> bytes) {
  std::vector<net::Frame> out;
  parser.Feed(bytes, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  EXPECT_EQ(out.size(), 1u);
  if (out.empty()) return {};
  return std::move(out.front());
}

net::EventRecord MakeEvent(std::int64_t start, core::Protocol proto =
                                                   core::Protocol::kWifi80211b) {
  net::EventRecord e;
  e.protocol = proto;
  e.channel = proto == core::Protocol::kBluetooth ? 3 : -1;
  e.start_sample = start;
  e.end_sample = start + 1000;
  e.payload_bytes = 64;
  e.crc_ok = true;
  e.payload_digest = 0xDEADBEEFCAFEull + static_cast<std::uint64_t>(start);
  return e;
}

// ------------------------------------------------------------------- wire

TEST(Wire, EncodeParseRoundTrip) {
  net::FrameHeader h;
  h.type = net::FrameType::kEventBatch;
  h.sensor_id = 7;
  h.seq = 42;
  const auto payload = Payload(300);
  const auto wire = net::EncodeFrame(h, payload);
  ASSERT_EQ(wire.size(),
            net::kFrameHeaderBytes + payload.size() + net::kFrameTrailerBytes);

  net::FrameParser parser;
  const auto f = RequireOne(parser, wire);
  EXPECT_EQ(f.header.type, net::FrameType::kEventBatch);
  EXPECT_EQ(f.header.sensor_id, 7);
  EXPECT_EQ(f.header.seq, 42u);
  EXPECT_EQ(f.payload, payload);
  EXPECT_EQ(parser.stats().frames_ok, 1u);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(Wire, ByteAtATimeFeedReassembles) {
  net::FrameHeader h;
  h.type = net::FrameType::kHeartbeat;
  h.sensor_id = 1;
  const auto payload = Payload(50);
  const auto wire = net::EncodeFrame(h, payload);

  net::FrameParser parser;
  std::vector<net::Frame> out;
  for (const std::uint8_t b : wire) {
    parser.Feed({&b, 1}, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  }
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(Wire, BackToBackFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t seq = 1; seq <= 5; ++seq) {
    net::FrameHeader h;
    h.type = net::FrameType::kHealth;
    h.sensor_id = 2;
    h.seq = seq;
    const auto wire = net::EncodeFrame(h, Payload(seq * 10));
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  net::FrameParser parser;
  std::vector<net::Frame> out;
  parser.Feed(stream, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].header.seq, i + 1);
    EXPECT_EQ(out[i].payload.size(), (i + 1) * 10);
  }
}

TEST(Wire, CorruptFrameDroppedAndParserResyncs) {
  net::FrameHeader h;
  h.type = net::FrameType::kEventBatch;
  h.sensor_id = 3;
  h.seq = 1;
  auto bad = net::EncodeFrame(h, Payload(80));
  bad[net::kFrameHeaderBytes + 10] ^= 0xFF;  // flip one payload byte
  h.seq = 2;
  const auto good = net::EncodeFrame(h, Payload(80));

  std::vector<std::uint8_t> stream = bad;
  stream.insert(stream.end(), good.begin(), good.end());

  net::FrameParser parser;
  std::vector<net::Frame> out;
  parser.Feed(stream, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.seq, 2u);  // the corrupt frame never surfaced
  EXPECT_GE(parser.stats().bad_crc, 1u);
}

TEST(Wire, GarbagePrefixSkippedByMagicHunt) {
  const auto garbage = Payload(37, 0xA5);
  net::FrameHeader h;
  h.type = net::FrameType::kAck;
  h.sensor_id = 0;
  const auto good = net::EncodeFrame(h, Payload(8));

  std::vector<std::uint8_t> stream = garbage;
  stream.insert(stream.end(), good.begin(), good.end());
  net::FrameParser parser;
  const auto f = RequireOne(parser, stream);
  EXPECT_EQ(f.header.type, net::FrameType::kAck);
  EXPECT_GT(parser.stats().bad_magic_bytes, 0u);
}

TEST(Wire, FutureVersionRejectedCleanly) {
  net::FrameHeader h;
  h.type = net::FrameType::kHello;
  auto wire = net::EncodeFrame(h, Payload(12));
  wire[2] = net::kWireVersion + 1;  // version byte
  net::FrameParser parser;
  std::vector<net::Frame> out;
  parser.Feed(wire, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  EXPECT_TRUE(out.empty());
  EXPECT_GE(parser.stats().bad_version, 1u);
}

TEST(Wire, HostileLengthFieldDoesNotStallParser) {
  net::FrameHeader h;
  h.type = net::FrameType::kEventBatch;
  h.seq = 1;
  auto wire = net::EncodeFrame(h, Payload(16));
  // Overwrite payload_len (offset 12, LE u32) with an absurd value. The
  // parser must reject it instead of buffering forever.
  const std::uint32_t huge = net::kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 12, &huge, sizeof(huge));
  net::FrameParser parser;
  std::vector<net::Frame> out;
  parser.Feed(wire, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  EXPECT_TRUE(out.empty());
  EXPECT_GE(parser.stats().bad_length, 1u);
  // Follow-up valid frame still parses (stream recovered).
  h.seq = 2;
  const auto good = net::EncodeFrame(h, Payload(16));
  parser.Feed(good, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.seq, 2u);
}

TEST(Wire, PlausibleCorruptLengthCaughtByHeaderChecksum) {
  net::FrameHeader h;
  h.type = net::FrameType::kEventBatch;
  h.seq = 1;
  auto wire = net::EncodeFrame(h, Payload(16));
  // Overwrite payload_len with a value *under* the cap. Without a header
  // checksum the parser would wait forever for 5000 bytes that never come,
  // stalling every frame behind this one.
  const std::uint32_t plausible = 5000;
  std::memcpy(wire.data() + 12, &plausible, sizeof(plausible));
  net::FrameParser parser;
  std::vector<net::Frame> out;
  parser.Feed(wire, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  EXPECT_TRUE(out.empty());
  EXPECT_GE(parser.stats().bad_header_checksum, 1u);
  // Follow-up valid frame still parses (stream recovered, no stall).
  h.seq = 2;
  const auto good = net::EncodeFrame(h, Payload(16));
  parser.Feed(good, [&](net::Frame&& f) { out.push_back(std::move(f)); });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.seq, 2u);
}

// --------------------------------------------------------------- messages

TEST(Messages, HelloHeartbeatAckRoundTrip) {
  const net::HelloMsg hello{9, -123456789};
  const auto h2 = net::HelloMsg::Decode(hello.Encode());
  ASSERT_TRUE(h2);
  EXPECT_EQ(h2->epoch, 9u);
  EXPECT_EQ(h2->local_time, -123456789);

  // frames_sent above 2^32 must survive the wire (u64 field, not u32).
  const net::HeartbeatMsg hb{987654321, 0x1'0000'0011ull};
  const auto hb2 = net::HeartbeatMsg::Decode(hb.Encode());
  ASSERT_TRUE(hb2);
  EXPECT_EQ(hb2->local_time, 987654321);
  EXPECT_EQ(hb2->frames_sent, 0x1'0000'0011ull);

  const net::AckMsg ack{1234, 5};
  const auto ack2 = net::AckMsg::Decode(ack.Encode());
  ASSERT_TRUE(ack2);
  EXPECT_EQ(ack2->cum_seq, 1234u);
  EXPECT_EQ(ack2->epoch, 5u);
}

TEST(Messages, EventBatchRoundTrip) {
  net::EventBatchMsg batch;
  batch.block_start = 400'000;
  batch.events.push_back(MakeEvent(400'100));
  batch.events.push_back(MakeEvent(401'000, core::Protocol::kBluetooth));
  batch.events.push_back(MakeEvent(402'000, core::Protocol::kZigbee));
  const auto d = net::EventBatchMsg::Decode(batch.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->block_start, 400'000);
  ASSERT_EQ(d->events.size(), 3u);
  EXPECT_EQ(d->events[0], batch.events[0]);
  EXPECT_EQ(d->events[1], batch.events[1]);
  EXPECT_EQ(d->events[2], batch.events[2]);
}

TEST(Messages, HealthRoundTripAllFields) {
  core::HealthReport h;
  h.block_start = 2'000'000;
  h.block_samples = 400'000;
  h.gap_count = 3;
  h.gap_samples = 12'345;
  h.overlap_samples = 678;
  h.sanitized_samples = 90;
  h.nonfinite_samples = 1;
  h.saturation_fraction = 0.125;
  h.shed_stage = 2;
  h.block_load = 1.75;
  h.tagged_detections = 11;
  h.rejected_detections = 22;
  h.vetoed_detections = 12;
  h.forwarded_intervals = 33;
  h.supervised_intervals = 44;
  h.deadline_intervals = 5;
  h.exception_intervals = 6;
  h.skipped_intervals = 7;
  h.quarantined_intervals = 8;
  h.breaker_trips = 9;
  h.open_breakers = 2;
  net::HealthMsg msg;
  msg.report = h;
  const auto d = net::HealthMsg::Decode(msg.Encode());
  ASSERT_TRUE(d);
  const auto& r = d->report;
  EXPECT_EQ(r.block_start, h.block_start);
  EXPECT_EQ(r.block_samples, h.block_samples);
  EXPECT_EQ(r.gap_count, h.gap_count);
  EXPECT_EQ(r.gap_samples, h.gap_samples);
  EXPECT_EQ(r.overlap_samples, h.overlap_samples);
  EXPECT_EQ(r.sanitized_samples, h.sanitized_samples);
  EXPECT_EQ(r.nonfinite_samples, h.nonfinite_samples);
  EXPECT_DOUBLE_EQ(r.saturation_fraction, h.saturation_fraction);
  EXPECT_EQ(r.shed_stage, h.shed_stage);
  EXPECT_DOUBLE_EQ(r.block_load, h.block_load);
  EXPECT_EQ(r.tagged_detections, h.tagged_detections);
  EXPECT_EQ(r.rejected_detections, h.rejected_detections);
  EXPECT_EQ(r.vetoed_detections, h.vetoed_detections);
  EXPECT_EQ(r.forwarded_intervals, h.forwarded_intervals);
  EXPECT_EQ(r.supervised_intervals, h.supervised_intervals);
  EXPECT_EQ(r.deadline_intervals, h.deadline_intervals);
  EXPECT_EQ(r.exception_intervals, h.exception_intervals);
  EXPECT_EQ(r.skipped_intervals, h.skipped_intervals);
  EXPECT_EQ(r.quarantined_intervals, h.quarantined_intervals);
  EXPECT_EQ(r.breaker_trips, h.breaker_trips);
  EXPECT_EQ(r.open_breakers, h.open_breakers);
}

TEST(Messages, GapReportRoundTripAndValidation) {
  net::GapReportMsg gap;
  gap.lost = {{1, 4}, {9, 9}, {20, 31}};
  const auto d = net::GapReportMsg::Decode(gap.Encode());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->lost, gap.lost);

  // Inverted range rejected.
  net::ByteWriter w;
  w.U32(1);
  w.U32(10);
  w.U32(3);
  const auto bytes = w.data();
  EXPECT_FALSE(net::GapReportMsg::Decode(bytes));
}

TEST(Messages, TruncatedAndHostileInputsRejected) {
  net::EventBatchMsg batch;
  batch.block_start = 1;
  batch.events.push_back(MakeEvent(10));
  auto bytes = batch.Encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(net::EventBatchMsg::Decode(prefix)) << "cut=" << cut;
  }
  // A count field demanding far more events than the payload could hold.
  net::ByteWriter w;
  w.I64(0);
  w.U32(1'000'000);
  const auto hostile = w.data();
  EXPECT_FALSE(net::EventBatchMsg::Decode(hostile));
}

// ------------------------------------------------------------- faulty link

TEST(FaultyLink, LosslessDeliversInOrder) {
  net::FaultyLink link({}, 1);
  for (int i = 0; i < 5; ++i) link.Send(Payload(10, std::uint8_t(i)));
  const auto out = link.Advance(1);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i][0], std::uint8_t(i));
  EXPECT_TRUE(link.faults().empty());
  EXPECT_EQ(link.frames_delivered(), 5u);
}

TEST(FaultyLink, DeterministicFromSeed) {
  net::FaultyLink::Config cfg;
  cfg.drop_rate = 0.3;
  cfg.duplicate_rate = 0.2;
  cfg.corrupt_rate = 0.2;
  cfg.reorder_rate = 0.3;
  cfg.jitter_ticks = 3;
  net::FaultyLink a(cfg, 99), b(cfg, 99);
  for (int t = 1; t <= 50; ++t) {
    a.Send(Payload(40, std::uint8_t(t)));
    b.Send(Payload(40, std::uint8_t(t)));
    EXPECT_EQ(a.Advance(t), b.Advance(t));
  }
  ASSERT_EQ(a.faults().size(), b.faults().size());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].kind, b.faults()[i].kind);
    EXPECT_EQ(a.faults()[i].send_index, b.faults()[i].send_index);
  }
}

TEST(FaultyLink, DropsAreLoggedExactly) {
  net::FaultyLink::Config cfg;
  cfg.drop_rate = 0.5;
  net::FaultyLink link(cfg, 7);
  const int sends = 200;
  for (int i = 0; i < sends; ++i) link.Send(Payload(20));
  const auto out = link.Advance(10);
  std::size_t drops = 0;
  for (const auto& f : link.faults()) {
    if (f.kind == net::LinkFaultKind::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(out.size() + drops, static_cast<std::size_t>(sends));
}

TEST(FaultyLink, PartitionDiscardsAndLogs) {
  net::FaultyLink::Config cfg;
  cfg.partitions = {{5, 10}};
  net::FaultyLink link(cfg, 1);
  link.Send(Payload(10));  // tick 0: passes
  auto out = link.Advance(4);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(link.Partitioned(6));
  out = link.Advance(6);  // move the link clock inside the window
  EXPECT_TRUE(out.empty());
  link.Send(Payload(10));  // during the window: discarded
  out = link.Advance(20);
  EXPECT_TRUE(out.empty());
  std::size_t partition_faults = 0;
  for (const auto& f : link.faults()) {
    if (f.kind == net::LinkFaultKind::kPartition) ++partition_faults;
  }
  EXPECT_EQ(partition_faults, 1u);
  // After the window the link works again.
  link.Send(Payload(10));
  out = link.Advance(21);
  EXPECT_EQ(out.size(), 1u);
}

TEST(FaultyLink, CorruptionFlipsBytesButDelivers) {
  net::FaultyLink::Config cfg;
  cfg.corrupt_rate = 1.0;
  net::FaultyLink link(cfg, 3);
  const auto original = Payload(64);
  link.Send(original);
  const auto out = link.Advance(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0], original);
  ASSERT_EQ(link.faults().size(), 1u);
  EXPECT_EQ(link.faults()[0].kind, net::LinkFaultKind::kCorrupt);
}

TEST(FaultyLink, DelayedFramesSurviveHoldbackIntact) {
  // Regression: compacting the in-flight queue used to self-move-assign
  // every held-back entry, destroying its bytes — a delayed frame was then
  // "delivered" empty and counted in frames_delivered().
  net::FaultyLink::Config cfg;
  cfg.base_delay_ticks = 3;
  net::FaultyLink link(cfg, 1);
  const auto a = Payload(24, 0xA1);
  const auto b = Payload(24, 0xB2);
  link.Send(a);
  link.Send(b);
  EXPECT_TRUE(link.Advance(1).empty());  // each early Advance re-compacts
  EXPECT_TRUE(link.Advance(2).empty());
  const auto out = link.Advance(3);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], b);
  EXPECT_EQ(link.frames_delivered(), 2u);
}

TEST(FaultyLink, ReorderedFramesDeliverIntact) {
  net::FaultyLink::Config cfg;
  cfg.reorder_rate = 1.0;
  cfg.reorder_max_ticks = 4;
  net::FaultyLink link(cfg, 5);
  const auto a = Payload(32, 0x11);
  const auto b = Payload(32, 0x22);
  link.Send(a);
  link.Send(b);
  std::vector<std::vector<std::uint8_t>> got;
  for (std::int64_t t = 1; t <= 10; ++t) {
    for (auto& f : link.Advance(t)) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), 2u);
  // Both frames arrive byte-identical regardless of the hold-back order.
  EXPECT_TRUE((got[0] == a && got[1] == b) || (got[0] == b && got[1] == a));
}

TEST(FaultyLink, FaultLogJsonHasOneLinePerRecord) {
  net::FaultyLink::Config cfg;
  cfg.drop_rate = 1.0;
  net::FaultyLink link(cfg, 2);
  link.Send(Payload(10));
  link.Send(Payload(10));
  (void)link.Advance(1);
  const auto json = link.FaultLogJson();
  std::size_t records = 0;
  for (std::size_t at = json.find("\"kind\""); at != std::string::npos;
       at = json.find("\"kind\"", at + 1)) {
    ++records;
  }
  EXPECT_EQ(records, 2u);
  EXPECT_NE(json.find("\"drop\""), std::string::npos);
}

// ---------------------------------------------------------------- session

TEST(Session, HelloFirstThenSequencedData) {
  net::SensorSession session({}, 1);
  session.Tick(1, 8000);
  const auto hello_out = session.TakeOutbound();
  ASSERT_GE(hello_out.size(), 1u);
  net::FrameParser parser;
  const auto f = RequireOne(parser, hello_out[0]);
  EXPECT_EQ(f.header.type, net::FrameType::kHello);
  EXPECT_EQ(f.header.seq, 0u);

  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(100));
  EXPECT_EQ(session.PublishEvents(batch), 1u);
  EXPECT_EQ(session.PublishHealth({}), 2u);
  EXPECT_EQ(session.unacked(), 2u);
}

TEST(Session, AckPopsRingAndStaleEpochIgnored) {
  net::SensorSession session({}, 1);
  session.Tick(1, 0);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1));
  session.PublishEvents(batch);
  session.PublishEvents(batch);
  ASSERT_EQ(session.unacked(), 2u);

  net::FrameHeader h;
  h.type = net::FrameType::kAck;
  // Stale epoch: ignored.
  net::AckMsg stale{2, session.epoch() + 1};
  session.HandleBytes(net::EncodeFrame(h, stale.Encode()));
  EXPECT_EQ(session.unacked(), 2u);
  EXPECT_EQ(session.stats().stale_acks, 1u);
  // Correct epoch: ring drains up to the cumulative point.
  net::AckMsg good{1, session.epoch()};
  session.HandleBytes(net::EncodeFrame(h, good.Encode()));
  EXPECT_EQ(session.unacked(), 1u);
  EXPECT_EQ(session.acked_seq(), 1u);
  EXPECT_EQ(session.state(), net::SensorSession::State::kConnected);
}

TEST(Session, RetransmitsWithPerFrameBackoffUntilAcked) {
  net::SensorSession::Config cfg;
  cfg.rto_ticks = 2;
  cfg.ack_timeout_ticks = 1000;  // keep the session out of backoff here
  net::SensorSession session(cfg, 1);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1));
  session.PublishEvents(batch);
  std::size_t copies = 0;
  for (int t = 1; t <= 10; ++t) {
    session.Tick(t, t * 8000);
    for (const auto& wire : session.TakeOutbound()) {
      net::FrameParser p;
      p.Feed(wire, [&](net::Frame&& f) {
        if (f.header.type == net::FrameType::kEventBatch) ++copies;
      });
    }
  }
  // Original + retransmits at RTO 2, 4, 8 (doubling) within 10 ticks.
  EXPECT_GE(copies, 3u);
  EXPECT_GT(session.stats().retransmits, 0u);
}

TEST(Session, RingOverflowProducesCumulativeGapReport) {
  net::SensorSession::Config cfg;
  cfg.retransmit_ring = 4;
  cfg.ack_timeout_ticks = 1000;
  net::SensorSession session(cfg, 1);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1));
  for (int i = 0; i < 10; ++i) session.PublishEvents(batch);
  EXPECT_GT(session.stats().ring_overflow_drops, 0u);
  const auto lost = session.lost_ranges();
  ASSERT_FALSE(lost.empty());
  EXPECT_EQ(lost.front().first, 1u);

  // The next tick ships a GapReport carrying the full merged list.
  session.Tick(1, 0);
  bool saw_gap = false;
  for (const auto& wire : session.TakeOutbound()) {
    net::FrameParser p;
    p.Feed(wire, [&](net::Frame&& f) {
      if (f.header.type != net::FrameType::kGapReport) return;
      const auto gap = net::GapReportMsg::Decode(f.payload);
      ASSERT_TRUE(gap);
      EXPECT_EQ(gap->lost, lost);
      saw_gap = true;
    });
  }
  EXPECT_TRUE(saw_gap);
}

TEST(Session, NoAckTimeoutEntersBackoffThenReconnectsWithNewEpoch) {
  net::SensorSession::Config cfg;
  cfg.ack_timeout_ticks = 3;
  cfg.backoff_base_ticks = 2;
  net::SensorSession session(cfg, 5);
  session.Tick(1, 0);
  const auto first_epoch = session.epoch();
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1));
  session.PublishEvents(batch);
  (void)session.TakeOutbound();

  int t = 1;
  while (session.state() != net::SensorSession::State::kBackoff && t < 50) {
    session.Tick(++t, 0);
    (void)session.TakeOutbound();
  }
  ASSERT_EQ(session.state(), net::SensorSession::State::kBackoff);
  EXPECT_EQ(session.stats().reconnects, 1u);

  bool saw_rehello = false;
  while (t < 200 && !saw_rehello) {
    session.Tick(++t, 0);
    for (const auto& wire : session.TakeOutbound()) {
      net::FrameParser p;
      p.Feed(wire, [&](net::Frame&& f) {
        if (f.header.type != net::FrameType::kHello) return;
        const auto hello = net::HelloMsg::Decode(f.payload);
        ASSERT_TRUE(hello);
        EXPECT_GT(hello->epoch, first_epoch);
        saw_rehello = true;
      });
    }
  }
  EXPECT_TRUE(saw_rehello);
  EXPECT_GT(session.epoch(), first_epoch);
  // The unacked frame was re-offered with the reconnect.
  EXPECT_EQ(session.unacked(), 1u);
}

// -------------------------------------------------------------- aggregator

std::vector<std::uint8_t> DataFrame(std::uint16_t sensor, std::uint32_t seq,
                                    const net::EventBatchMsg& batch) {
  net::FrameHeader h;
  h.type = net::FrameType::kEventBatch;
  h.sensor_id = sensor;
  h.seq = seq;
  return net::EncodeFrame(h, batch.Encode());
}

std::vector<std::uint8_t> HelloFrame(std::uint16_t sensor, std::uint32_t epoch,
                                     std::int64_t local_time) {
  net::FrameHeader h;
  h.type = net::FrameType::kHello;
  h.sensor_id = sensor;
  const net::HelloMsg hello{epoch, local_time};
  return net::EncodeFrame(h, hello.Encode());
}

TEST(Aggregator, InOrderDeliveryAndDuplicateDiscard) {
  net::Aggregator agg;
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));  // offset estimate: 8000-8000=0
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(100));
  agg.HandleBytes(0, DataFrame(0, 1, batch));
  agg.HandleBytes(0, DataFrame(0, 1, batch));  // duplicate
  EXPECT_EQ(agg.fused().size(), 1u);
  EXPECT_EQ(agg.status(0).frames_delivered, 1u);
  EXPECT_EQ(agg.status(0).duplicates_dropped, 1u);
  EXPECT_EQ(agg.status(0).cum_seq, 1u);
}

TEST(Aggregator, DuplicateOfBufferedFrameCounted) {
  net::Aggregator agg;
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(100));
  // Seq 2 parks in the reorder buffer (hole at 1); its re-delivery is a
  // duplicate even though it is above the cumulative watermark.
  agg.HandleBytes(0, DataFrame(0, 2, batch));
  agg.HandleBytes(0, DataFrame(0, 2, batch));
  EXPECT_EQ(agg.status(0).duplicates_dropped, 1u);
  agg.HandleBytes(0, DataFrame(0, 1, batch));
  EXPECT_EQ(agg.status(0).cum_seq, 2u);
  EXPECT_EQ(agg.status(0).frames_delivered, 2u);
}

TEST(Aggregator, FusedHistoryBoundedByConfig) {
  net::Aggregator::Config cfg;
  cfg.max_fused_history = 16;
  net::Aggregator agg(cfg);
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  for (std::uint32_t seq = 1; seq <= 40; ++seq) {
    net::EventBatchMsg batch;
    // Far apart: every event is a distinct fused entry.
    batch.events.push_back(MakeEvent(seq * 10'000));
    agg.HandleBytes(0, DataFrame(0, seq, batch));
  }
  EXPECT_LE(agg.fused().size(), 16u);
  EXPECT_EQ(agg.fused().size() + agg.fused_pruned(), 40u);
  // The surviving tail is the most recent events, and dedup still works
  // against it: a second witness of the newest event merges, not appends.
  EXPECT_EQ(agg.fused().back().start, 400'000);
  net::EventBatchMsg again;
  again.events.push_back(MakeEvent(400'000 + 10));
  agg.HandleBytes(0, DataFrame(0, 41, again));
  EXPECT_EQ(agg.fused().back().start, 400'000);
  EXPECT_GE(agg.merges(), 1u);
}

TEST(Aggregator, ReorderBufferReassembles) {
  net::Aggregator agg;
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  net::EventBatchMsg b1, b2, b3;
  b1.events.push_back(MakeEvent(1'000));
  b2.events.push_back(MakeEvent(50'000));
  b3.events.push_back(MakeEvent(100'000));
  agg.HandleBytes(0, DataFrame(0, 3, b3));
  agg.HandleBytes(0, DataFrame(0, 2, b2));
  EXPECT_TRUE(agg.fused().empty());  // hole at seq 1
  agg.HandleBytes(0, DataFrame(0, 1, b1));
  ASSERT_EQ(agg.fused().size(), 3u);
  EXPECT_EQ(agg.fused()[0].start, 1'000);
  EXPECT_EQ(agg.fused()[2].start, 100'000);
  EXPECT_EQ(agg.status(0).cum_seq, 3u);
}

TEST(Aggregator, GapReportAdvancesPastDeclaredLoss) {
  net::Aggregator agg;
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  net::EventBatchMsg b3;
  b3.events.push_back(MakeEvent(9'000));
  agg.HandleBytes(0, DataFrame(0, 3, b3));
  EXPECT_TRUE(agg.fused().empty());  // stuck behind seqs 1-2

  net::GapReportMsg gap;
  gap.lost = {{1, 2}};
  net::FrameHeader h;
  h.type = net::FrameType::kGapReport;
  h.sensor_id = 0;
  h.seq = 4;
  agg.HandleBytes(0, net::EncodeFrame(h, gap.Encode()));
  ASSERT_EQ(agg.fused().size(), 1u);
  EXPECT_EQ(agg.status(0).cum_seq, 4u);
  ASSERT_EQ(agg.status(0).lost_applied.size(), 1u);
  EXPECT_EQ(agg.status(0).lost_applied[0], (net::SeqRange{1, 2}));
  EXPECT_LT(agg.status(0).trust, 1.0);  // a gap drains trust
}

TEST(Aggregator, CorruptFramesCountedNeverDecoded) {
  net::Aggregator agg;
  agg.Tick(1);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(100));
  auto wire = DataFrame(0, 1, batch);
  wire[net::kFrameHeaderBytes + 3] ^= 0x40;
  agg.HandleBytes(0, wire);
  EXPECT_TRUE(agg.fused().empty());
  EXPECT_EQ(agg.status(0).corrupt_dropped, 1u);
  EXPECT_EQ(agg.status(0).frames_delivered, 0u);
}

TEST(Aggregator, AlignsSkewedClocksAndDedupsAcrossSensors) {
  net::Aggregator::Config cfg;
  cfg.samples_per_tick = 8000;
  cfg.dedup_slack_samples = 64;
  net::Aggregator agg(cfg);
  agg.Tick(1);
  // Sensor 0 runs +500 samples fast, sensor 1 runs -300 slow; hellos sent at
  // tick 1 carry each sensor's local clock.
  agg.HandleBytes(0, HelloFrame(0, 1, 8000 + 500));
  agg.HandleBytes(1, HelloFrame(1, 1, 8000 - 300));

  const std::int64_t true_start = 123'000;
  net::EventBatchMsg from0, from1;
  from0.events.push_back(MakeEvent(true_start + 500));  // local timelines
  from1.events.push_back(MakeEvent(true_start - 300));
  agg.HandleBytes(0, DataFrame(0, 1, from0));
  agg.HandleBytes(1, DataFrame(1, 1, from1));

  ASSERT_EQ(agg.fused().size(), 1u);  // one transmission, two witnesses
  const auto& f = agg.fused()[0];
  EXPECT_EQ(f.start, true_start);
  EXPECT_EQ(f.witnesses, 2);
  EXPECT_EQ(f.sensor_mask, 0b11u);
  EXPECT_EQ(agg.merges(), 1u);
}

TEST(Aggregator, EventsBeforeFirstClockSampleAlignLater) {
  net::Aggregator agg;
  agg.Tick(1);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(10'000 + 700));
  agg.HandleBytes(0, DataFrame(0, 1, batch));
  EXPECT_TRUE(agg.fused().empty());  // no offset estimate yet: held
  agg.HandleBytes(0, HelloFrame(0, 1, 8000 + 700));
  ASSERT_EQ(agg.fused().size(), 1u);
  EXPECT_EQ(agg.fused()[0].start, 10'000);
  EXPECT_EQ(agg.fused()[0].sensor_mask, 0b1u);
}

TEST(Aggregator, DistinctEventsStayDistinct) {
  net::Aggregator agg;
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1'000));
  batch.events.push_back(MakeEvent(1'000 + 200));  // outside 64-sample slack
  batch.events.push_back(MakeEvent(1'000, core::Protocol::kZigbee));
  agg.HandleBytes(0, DataFrame(0, 1, batch));
  EXPECT_EQ(agg.fused().size(), 3u);
  EXPECT_EQ(agg.merges(), 0u);
}

TEST(Aggregator, QuietSensorDegradesWithoutStallingOthers) {
  net::Aggregator::Config cfg;
  cfg.liveness_timeout_ticks = 5;
  net::Aggregator agg(cfg);
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));
  agg.HandleBytes(1, HelloFrame(1, 1, 8000));
  EXPECT_EQ(agg.live_sensors(), 2u);

  // Sensor 1 goes silent; sensor 0 keeps publishing.
  for (int t = 2; t <= 12; ++t) {
    net::EventBatchMsg batch;
    batch.events.push_back(MakeEvent(t * 8000));
    agg.HandleBytes(0, DataFrame(0, static_cast<std::uint32_t>(t - 1), batch));
    agg.Tick(t);
  }
  EXPECT_EQ(agg.live_sensors(), 1u);
  EXPECT_EQ(agg.status(1).state, net::Aggregator::SensorState::kDegraded);
  EXPECT_EQ(agg.status(1).degraded_transitions, 1u);
  EXPECT_EQ(agg.fused().size(), 11u);  // sensor 0 never stalled

  // A frame from sensor 1 revives it.
  agg.HandleBytes(1, HelloFrame(1, 2, 13 * 8000));
  EXPECT_EQ(agg.status(1).state, net::Aggregator::SensorState::kLive);
  EXPECT_EQ(agg.live_sensors(), 2u);
}

TEST(Aggregator, UntrustedSensorEventsHeldOut) {
  net::Aggregator::Config cfg;
  cfg.trust_floor = 0.9;
  cfg.trust_gap_penalty = 0.5;  // one gap drops below the floor
  net::Aggregator agg(cfg);
  agg.Tick(1);
  agg.HandleBytes(0, HelloFrame(0, 1, 8000));

  net::GapReportMsg gap;
  gap.lost = {{1, 1}};
  net::FrameHeader h;
  h.type = net::FrameType::kGapReport;
  h.sensor_id = 0;
  h.seq = 2;
  agg.HandleBytes(0, net::EncodeFrame(h, gap.Encode()));
  ASSERT_LT(agg.status(0).trust, 0.9);

  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(50'000));
  agg.HandleBytes(0, DataFrame(0, 3, batch));
  EXPECT_TRUE(agg.fused().empty());
  EXPECT_EQ(agg.status(0).events_held_untrusted, 1u);
}

TEST(Aggregator, MisroutedFrameDropped) {
  net::Aggregator agg;
  agg.Tick(1);
  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(100));
  agg.HandleBytes(3, DataFrame(7, 1, batch));  // header says 7, link says 3
  EXPECT_TRUE(agg.fused().empty());
  EXPECT_EQ(agg.status(3).frames_delivered, 0u);
}

// ------------------------------------------------------------------ fleet

TEST(Fleet, CleanLinksDeliverEndToEnd) {
  net::Fleet::Config cfg;
  cfg.sensors.resize(2);
  cfg.sensors[0].id = 0;
  cfg.sensors[0].clock_offset_samples = 900;
  cfg.sensors[1].id = 1;
  cfg.sensors[1].clock_offset_samples = -400;
  net::Fleet fleet(cfg);

  fleet.Run(2);  // hellos + acks flow; sessions connect
  EXPECT_EQ(fleet.session(0).state(), net::SensorSession::State::kConnected);
  EXPECT_EQ(fleet.session(1).state(), net::SensorSession::State::kConnected);

  // Both sensors hear the same transmission, each in its own clock.
  const std::int64_t true_start = 5'000;
  fleet.Publish(0, true_start + 900, {MakeEvent(true_start + 900)});
  fleet.Publish(1, true_start - 400, {MakeEvent(true_start - 400)});
  fleet.Run(4);

  ASSERT_EQ(fleet.aggregator().fused().size(), 1u);
  EXPECT_EQ(fleet.aggregator().fused()[0].start, true_start);
  EXPECT_EQ(fleet.aggregator().fused()[0].witnesses, 2);
  EXPECT_EQ(fleet.aggregator().fused()[0].sensor_mask, 0b11u);
  // Acks flowed back: nothing is waiting on a retransmit.
  EXPECT_EQ(fleet.session(0).unacked(), 0u);
  EXPECT_EQ(fleet.session(1).unacked(), 0u);
}

TEST(Fleet, MonitorSensorSinkBatchesPerBlock) {
  net::Fleet::Config cfg;
  cfg.sensors.resize(1);
  net::Fleet fleet(cfg);
  auto& sink = fleet.sink(0);

  // Block 1: health first (sink contract), then events.
  core::HealthReport h1;
  h1.block_start = 0;
  sink.OnHealth(h1);
  core::ProtocolEvent wifi;
  wifi.protocol = core::Protocol::kWifi80211b;
  wifi.start_sample = 1'000;
  wifi.end_sample = 2'000;
  wifi.crc_ok = true;
  sink.OnEvent(wifi);
  // Block 2's health flushes block 1's events as one batch.
  core::HealthReport h2;
  h2.block_start = 400'000;
  sink.OnHealth(h2);
  sink.Flush();
  EXPECT_EQ(sink.events_published(), 1u);

  fleet.Run(4);
  EXPECT_EQ(fleet.aggregator().fused().size(), 1u);
  EXPECT_EQ(fleet.aggregator().status(0).health.size(), 2u);
}

// ----------------------------------------- trace context on the wire (§13)

TEST(Messages, TraceContextRoundTripsOnAllDataMessages) {
  const rfdump::obs::TraceContext ctx{0x1122334455667788ull,
                                      0x99AABBCCDDEEFF00ull};

  net::EventBatchMsg batch;
  batch.block_start = 42;
  batch.ctx = ctx;
  batch.events.push_back(MakeEvent(100));
  const auto batch2 = net::EventBatchMsg::Decode(batch.Encode());
  ASSERT_TRUE(batch2);
  EXPECT_EQ(batch2->ctx, ctx);
  EXPECT_EQ(batch2->events, batch.events);

  net::HealthMsg health;
  health.report.block_start = 7;
  health.ctx = ctx;
  const auto health2 = net::HealthMsg::Decode(health.Encode());
  ASSERT_TRUE(health2);
  EXPECT_EQ(health2->ctx, ctx);

  net::GapReportMsg gap;
  gap.lost = {{3, 9}};
  gap.ctx = ctx;
  const auto gap2 = net::GapReportMsg::Decode(gap.Encode());
  ASSERT_TRUE(gap2);
  EXPECT_EQ(gap2->ctx, ctx);
  EXPECT_EQ(gap2->lost, gap.lost);
}

// ------------------------------------------------- metrics federation (§13)

TEST(Wire, MetricsFrameIsUnsequencedControlPlane) {
  EXPECT_FALSE(net::IsDataFrame(net::FrameType::kMetrics));
  net::FrameHeader h;
  h.type = net::FrameType::kMetrics;
  h.sensor_id = 5;
  net::FrameParser parser;
  const auto f = RequireOne(parser, net::EncodeFrame(h, Payload(12)));
  EXPECT_EQ(f.header.type, net::FrameType::kMetrics);
}

TEST(Messages, MetricsMsgRoundTrip) {
  net::MetricsMsg m;
  m.snapshot_id = 17;
  m.full = 1;
  m.entries.push_back({"rfdump_session_frames_sent_total", 0, 12345.0});
  m.entries.push_back({"rfdump_session_unacked", 1, 3.0});
  m.entries.push_back({"weird\"name\\with\nspecials_total", 0, 0.5});
  const auto m2 = net::MetricsMsg::Decode(m.Encode());
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->snapshot_id, 17u);
  EXPECT_EQ(m2->full, 1);
  EXPECT_EQ(m2->entries, m.entries);
}

TEST(Messages, MetricsMsgHostileInputsRejected) {
  net::MetricsMsg m;
  m.snapshot_id = 1;
  m.entries.push_back({"ab", 0, 1.0});
  const auto wire = m.Encode();
  // Layout: u32 id, u8 full, u32 count, then u16 len + name + u8 kind + f64.
  ASSERT_TRUE(net::MetricsMsg::Decode(wire));

  // Every truncation fails cleanly rather than reading past the buffer.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(net::MetricsMsg::Decode({wire.data(), n})) << n;
  }
  // full must be 0 or 1.
  auto bad = wire;
  bad[4] = 2;
  EXPECT_FALSE(net::MetricsMsg::Decode(bad));
  // Hostile entry count: implausible against the remaining payload.
  bad = wire;
  bad[5] = bad[6] = bad[7] = bad[8] = 0xFF;
  EXPECT_FALSE(net::MetricsMsg::Decode(bad));
  // Zero-length names are meaningless and rejected.
  bad = wire;
  bad[9] = bad[10] = 0;
  EXPECT_FALSE(net::MetricsMsg::Decode(bad));
  // Unknown metric kind (offset: 9 + 2 len bytes + 2 name bytes).
  bad = wire;
  bad[13] = 7;
  EXPECT_FALSE(net::MetricsMsg::Decode(bad));
}

TEST(Session, MetricsSnapshotsFollowHeartbeatCadence) {
  net::SensorSession::Config cfg;
  cfg.heartbeat_interval_ticks = 1;
  cfg.metrics_every_n_heartbeats = 2;
  cfg.ack_timeout_ticks = 1000;
  net::SensorSession session(cfg, 1);
  std::vector<net::MetricsMsg> shipped;
  for (int t = 1; t <= 9; ++t) {
    session.Tick(t, t * 8000);
    for (const auto& wire : session.TakeOutbound()) {
      net::FrameParser p;
      p.Feed(wire, [&](net::Frame&& f) {
        if (f.header.type != net::FrameType::kMetrics) return;
        const auto m = net::MetricsMsg::Decode(f.payload);
        ASSERT_TRUE(m);
        shipped.push_back(*m);
      });
    }
  }
  // A heartbeat per tick, a snapshot every 2nd heartbeat: 9 -> 4 snapshots.
  EXPECT_EQ(session.stats().heartbeats, 9u);
  ASSERT_EQ(shipped.size(), 4u);
  EXPECT_EQ(session.stats().metrics_snapshots, 4u);
  // Snapshot ids are monotonic from 1; the first snapshot is a full one.
  for (std::size_t i = 0; i < shipped.size(); ++i) {
    EXPECT_EQ(shipped[i].snapshot_id, i + 1);
  }
  EXPECT_EQ(shipped[0].full, 1);
  // Entries carry ABSOLUTE values (never increments): the heartbeat counter
  // reads 2 at the first snapshot (shipped after the 2nd heartbeat).
  bool found = false;
  for (const auto& e : shipped[0].entries) {
    if (e.name == "rfdump_session_heartbeats_total") {
      found = true;
      EXPECT_EQ(e.kind, 0);
      EXPECT_DOUBLE_EQ(e.value, 2.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Session, MetricsDeltaSkipsUnchangedEntriesAndFullSnapshotHeals) {
  net::SensorSession::Config cfg;
  cfg.heartbeat_interval_ticks = 1;
  cfg.metrics_every_n_heartbeats = 1;
  cfg.metrics_full_every = 3;  // snapshots 1, 4, 7... carry everything
  cfg.ack_timeout_ticks = 1000;
  net::SensorSession session(cfg, 1);
  std::vector<net::MetricsMsg> shipped;
  for (int t = 1; t <= 4; ++t) {
    session.Tick(t, t * 8000);
    for (const auto& wire : session.TakeOutbound()) {
      net::FrameParser p;
      p.Feed(wire, [&](net::Frame&& f) {
        if (f.header.type != net::FrameType::kMetrics) return;
        const auto m = net::MetricsMsg::Decode(f.payload);
        ASSERT_TRUE(m);
        shipped.push_back(*m);
      });
    }
  }
  ASSERT_GE(shipped.size(), 3u);
  const auto has = [](const net::MetricsMsg& m, std::string_view name) {
    for (const auto& e : m.entries) {
      if (e.name == name) return true;
    }
    return false;
  };
  // The full snapshot ships everything, gauges included.
  EXPECT_EQ(shipped[0].full, 1);
  EXPECT_TRUE(has(shipped[0], "rfdump_session_epoch"));
  EXPECT_TRUE(has(shipped[0], "rfdump_session_heartbeats_total"));
  // Deltas ship only what changed since the last SHIPPED values: the
  // heartbeat counter moved, the epoch gauge did not.
  EXPECT_EQ(shipped[1].full, 0);
  EXPECT_TRUE(has(shipped[1], "rfdump_session_heartbeats_total"));
  EXPECT_FALSE(has(shipped[1], "rfdump_session_epoch"));
  // metrics_full_every = 3: snapshot 4 is full again (self-healing).
  ASSERT_GE(shipped.size(), 4u);
  EXPECT_EQ(shipped[3].full, 1);
  EXPECT_TRUE(has(shipped[3], "rfdump_session_epoch"));
}

TEST(Session, MetricsFederateExtraRegistry) {
  rfdump::obs::Registry registry;  // a per-sensor registry, not the default
  registry.GetCounter("myapp_widgets_total").Inc(5);
  net::SensorSession::Config cfg;
  cfg.heartbeat_interval_ticks = 1;
  cfg.metrics_every_n_heartbeats = 1;
  cfg.metrics_registry = &registry;
  cfg.ack_timeout_ticks = 1000;
  net::SensorSession session(cfg, 1);
  session.Tick(1, 8000);
  bool saw_custom = false, saw_builtin = false;
  for (const auto& wire : session.TakeOutbound()) {
    net::FrameParser p;
    p.Feed(wire, [&](net::Frame&& f) {
      if (f.header.type != net::FrameType::kMetrics) return;
      const auto m = net::MetricsMsg::Decode(f.payload);
      ASSERT_TRUE(m);
      for (const auto& e : m->entries) {
        if (e.name == "myapp_widgets_total") {
          saw_custom = true;
          EXPECT_DOUBLE_EQ(e.value, 5.0);
        }
        if (e.name == "rfdump_session_heartbeats_total") saw_builtin = true;
      }
    });
  }
  // Built-in session stats federate in both compile modes (plain struct
  // fields); registry contents only exist with RFDUMP_OBS=ON.
  EXPECT_TRUE(saw_builtin);
#if RFDUMP_OBS_ENABLED
  EXPECT_TRUE(saw_custom);
#else
  EXPECT_FALSE(saw_custom);
#endif
}

TEST(Session, KarnRttSamplesOnlyFirstTransmissions) {
  net::SensorSession::Config cfg;
  cfg.rto_ticks = 100;
  cfg.heartbeat_interval_ticks = 1000;
  cfg.ack_timeout_ticks = 100000;
  net::SensorSession session(cfg, 1);
  session.Tick(1, 0);
  EXPECT_LT(session.stats().rtt_ticks, 0.0);  // no sample yet

  net::EventBatchMsg batch;
  batch.events.push_back(MakeEvent(1));
  session.PublishEvents(batch);  // seq 1, first sent at tick 1
  session.Tick(4, 0);
  net::FrameHeader h;
  h.type = net::FrameType::kAck;
  session.HandleBytes(net::EncodeFrame(h, net::AckMsg{1, 1}.Encode()));
  EXPECT_DOUBLE_EQ(session.stats().rtt_ticks, 3.0);  // first sample verbatim

  // A retransmitted frame never samples (Karn's algorithm): its ack can't
  // tell which transmission it answers.
  session.PublishEvents(batch);  // seq 2, first sent at tick 4
  session.Tick(104, 0);          // rto 100 expires -> retransmit
  EXPECT_GT(session.stats().retransmits, 0u);
  session.Tick(110, 0);
  session.HandleBytes(net::EncodeFrame(h, net::AckMsg{2, 1}.Encode()));
  EXPECT_DOUBLE_EQ(session.stats().rtt_ticks, 3.0);  // unchanged

  // The next clean sample folds in as an EWMA (7/8 old + 1/8 new).
  session.PublishEvents(batch);  // seq 3, first sent at tick 110
  session.Tick(115, 0);
  session.HandleBytes(net::EncodeFrame(h, net::AckMsg{3, 1}.Encode()));
  EXPECT_DOUBLE_EQ(session.stats().rtt_ticks, 0.875 * 3.0 + 0.125 * 5.0);
}

TEST(Aggregator, FederatedMetricsLastWriteWinsAndStaleDropped) {
  net::Aggregator agg;
  net::FrameHeader h;
  h.type = net::FrameType::kMetrics;
  h.sensor_id = 3;
  const auto snap = [&](std::uint32_t id, double v) {
    net::MetricsMsg m;
    m.snapshot_id = id;
    m.full = 1;
    m.entries.push_back({"demo_events_total", 0, v});
    return net::EncodeFrame(h, m.Encode());
  };
  const auto value = [&]() -> double {
    for (const auto& e : agg.federated(3)) {
      if (e.name == "demo_events_total") return e.value;
    }
    return -1.0;
  };

  agg.HandleBytes(3, snap(1, 5.0));
  EXPECT_DOUBLE_EQ(value(), 5.0);
  // Reordered delivery: id 3 lands, then the stale id 2 and a duplicated
  // id 3 — values are absolute, so neither can double-count.
  agg.HandleBytes(3, snap(3, 9.0));
  EXPECT_DOUBLE_EQ(value(), 9.0);
  agg.HandleBytes(3, snap(2, 7.0));
  EXPECT_DOUBLE_EQ(value(), 9.0);
  agg.HandleBytes(3, snap(3, 9.0));
  EXPECT_DOUBLE_EQ(value(), 9.0);

  const auto& st = agg.status(3);
  EXPECT_EQ(st.metrics_snapshot_id, 3u);
  EXPECT_EQ(st.metrics_snapshots_applied, 2u);
  EXPECT_EQ(st.metrics_stale_dropped, 2u);
}

TEST(Aggregator, FederatedExpositionLabelsEverySensor) {
  net::Aggregator agg;
  for (std::uint16_t id : {1, 2}) {
    net::FrameHeader h;
    h.type = net::FrameType::kMetrics;
    h.sensor_id = id;
    net::MetricsMsg m;
    m.snapshot_id = 1;
    m.full = 1;
    m.entries.push_back({"demo_events_total", 0, 10.0 * id});
    m.entries.push_back({"demo_depth", 1, 0.5});
    agg.HandleBytes(id, net::EncodeFrame(h, m.Encode()));
  }
  const std::string expo = agg.FederatedExposition();
  // Shipped sensor metrics are re-labeled per sensor...
  EXPECT_NE(expo.find("demo_events_total{sensor=\"1\"} 10"),
            std::string::npos);
  EXPECT_NE(expo.find("demo_events_total{sensor=\"2\"} 20"),
            std::string::npos);
  EXPECT_NE(expo.find("# TYPE demo_events_total counter"), std::string::npos);
  EXPECT_NE(expo.find("demo_depth{sensor=\"1\"} 0.5"), std::string::npos);
  // ...next to aggregator-native per-sensor and fleet-wide series.
  EXPECT_NE(expo.find("rfdump_agg_sensor_trust{sensor=\"1\"}"),
            std::string::npos);
  EXPECT_NE(expo.find("rfdump_agg_sensor_frames_delivered_total{sensor="),
            std::string::npos);
  EXPECT_NE(expo.find("rfdump_agg_live_sensors"), std::string::npos);
}

TEST(Aggregator, LyingMetricsPayloadRejectedWithoutDesyncOrCorruption) {
  // A kMetrics frame can be CRC-valid yet lie inside its payload (hostile
  // or version-skewed sensor): an entry count that doesn't match the bytes
  // present, entries cut short, an absurd count. The codec must reject it,
  // the per-sensor parser must stay in sync for the frames behind it, and
  // the federated registry must keep its last good snapshot untouched.
  net::Aggregator agg;
  net::FrameHeader mh;
  mh.type = net::FrameType::kMetrics;
  mh.sensor_id = 3;

  net::MetricsMsg good;
  good.snapshot_id = 1;
  good.full = 1;
  good.entries.push_back({"demo_events_total", 0, 5.0});
  good.entries.push_back({"demo_depth", 1, 0.25});
  agg.HandleBytes(3, HelloFrame(3, 1, 8000));
  agg.HandleBytes(3, net::EncodeFrame(mh, good.Encode()));
  ASSERT_EQ(agg.status(3).metrics_snapshots_applied, 1u);

  const auto value = [&](const std::string& name) -> double {
    for (const auto& e : agg.federated(3)) {
      if (e.name == name) return e.value;
    }
    return -1.0;
  };
  ASSERT_DOUBLE_EQ(value("demo_events_total"), 5.0);

  // Three lying payloads, all framed with a *valid* CRC. Each claims a
  // higher snapshot_id than the good one, so if any were wrongly applied
  // the registry (or the stale-drop ledger) would show it.
  std::vector<std::vector<std::uint8_t>> lies;
  {
    // Count says 2, bytes carry 1.5 entries: truncated mid-entry.
    net::MetricsMsg m;
    m.snapshot_id = 9;
    m.full = 1;
    m.entries.push_back({"demo_events_total", 0, 777.0});
    m.entries.push_back({"demo_depth", 1, 777.0});
    auto payload = m.Encode();
    payload.resize(payload.size() - 5);
    lies.push_back(net::EncodeFrame(mh, payload));
  }
  {
    // Count field inflated beyond the bytes that follow.
    net::MetricsMsg m;
    m.snapshot_id = 10;
    m.full = 1;
    m.entries.push_back({"demo_events_total", 0, 888.0});
    auto payload = m.Encode();
    payload[8] = 0xFF;  // count MSB; count lives after snapshot_id + full
    lies.push_back(net::EncodeFrame(mh, payload));
  }
  {
    // Entry name length runs past the payload end.
    net::MetricsMsg m;
    m.snapshot_id = 11;
    m.full = 1;
    m.entries.push_back({"x", 0, 999.0});
    auto payload = m.Encode();
    payload[9] = 0xFF;  // first entry's u16 name length, low byte
    payload[10] = 0x00;
    lies.push_back(net::EncodeFrame(mh, payload));
  }

  // Each lying frame rides in the same byte stream as a valid data frame
  // behind it: rejection must be payload-local, never a parser desync.
  net::EventBatchMsg batch;
  batch.block_start = 8000;
  batch.events = {MakeEvent(8000)};
  std::uint32_t seq = 0;
  for (const auto& lie : lies) {
    std::vector<std::uint8_t> stream = lie;
    const auto data = DataFrame(3, ++seq, batch);
    stream.insert(stream.end(), data.begin(), data.end());
    agg.HandleBytes(3, stream);
  }

  const auto& st = agg.status(3);
  EXPECT_EQ(st.frames_delivered, 3u);  // every trailing data frame landed
  EXPECT_EQ(st.metrics_snapshots_applied, 1u);   // only the good snapshot
  EXPECT_EQ(st.metrics_snapshot_id, 1u);         // ids 9/10/11 never stuck
  EXPECT_EQ(st.metrics_stale_dropped, 0u);
  EXPECT_DOUBLE_EQ(value("demo_events_total"), 5.0);
  EXPECT_DOUBLE_EQ(value("demo_depth"), 0.25);

  const auto& ps = agg.parse_stats(3);
  EXPECT_EQ(ps.bad_crc, 0u);          // the lies were CRC-valid frames
  EXPECT_EQ(ps.bad_magic_bytes, 0u);  // and never cost the parser a resync
  EXPECT_EQ(ps.frames_ok, 2u + static_cast<std::uint64_t>(lies.size()) * 2);

  // A later honest snapshot still applies normally.
  net::MetricsMsg heal;
  heal.snapshot_id = 2;
  heal.full = 1;
  heal.entries.push_back({"demo_events_total", 0, 6.0});
  agg.HandleBytes(3, net::EncodeFrame(mh, heal.Encode()));
  EXPECT_EQ(agg.status(3).metrics_snapshots_applied, 2u);
  EXPECT_DOUBLE_EQ(value("demo_events_total"), 6.0);
}

// ------------------------------------------- fleet status surface (§13)

// Minimal JSON reader: just enough grammar for FleetStatus::ToJson() output
// (objects, arrays, numbers, strings without exotic escapes, booleans).
struct Json {
  enum class Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  [[nodiscard]] const Json& at(const std::string& key) const {
    static const Json missing;
    const auto it = obj.find(key);
    return it == obj.end() ? missing : it->second;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  bool Parse(Json* out) {
    pos_ = 0;
    return Value(out) && (Skip(), pos_ == s_.size());
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = Json::Kind::kStr;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->b = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      out->b = false;
      return true;
    }
    if (Literal("null")) return true;
    char* end = nullptr;
    out->num = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    out->kind = Json::Kind::kNum;
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  bool String(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          default: out->push_back(s_[pos_]); break;
        }
      } else {
        out->push_back(s_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Object(Json* out) {
    out->kind = Json::Kind::kObj;
    ++pos_;  // '{'
    Skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (pos_ < s_.size()) {
      Skip();
      std::string key;
      if (!String(&key)) return false;
      Skip();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!Value(&v)) return false;
      out->obj.emplace(std::move(key), std::move(v));
      Skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
    return false;
  }

  bool Array(Json* out) {
    out->kind = Json::Kind::kArr;
    ++pos_;  // '['
    Skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (pos_ < s_.size()) {
      Json v;
      if (!Value(&v)) return false;
      out->arr.push_back(std::move(v));
      Skip();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
    return false;
  }

  std::string s_;
  std::size_t pos_ = 0;
};

TEST(Fleet, StatusReportJsonRoundTripsSchema) {
  net::Fleet::Config cfg;
  cfg.sensors.resize(2);
  cfg.sensors[0].id = 0;
  cfg.sensors[0].session.metrics_every_n_heartbeats = 1;
  cfg.sensors[1].id = 1;
  net::Fleet fleet(cfg);
  fleet.Run(4);
  fleet.Publish(0, 100, {MakeEvent(100)});
  fleet.Run(4);

  const net::FleetStatus status = fleet.StatusReport();
  const std::string json = status.ToJson();
  // Deterministic rendering: the same snapshot serializes identically.
  EXPECT_EQ(json, status.ToJson());

  Json root;
  ASSERT_TRUE(JsonReader(json).Parse(&root)) << json;
  ASSERT_EQ(root.kind, Json::Kind::kObj);
  EXPECT_DOUBLE_EQ(root.at("tick").num, static_cast<double>(status.tick));
  EXPECT_DOUBLE_EQ(root.at("live_sensors").num,
                   static_cast<double>(status.live_sensors));
  EXPECT_DOUBLE_EQ(root.at("fused_events").num,
                   static_cast<double>(status.fused_events));
  EXPECT_EQ(root.at("merges").kind, Json::Kind::kNum);
  EXPECT_EQ(root.at("fused_pruned").kind, Json::Kind::kNum);
  ASSERT_EQ(root.at("sensors").arr.size(), 2u);

  const Json& s0 = root.at("sensors").arr[0];
  EXPECT_DOUBLE_EQ(s0.at("id").num, 0.0);
  const Json& sess = s0.at("session");
  ASSERT_EQ(sess.kind, Json::Kind::kObj);
  EXPECT_EQ(sess.at("state").str, "connected");
  for (const char* key :
       {"epoch", "acked_seq", "unacked", "frames_sent", "retransmits",
        "heartbeats", "reconnects", "ring_overflow_drops", "stale_acks",
        "metrics_snapshots", "rtt_ticks"}) {
    EXPECT_EQ(sess.at(key).kind, Json::Kind::kNum) << key;
  }
  EXPECT_EQ(sess.at("lost_ranges").kind, Json::Kind::kArr);
  EXPECT_DOUBLE_EQ(sess.at("frames_sent").num,
                   static_cast<double>(status.sensors[0].session.frames_sent));
  EXPECT_DOUBLE_EQ(
      sess.at("metrics_snapshots").num,
      static_cast<double>(status.sensors[0].session.metrics_snapshots));

  const Json& agg = s0.at("aggregator");
  ASSERT_EQ(agg.kind, Json::Kind::kObj);
  EXPECT_EQ(agg.at("known").kind, Json::Kind::kBool);
  EXPECT_TRUE(agg.at("known").b);
  EXPECT_TRUE(agg.at("live").b);
  EXPECT_EQ(agg.at("offset_known").kind, Json::Kind::kBool);
  for (const char* key :
       {"trust", "epoch", "cum_seq", "last_heard_tick", "clock_offset",
        "offset_updates", "frames_delivered", "duplicates_dropped",
        "corrupt_dropped", "reorder_overflow", "events_received",
        "events_held_untrusted", "degraded_transitions",
        "metrics_snapshots_applied", "health_reports"}) {
    EXPECT_EQ(agg.at(key).kind, Json::Kind::kNum) << key;
  }
  EXPECT_EQ(agg.at("lost_applied").kind, Json::Kind::kArr);
  EXPECT_DOUBLE_EQ(
      agg.at("events_received").num,
      static_cast<double>(status.sensors[0].agg.events_received));

  const Json& parse = s0.at("parse");
  ASSERT_EQ(parse.kind, Json::Kind::kObj);
  for (const char* key :
       {"frames_ok", "bad_magic_bytes", "bad_version", "bad_type",
        "bad_length", "bad_header_checksum", "bad_crc"}) {
    EXPECT_EQ(parse.at(key).kind, Json::Kind::kNum) << key;
  }
  EXPECT_DOUBLE_EQ(parse.at("frames_ok").num,
                   static_cast<double>(status.sensors[0].parse.frames_ok));
}

TEST(Fleet, StatusReportTextIsOneScreen) {
  net::Fleet::Config cfg;
  cfg.sensors.resize(1);
  net::Fleet fleet(cfg);
  fleet.Run(4);
  const std::string text = fleet.StatusReport().ToText();
  EXPECT_NE(text.find("fleet @ tick"), std::string::npos);
  EXPECT_NE(text.find("connected"), std::string::npos);
  EXPECT_NE(text.find("trust"), std::string::npos);
  EXPECT_LT(std::count(text.begin(), text.end(), '\n'), 8);
}

#if RFDUMP_OBS_ENABLED
TEST(Fleet, LinkedSpanChainCrossesSensorToAggregator) {
  namespace obs = rfdump::obs;
  obs::Tracer sensor_tracer, agg_tracer;
  sensor_tracer.Enable(1 << 12);
  agg_tracer.Enable(1 << 12);
  net::Fleet::Config cfg;
  cfg.sensors.resize(1);
  cfg.sensors[0].session.tracer = &sensor_tracer;
  cfg.aggregator.tracer = &agg_tracer;
  net::Fleet fleet(cfg);
  fleet.Run(2);
  fleet.Publish(0, 500, {MakeEvent(500)});
  fleet.Run(4);
  ASSERT_EQ(fleet.aggregator().fused().size(), 1u);

  // The publish span's context rode the EventBatchMsg across the wire, so
  // some aggregator span must continue its trace with the publish span as
  // parent — the cross-process link the merged fleet trace renders.
  bool linked = false;
  for (const auto& s : sensor_tracer.Events()) {
    if (std::string_view(s.name) != "session/publish_events") continue;
    ASSERT_NE(s.trace_id, 0u);
    for (const auto& a : agg_tracer.Events()) {
      if (a.trace_id == s.trace_id && a.parent_span == s.span_id &&
          std::string_view(a.name).substr(0, 4) == "agg/") {
        linked = true;
      }
    }
  }
  EXPECT_TRUE(linked);
}
#endif

}  // namespace
