#pragma once
// core::ResultSink — the unified result-emission API (DESIGN.md §10).
//
// Parallelising the analysis stage forces a single synchronised emission
// point — the ordered merge hands results to exactly one consumer, in stream
// order — so that point is an interface both operating modes share:
//
//  * StreamingMonitor::Config::sink receives results continuously, block by
//    block, in absolute stream coordinates.
//  * RFDumpPipeline / NaivePipeline invoke an optional sink as Process()
//    emits into the MonitorReport, so a live consumer can observe a batch
//    run without waiting for the report.
//
// Threading contract: emitters serialise all calls — a sink never sees two
// concurrent invocations, regardless of --threads, and events for one block
// arrive in stream order (health first, then detections, then decodes).
// Sink implementations therefore need no locking of their own.

#include <vector>

#include "rfdump/core/pipeline.hpp"

namespace rfdump::core {

/// Receives monitoring results as they are produced. Default implementations
/// ignore everything, so a sink overrides only the events it wants.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// One decode (a MonitorReport::events entry), any protocol. Positions are
  /// absolute stream sample indices.
  virtual void OnEvent(const ProtocolEvent& event) { (void)event; }
  /// A raw detector tag (pre-dispatch).
  virtual void OnDetection(const Detection& detection) { (void)detection; }
  /// Block health (streaming: once per block; batch: once per health scan).
  virtual void OnHealth(const HealthReport& report) { (void)report; }
};

/// ResultSink that accumulates everything it receives — the test/tooling
/// workhorse for comparing a streamed emission against a batch report.
class CollectingSink final : public ResultSink {
 public:
  std::vector<ProtocolEvent> events;
  std::vector<Detection> detections;
  std::vector<HealthReport> health;

  void OnEvent(const ProtocolEvent& event) override {
    events.push_back(event);
  }
  void OnDetection(const Detection& detection) override {
    detections.push_back(detection);
  }
  void OnHealth(const HealthReport& report) override {
    health.push_back(report);
  }
};

}  // namespace rfdump::core
