#pragma once
// Differential oracle: naïve vs RFDump (DESIGN.md §11).
//
// The paper's central claim (§5) is that RFDump's cheap detectors lose
// *nothing* against the run-every-demodulator baseline. The differential
// oracle turns that into an executable assertion: one rendered scenario is
// monitored by
//
//   * NaivePipeline, energy gate off   (Figure 1)
//   * NaivePipeline, energy gate on    (Figure 1 + energy detection)
//   * RFDumpPipeline at executor width 1
//   * RFDumpPipeline at executor width N (the parallel analysis path)
//
// and the decoded frame/packet sets are compared:
//
//   1. rfdump@1 vs rfdump@N must be bit-identical (the DESIGN.md §10
//      determinism contract) — any divergence is a hard mismatch.
//   2. Across architectures, frame sets are matched by (protocol, position
//      within a slack window, payload size). A decode present in one
//      architecture and absent in another is a hard mismatch if it overlaps
//      a ground-truth record (somebody missed a real packet); if it matches
//      no truth record it is a *tolerated* difference — the paper explicitly
//      allows detector false positives, and a false-positive interval handed
//      to a demodulator can occasionally decode garbage the other
//      architecture never looked at.
//
// Every result carries the scenario seed, so a failing sweep prints a single
// integer that reproduces the divergence.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/testing/scenario.hpp"

namespace rfdump::testing {

struct DifferentialPolicy {
  /// Executor width of the wide RFDump run.
  int wide_threads = 4;
  /// Start-position slack when matching decodes across architectures: the
  /// naive demodulators scan the whole stream while RFDump scans padded
  /// intervals, so sync positions may differ by a few samples (the pipeline
  /// dedup window is 16).
  std::int64_t match_slack_samples = 16;
  /// Tolerate architecture-unique decodes that overlap no truth record
  /// (the paper's allowed detector false positives). Set false to demand
  /// strict set equality.
  bool tolerate_spurious = true;
  /// Demodulator bank shared by all four runs.
  core::AnalysisConfig analysis;
};

/// One frame/packet present in some architectures and absent from others.
struct DifferentialMismatch {
  core::Protocol protocol = core::Protocol::kUnknown;
  std::string key;        // human-readable decode fingerprint
  std::string present_in; // comma-separated architecture names
  std::string absent_from;
  bool truth_backed = false;  // overlaps a ground-truth record
};

struct DifferentialResult {
  std::uint64_t seed = 0;
  std::string scenario;
  /// Hard failures: truth-backed set differences, or any rfdump@1 vs
  /// rfdump@N divergence.
  std::vector<DifferentialMismatch> mismatches;
  /// Spurious-only differences the policy tolerated.
  std::vector<DifferentialMismatch> tolerated;
  /// Decodes per architecture (naive, naive+energy, rfdump@1, rfdump@N).
  std::size_t decodes[4] = {0, 0, 0, 0};

  [[nodiscard]] bool ok() const { return mismatches.empty(); }
  /// One-line verdict plus one line per mismatch, each carrying the seed.
  [[nodiscard]] std::string Summary() const;
};

/// Runs the four architectures over one scenario and diffs the results.
[[nodiscard]] DifferentialResult RunDifferential(
    const RenderedScenario& scenario, const DifferentialPolicy& policy = {});

/// Seed sweep over the canned mixed scenario family. Returns one result per
/// seed; `ok()` over all of them is the PR gate.
[[nodiscard]] std::vector<DifferentialResult> RunDifferentialSweep(
    std::span<const std::uint64_t> seeds, const DifferentialPolicy& policy = {});

/// Byte-exact, result-bearing fingerprint of a report: one line per
/// detection, and one line of the same format per event (protocol, channel,
/// start, end, crc, header, payload bytes). Equal fingerprints mean
/// the reports are interchangeable. Used for the rfdump@1 vs rfdump@N
/// determinism gate and for the forced-scalar vs forced-SIMD dispatch-tier
/// differential (DESIGN.md §16).
[[nodiscard]] std::vector<std::string> ExactFingerprint(
    const core::MonitorReport& r);

}  // namespace rfdump::testing
