#include "rfdump/testing/differential.hpp"

#include <algorithm>
#include <cstdio>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/protocol_registry.hpp"

namespace rfdump::testing {
namespace {

constexpr const char* kArchNames[4] = {"naive", "naive+energy", "rfdump@1",
                                       "rfdump@N"};
constexpr unsigned kAllArchs = 0xF;

/// One decoded event, architecture-agnostic.
struct Event {
  core::Protocol protocol = core::Protocol::kUnknown;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int channel = -1;  // protocol channel index, -1 if n/a
  std::size_t payload = 0;
  bool crc_ok = false;
  unsigned archs = 0;  // presence bitmask over the four runs
};

/// True for protocols all four architectures are expected to decode — the
/// registry's naive_member flag, not a hand-list.
bool DifferentialMember(core::Protocol p) {
  const auto* bundle = core::ProtocolRegistry::Instance().Find(p);
  return bundle != nullptr && bundle->naive_member;
}

std::vector<Event> Events(const core::MonitorReport& r, unsigned arch_bit) {
  std::vector<Event> out;
  out.reserve(r.events.size());
  for (const auto& e : r.events) {
    if (!DifferentialMember(e.protocol)) continue;
    out.push_back({e.protocol, e.start_sample, e.end_sample, e.channel,
                   e.payload.size(), e.crc_ok, arch_bit});
  }
  return out;
}

bool SameEvent(const Event& a, const Event& b, std::int64_t slack) {
  return a.protocol == b.protocol && a.channel == b.channel &&
         std::llabs(a.start - b.start) <= slack;
}

std::string EventKey(const Event& e) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s ch%d @%lld..%lld %zuB crc=%d",
                core::ProtocolName(e.protocol), e.channel,
                static_cast<long long>(e.start),
                static_cast<long long>(e.end), e.payload, e.crc_ok ? 1 : 0);
  return buf;
}

std::string ArchList(unsigned mask) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    if (mask & (1u << i)) {
      if (!out.empty()) out += ",";
      out += kArchNames[i];
    }
  }
  return out;
}

bool TruthBacked(const Event& e, const std::vector<emu::TruthRecord>& truth) {
  for (const auto& t : truth) {
    if (!t.visible || t.protocol != e.protocol) continue;
    if (e.start < t.end_sample && t.start_sample < e.end) return true;
  }
  return false;
}

}  // namespace

// Result-bearing fingerprint of a report, for the exact rfdump@1 vs
// rfdump@N comparison (same fields tests/parallel_test.cpp checks) and for
// the forced-scalar vs forced-SIMD dispatch-tier differential.
std::vector<std::string> ExactFingerprint(const core::MonitorReport& r) {
  std::vector<std::string> out;
  char buf[160];
  for (const auto& d : r.detections) {
    std::snprintf(buf, sizeof(buf), "det %s %lld %lld %.6f %s",
                  core::ProtocolName(d.protocol),
                  static_cast<long long>(d.start_sample),
                  static_cast<long long>(d.end_sample),
                  static_cast<double>(d.confidence), d.detector);
    out.push_back(buf);
  }
  for (const auto& e : r.events) {
    std::snprintf(buf, sizeof(buf), "ev %s ch%d %lld %lld %d %08x %zu",
                  core::ProtocolName(e.protocol), e.channel,
                  static_cast<long long>(e.start_sample),
                  static_cast<long long>(e.end_sample), e.crc_ok, e.header,
                  e.payload.size());
    std::string line = buf;
    for (const auto b : e.payload) {
      line += ',';
      line += std::to_string(b);
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::string DifferentialResult::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu %s: naive %zu / naive+energy %zu / rfdump@1 %zu / "
                "rfdump@N %zu decodes; %zu mismatches, %zu tolerated FP "
                "diffs\n",
                static_cast<unsigned long long>(seed), scenario.c_str(),
                decodes[0], decodes[1], decodes[2], decodes[3],
                mismatches.size(), tolerated.size());
  std::string out = buf;
  for (const auto& m : mismatches) {
    std::snprintf(buf, sizeof(buf),
                  "  seed=%llu MISMATCH %s: in {%s} absent {%s}%s\n",
                  static_cast<unsigned long long>(seed), m.key.c_str(),
                  m.present_in.c_str(), m.absent_from.c_str(),
                  m.truth_backed ? " [truth-backed]" : "");
    out += buf;
  }
  return out;
}

DifferentialResult RunDifferential(const RenderedScenario& scenario,
                                   const DifferentialPolicy& policy) {
  DifferentialResult result;
  result.seed = scenario.seed;
  result.scenario = scenario.name;
  const dsp::const_sample_span x(scenario.samples);

  const auto& registry = core::ProtocolRegistry::Instance();

  core::MonitorReport reports[4];
  for (int gate = 0; gate < 2; ++gate) {
    core::NaivePipeline::Config cfg;
    cfg.energy_gate = (gate == 1);
    cfg.analysis = policy.analysis;
    for (const auto& bundle : registry.bundles()) {
      if (bundle.naive_member) cfg.EnableBundle(bundle.protocol);
    }
    reports[gate] = core::NaivePipeline(cfg).Process(x);
  }
  {
    core::RFDumpPipeline::Config cfg;
    cfg.analysis = policy.analysis;
    // ZigBee is not a naive member (the naive architectures cannot
    // detect it), but the rfdump@1 vs rfdump@N exact-fingerprint comparison
    // covers it, as it always has.
    cfg.EnableBundle(core::Protocol::kZigbee);
    for (const auto& bundle : registry.bundles()) {
      if (bundle.naive_member) cfg.EnableBundle(bundle.protocol);
    }
    reports[2] = core::RFDumpPipeline(cfg).Process(x);

    core::Executor wide(std::max(policy.wide_threads, 2));
    cfg.executor = &wide;
    reports[3] = core::RFDumpPipeline(cfg).Process(x);
  }
  for (int i = 0; i < 4; ++i) {
    result.decodes[i] = Events(reports[i], 1u << i).size();
  }

  // 1. Width determinism: rfdump@1 and rfdump@N must agree exactly.
  const auto serial_fp = ExactFingerprint(reports[2]);
  const auto wide_fp = ExactFingerprint(reports[3]);
  if (serial_fp != wide_fp) {
    DifferentialMismatch m;
    m.key = "rfdump@1 vs rfdump@N report fingerprints differ (" +
            std::to_string(serial_fp.size()) + " vs " +
            std::to_string(wide_fp.size()) + " entries)";
    m.present_in = kArchNames[2];
    m.absent_from = kArchNames[3];
    m.truth_backed = true;  // width divergence is always a hard failure
    result.mismatches.push_back(std::move(m));
  }

  // 2. Cross-architecture frame-set diff. Cluster events from all four runs
  // by (protocol, channel, position-within-slack); every cluster must be
  // present in every architecture, modulo tolerated spurious decodes.
  std::vector<Event> events;
  for (int i = 0; i < 4; ++i) {
    auto e = Events(reports[i], 1u << i);
    events.insert(events.end(), e.begin(), e.end());
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.protocol != b.protocol) return a.protocol < b.protocol;
    if (a.channel != b.channel) return a.channel < b.channel;
    return a.start < b.start;
  });
  std::vector<Event> clusters;
  for (const Event& e : events) {
    if (!clusters.empty() &&
        SameEvent(clusters.back(), e, policy.match_slack_samples)) {
      clusters.back().archs |= e.archs;
      clusters.back().end = std::max(clusters.back().end, e.end);
    } else {
      clusters.push_back(e);
    }
  }
  for (const Event& c : clusters) {
    if (c.archs == kAllArchs) continue;
    DifferentialMismatch m;
    m.protocol = c.protocol;
    m.key = EventKey(c);
    m.present_in = ArchList(c.archs);
    m.absent_from = ArchList(kAllArchs & ~c.archs);
    m.truth_backed = TruthBacked(c, scenario.truth);
    if (m.truth_backed || !policy.tolerate_spurious) {
      result.mismatches.push_back(std::move(m));
    } else {
      result.tolerated.push_back(std::move(m));
    }
  }
  return result;
}

std::vector<DifferentialResult> RunDifferentialSweep(
    std::span<const std::uint64_t> seeds, const DifferentialPolicy& policy) {
  std::vector<DifferentialResult> out;
  out.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    out.push_back(RunDifferential(CannedMixedScenario(seed), policy));
  }
  return out;
}

}  // namespace rfdump::testing
