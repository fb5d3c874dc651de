#include "rfdump/testing/oracle.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "rfdump/core/protocol_registry.hpp"

namespace rfdump::testing {
namespace {

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
  bool crc_ok = false;
};

std::int64_t Overlap(std::int64_t a0, std::int64_t a1, std::int64_t b0,
                     std::int64_t b1) {
  return std::max<std::int64_t>(0, std::min(a1, b1) - std::max(a0, b0));
}

/// Greedy best-overlap matching of decodes against truth records of one
/// protocol. Both sides are small (hundreds), so the quadratic scan is fine.
ProtocolConformance MatchProtocol(core::Protocol protocol,
                                  const std::vector<emu::TruthRecord>& truth,
                                  std::int64_t total_samples,
                                  std::vector<Interval> decodes,
                                  const MatchPolicy& policy) {
  ProtocolConformance out;
  out.protocol = protocol;
  if (policy.require_crc_ok) {
    decodes.erase(std::remove_if(decodes.begin(), decodes.end(),
                                 [](const Interval& d) { return !d.crc_ok; }),
                  decodes.end());
  }
  out.decoded = decodes.size();

  std::vector<const emu::TruthRecord*> records;
  for (const auto& t : truth) {
    if (t.protocol == protocol && t.visible && t.end_sample <= total_samples) {
      records.push_back(&t);
    }
  }
  out.truth_packets = records.size();

  std::vector<bool> truth_matched(records.size(), false);
  for (const Interval& d : decodes) {
    std::int64_t best = 0;
    std::size_t best_idx = records.size();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto* t = records[i];
      const std::int64_t ov =
          Overlap(d.start, d.end, t->start_sample, t->end_sample);
      const std::int64_t need = static_cast<std::int64_t>(
          policy.min_overlap_fraction *
          static_cast<double>(t->end_sample - t->start_sample));
      if (ov > best && ov >= std::max<std::int64_t>(need, 1)) {
        best = ov;
        best_idx = i;
      }
    }
    if (best_idx == records.size()) {
      ++out.spurious;
    } else {
      truth_matched[best_idx] = true;
    }
  }
  out.matched = static_cast<std::size_t>(
      std::count(truth_matched.begin(), truth_matched.end(), true));
  out.missed = out.truth_packets - out.matched;
  return out;
}

}  // namespace

const ProtocolConformance& ConformanceReport::Of(core::Protocol p) const {
  static const ProtocolConformance kEmpty;
  for (const auto& c : protocols) {
    if (c.protocol == p) return c;
  }
  return kEmpty;
}

std::string ConformanceReport::Summary() const {
  std::string out;
  char buf[192];
  for (const auto& c : protocols) {
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu %-12s truth %4zu matched %4zu missed %3zu "
                  "(miss %.4f)  decoded %4zu spurious %3zu  precision %.4f "
                  "recall %.4f\n",
                  static_cast<unsigned long long>(seed),
                  core::ProtocolName(c.protocol), c.truth_packets, c.matched,
                  c.missed, c.MissRate(), c.decoded, c.spurious, c.Precision(),
                  c.Recall());
    out += buf;
  }
  return out;
}

ConformanceReport ScoreReport(const std::vector<emu::TruthRecord>& truth,
                              std::int64_t total_samples,
                              const core::MonitorReport& report,
                              const MatchPolicy& policy) {
  ConformanceReport out;

  // Decode intervals per protocol.
  std::array<std::vector<Interval>, core::kProtocolCount> decodes;
  for (const auto& e : report.events) {
    const auto idx = static_cast<std::size_t>(e.protocol);
    if (idx < decodes.size()) {
      decodes[idx].push_back({e.start_sample, e.end_sample, e.crc_ok});
    }
  }

  // Not hand-listed: every registered bundle that opts into oracle scoring
  // gets a precision/recall row.
  for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
    if (!bundle.oracle_scored) continue;
    auto c = MatchProtocol(
        bundle.protocol, truth, total_samples,
        std::move(decodes[static_cast<std::size_t>(bundle.protocol)]), policy);
    // Keep the report small: only protocols that appear on either side.
    if (c.truth_packets > 0 || c.decoded > 0) out.protocols.push_back(c);
  }
  return out;
}

ConformanceReport ScoreReport(const RenderedScenario& scenario,
                              const core::MonitorReport& report,
                              const MatchPolicy& policy) {
  ConformanceReport out =
      ScoreReport(scenario.truth, scenario.duration(), report, policy);
  out.seed = scenario.seed;
  out.scenario = scenario.name;
  return out;
}

}  // namespace rfdump::testing
