// Decode-set identity digest: one line per run, hashing the report's
// ExactFingerprint (its detections in order and its events) and its
// dispatched intervals. Two builds that print the same lines detect,
// dispatch and decode the same ethers the same way, so a refactor that
// claims "no change to any decode" shows it by diffing two trees' output:
//
//   ./build/bench/decode_digest > after.txt
//   RFDUMP_SIMD=scalar ./build/bench/decode_digest > after_scalar.txt
//
// Runs, in order:
//   * the canned mixed scenario at seeds 1-10 under the differential
//     harness's four architectures and bundle sets: naive, naive+energy,
//     rfdump at width 1 and rfdump at width 4;
//   * the benchmark's wifi-dense, gfsk-dense and mixed-live workloads at
//     seeds 1-3, one batch pass at width 1 with every bundle enabled (the
//     benchmark's monitor configuration).

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/scenario.hpp"
#include "workloads.hpp"

namespace core = rfdump::core;
namespace testing = rfdump::testing;

namespace {

/// 64-bit FNV-1a over lines, each terminated by '\n'.
class Fnv1a {
 public:
  void Line(std::string_view s) {
    for (const char c : s) Byte(static_cast<unsigned char>(c));
    Byte('\n');
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// ExactFingerprint's lines (every detection in order, then every event)
/// and one line per dispatched interval.
void PrintDigest(const std::string& run, const core::MonitorReport& r) {
  Fnv1a h;
  for (const auto& line : testing::ExactFingerprint(r)) h.Line(line);
  for (const auto& d : r.dispatched) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "disp %s %lld %lld %.6f %s",
                  core::ProtocolName(d.protocol),
                  static_cast<long long>(d.start_sample),
                  static_cast<long long>(d.end_sample),
                  static_cast<double>(d.confidence), d.detector);
    h.Line(buf);
  }
  std::printf("%-32s det=%-6zu disp=%-6zu ev=%-6zu fnv=%016" PRIx64 "\n",
              run.c_str(), r.detections.size(), r.dispatched.size(),
              r.events.size(), h.value());
  std::fflush(stdout);
}

/// The four architectures of testing::RunDifferential, with its bundle sets.
void CannedRuns(std::uint64_t seed) {
  const auto scenario = testing::CannedMixedScenario(seed);
  const rfdump::dsp::const_sample_span x(scenario.samples);
  const auto& registry = core::ProtocolRegistry::Instance();
  const std::string prefix = "canned seed=" + std::to_string(seed) + " ";
  for (const bool gate : {false, true}) {
    core::NaivePipeline::Config cfg;
    cfg.energy_gate = gate;
    for (const auto& b : registry.bundles()) {
      if (b.naive_member) cfg.EnableBundle(b.protocol);
    }
    PrintDigest(prefix + (gate ? "naive+energy" : "naive"),
                core::NaivePipeline(cfg).Process(x));
  }
  core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(core::Protocol::kZigbee);
  for (const auto& b : registry.bundles()) {
    if (b.naive_member) cfg.EnableBundle(b.protocol);
  }
  PrintDigest(prefix + "rfdump@1", core::RFDumpPipeline(cfg).Process(x));
  core::Executor wide(4);
  cfg.executor = &wide;
  PrintDigest(prefix + "rfdump@4", core::RFDumpPipeline(cfg).Process(x));
}

void WorkloadRun(const std::string& name, std::uint64_t seed) {
  const auto w = perfbench::RenderWorkload(name, seed, /*scale=*/1.0);
  core::RFDumpPipeline::Config cfg;
  for (const auto& b : core::ProtocolRegistry::Instance().bundles()) {
    cfg.EnableBundle(b.protocol);
  }
  PrintDigest(name + " seed=" + std::to_string(seed),
              core::RFDumpPipeline(cfg).Process(w.samples));
}

}  // namespace

int main() {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) CannedRuns(seed);
  for (const auto& name : perfbench::WorkloadNames()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) WorkloadRun(name, seed);
  }
  return 0;
}
