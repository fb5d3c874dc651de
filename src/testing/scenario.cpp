#include "rfdump/testing/scenario.hpp"

#include <algorithm>
#include <utility>

#include "rfdump/core/protocol_registry.hpp"

namespace rfdump::testing {
namespace {

/// SplitMix64 step — derives independent sub-seeds (front end, future
/// consumers) from the master seed without correlating their streams.
std::uint64_t DeriveSeed(std::uint64_t master, std::uint64_t salt) {
  std::uint64_t z = master + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Auto-stagger gap between ops (1 ms at 8 Msps).
constexpr std::int64_t kStaggerSamples = 8'000;

}  // namespace

ScenarioBuilder::ScenarioBuilder(std::uint64_t master_seed, std::string name)
    : seed_(master_seed), name_(std::move(name)) {}

ScenarioBuilder& ScenarioBuilder::SnrOffsetDb(double db) {
  snr_offset_db_ = db;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::TailPadding(std::int64_t samples) {
  tail_padding_ = samples;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Impair(emu::FrontEnd::Config config) {
  impair_ = true;
  impair_config_ = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Add(Op op) {
  ops_.push_back(std::move(op));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::WifiPing(traffic::WifiPingConfig cfg,
                                           std::int64_t at_sample) {
  return Add({[cfg](emu::Ether& e, std::int64_t start, double off) {
                auto c = cfg;
                c.snr_db += off;
                return traffic::GenerateUnicastPing(e, c, start).end_sample;
              },
              at_sample});
}

ScenarioBuilder& ScenarioBuilder::Microwave(traffic::MicrowaveConfig cfg,
                                            std::int64_t at_sample,
                                            std::int64_t duration_samples) {
  return Add({[cfg, duration_samples](emu::Ether& e, std::int64_t start,
                                      double off) {
                auto c = cfg;
                c.snr_db += off;
                return traffic::GenerateMicrowave(e, c, start, duration_samples)
                    .end_sample;
              },
              at_sample});
}

ScenarioBuilder& ScenarioBuilder::Campus(traffic::CampusConfig cfg,
                                         std::int64_t at_sample) {
  return Add({[cfg](emu::Ether& e, std::int64_t start, double off) {
                auto c = cfg;
                c.snr_db += off;
                return traffic::GenerateCampus(e, c, start).end_sample;
              },
              at_sample});
}

ScenarioBuilder& ScenarioBuilder::Traffic(
    std::function<std::int64_t(emu::Ether&, std::int64_t, double)> run,
    std::int64_t at_sample) {
  return Add({std::move(run), at_sample});
}

RenderedScenario ScenarioBuilder::Render() const {
  emu::Ether ether(emu::Ether::Config{}, seed_);
  std::int64_t latest = 0;
  for (const Op& op : ops_) {
    const std::int64_t start =
        op.at_sample >= 0 ? op.at_sample : latest + kStaggerSamples;
    const std::int64_t end = op.run(ether, start, snr_offset_db_);
    latest = std::max(latest, end);
  }
  RenderedScenario out;
  out.seed = seed_;
  out.name = name_;
  out.samples = ether.Render(latest + tail_padding_);
  out.truth = ether.truth();
  if (impair_) {
    emu::FrontEnd fe(out.samples, impair_config_, DeriveSeed(seed_, 0x1F));
    out.segments = fe.DrainAll();
    out.faults = fe.faults();
  }
  return out;
}

RenderedScenario CannedMixedScenario(std::uint64_t seed) {
  // The sessions are auto-staggered, not overlapped: simultaneous
  // cross-protocol transmissions are collisions, which the paper's detectors
  // explicitly do not resolve (future work, §6) — a collision-heavy canned
  // scenario would make the naive-vs-RFDump differential fail for reasons
  // the architecture never claimed to handle.
  //
  // Each registered bundle with a canned_traffic hook contributes one
  // session, in ascending protocol-id order. That order also preserves the
  // ether RNG draw sequence of the original hand-listed recipe (wifi, bt,
  // zigbee) for the legacy seeds, so per-seed streams stay bit-identical
  // when new bundles only append.
  ScenarioBuilder builder(seed, "canned-mixed");
  for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
    if (!bundle.canned_traffic) continue;
    builder.Traffic(bundle.canned_traffic, bundle.canned_at);
  }
  return builder.TailPadding(8'000).Render();
}

}  // namespace rfdump::testing
