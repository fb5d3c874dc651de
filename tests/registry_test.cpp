// Protocol bundle registry invariants (DESIGN.md §15): registration
// validation, deterministic enumeration, derived name/feature tables,
// bundle-mask gating in both pipelines, and every analysis unit's commit
// showing up in the report fingerprint.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/protocols.hpp"
#include "rfdump/emu/ether.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/scenario.hpp"
#include "rfdump/util/work_budget.hpp"

namespace {

using rfdump::core::BundleBit;
using rfdump::core::DefaultBundleMask;
using rfdump::core::Protocol;
using rfdump::core::ProtocolBundle;
using rfdump::core::ProtocolEvent;
using rfdump::core::ProtocolRegistry;

TEST(ProtocolRegistry, EnumerationIsDenseSortedAndConsistent) {
  const auto& registry = ProtocolRegistry::Instance();
  const auto bundles = registry.bundles();
  ASSERT_EQ(bundles.size(), rfdump::core::kProtocolCount - 1);
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(bundles[i].protocol), i + 1);
    EXPECT_STRNE(bundles[i].name, "");
    EXPECT_STRNE(bundles[i].cli_name, "");
  }
  EXPECT_NO_THROW(registry.CheckConsistency());
}

TEST(ProtocolRegistry, RejectsInvalidAndDuplicateRegistrations) {
  auto& registry = ProtocolRegistry::Instance();
  const std::size_t before = registry.bundles().size();

  ProtocolBundle unknown;
  unknown.protocol = Protocol::kUnknown;
  unknown.name = "nope";
  unknown.cli_name = "nope";
  EXPECT_FALSE(registry.Register(unknown));

  ProtocolBundle out_of_range;
  out_of_range.protocol = static_cast<Protocol>(rfdump::core::kProtocolCount);
  out_of_range.name = "beyond";
  out_of_range.cli_name = "beyond";
  EXPECT_FALSE(registry.Register(out_of_range));

  // Same protocol id as the registered Wi-Fi bundle, fresh names.
  ProtocolBundle duplicate_id;
  duplicate_id.protocol = Protocol::kWifi80211b;
  duplicate_id.name = "wifi-again";
  duplicate_id.cli_name = "wifi2";
  EXPECT_FALSE(registry.Register(duplicate_id));

  // A rejected registration must leave the registry untouched.
  EXPECT_EQ(registry.bundles().size(), before);
  EXPECT_NO_THROW(registry.CheckConsistency());
}

TEST(ProtocolRegistry, LookupByProtocolAndCliName) {
  const auto& registry = ProtocolRegistry::Instance();
  for (const auto& bundle : registry.bundles()) {
    const auto* by_id = registry.Find(bundle.protocol);
    ASSERT_NE(by_id, nullptr);
    EXPECT_EQ(by_id, &bundle);
    const auto* by_cli = registry.FindCli(bundle.cli_name);
    ASSERT_NE(by_cli, nullptr);
    EXPECT_EQ(by_cli, &bundle);
  }
  EXPECT_EQ(registry.Find(Protocol::kUnknown), nullptr);
  EXPECT_EQ(registry.FindCli("nosuchphy"), nullptr);
  EXPECT_EQ(registry.FindCli(""), nullptr);

  EXPECT_EQ(registry.FindCli("wifi")->protocol, Protocol::kWifi80211b);
  EXPECT_EQ(registry.FindCli("bt")->protocol, Protocol::kBluetooth);
  EXPECT_EQ(registry.FindCli("zigbee")->protocol, Protocol::kZigbee);
  EXPECT_EQ(registry.FindCli("microwave")->protocol, Protocol::kMicrowave);
  EXPECT_EQ(registry.FindCli("ble")->protocol, Protocol::kBleAdv);
}

TEST(ProtocolRegistry, NameAndFeatureTablesDeriveFromBundles) {
  const auto& registry = ProtocolRegistry::Instance();
  EXPECT_STREQ(rfdump::core::ProtocolName(Protocol::kUnknown), "unknown");
  for (const auto& bundle : registry.bundles()) {
    EXPECT_STREQ(rfdump::core::ProtocolName(bundle.protocol), bundle.name);
  }

  // FeatureTable() is the bundles' feature rows concatenated in registry
  // (ascending protocol-id) order.
  const auto table = rfdump::core::FeatureTable();
  std::size_t row = 0;
  for (const auto& bundle : registry.bundles()) {
    for (const auto& feature : bundle.features) {
      ASSERT_LT(row, table.size());
      EXPECT_EQ(table[row].protocol, bundle.protocol);
      EXPECT_EQ(table[row].variant, feature.variant);
      ++row;
    }
  }
  EXPECT_EQ(row, table.size());
}

TEST(ProtocolRegistry, DefaultMaskMatchesBundleFlags) {
  const std::uint32_t mask = DefaultBundleMask();
  for (const auto& bundle : ProtocolRegistry::Instance().bundles()) {
    EXPECT_EQ((mask & BundleBit(bundle.protocol)) != 0, bundle.default_enabled)
        << "protocol " << bundle.name;
  }
  // The paper's default monitor: 802.11 and Bluetooth. Everything else is
  // opt-in (and shed first under overload).
  EXPECT_EQ(mask, BundleBit(Protocol::kWifi80211b) |
                      BundleBit(Protocol::kBluetooth));
}

// Shared scenario for the pipeline-gating tests (rendered once; the unit
// suite should not re-render the ether per test).
const rfdump::testing::RenderedScenario& MixScenario() {
  static const auto scenario = rfdump::testing::CannedMixedScenario(42);
  return scenario;
}

TEST(ProtocolRegistry, DisabledBundleProducesNoTasksOrResults) {
  const auto& scenario = MixScenario();

  rfdump::core::RFDumpPipeline::Config cfg;
  cfg.EnableBundle(Protocol::kZigbee);
  // Default mask: BLE stays disabled even though the scenario carries BLE
  // advertising traffic.
  rfdump::core::RFDumpPipeline pipeline(cfg);
  const auto report = pipeline.Process(scenario.samples);

  for (const auto& d : report.detections) {
    EXPECT_NE(d.protocol, Protocol::kBleAdv);
  }
  for (const auto& d : report.dispatched) {
    EXPECT_NE(d.protocol, Protocol::kBleAdv);
  }
  for (const auto& e : report.events) {
    EXPECT_NE(e.protocol, Protocol::kBleAdv);
  }
  // The disabled bundle's analysis slot is never charged.
  const auto& ble =
      report.costs[rfdump::core::AnalysisStage(Protocol::kBleAdv)];
  EXPECT_EQ(ble.wall_ns, 0u);
  EXPECT_EQ(ble.samples, 0u);

  // Opting the bundle in (one EnableBundle call, zero pipeline edits)
  // produces BLE decodes from the same capture.
  cfg.EnableBundle(Protocol::kBleAdv);
  rfdump::core::RFDumpPipeline enabled(cfg);
  const auto enabled_report = enabled.Process(scenario.samples);
  const auto ble_events = std::count_if(
      enabled_report.events.begin(), enabled_report.events.end(),
      [](const ProtocolEvent& e) { return e.protocol == Protocol::kBleAdv; });
  EXPECT_GT(ble_events, 0);
  // The events are grouped by ascending protocol id (registry order).
  EXPECT_TRUE(std::is_sorted(
      enabled_report.events.begin(), enabled_report.events.end(),
      [](const ProtocolEvent& a, const ProtocolEvent& b) {
        return a.protocol < b.protocol;
      }));
}

TEST(ProtocolRegistry, NaiveMaskGatesMembers) {
  const auto& scenario = MixScenario();

  rfdump::core::NaivePipeline::Config cfg;
  cfg.bundle_mask = BundleBit(Protocol::kWifi80211b);
  rfdump::core::NaivePipeline pipeline(cfg);
  const auto report = pipeline.Process(scenario.samples);

  EXPECT_FALSE(report.events.empty());
  for (const auto& e : report.events) {
    EXPECT_EQ(e.protocol, Protocol::kWifi80211b);
  }
}

TEST(ProtocolRegistry, EveryRunUnitCommitFingerprintsItsOwnFrame) {
  // For each bundle with an analysis unit, render its own canned traffic and
  // run the units over it, each committing into a fresh report: some unit
  // must commit a non-empty ExactFingerprint. A fingerprint that skipped a
  // protocol would read as zero yield (the benchmark's unit.*.yield). Over
  // noise alone every unit must return a false commit: that is what the
  // benchmark counts as "not committing".
  const rfdump::core::AnalysisConfig analysis;
  rfdump::emu::Ether quiet(rfdump::emu::Ether::Config{}, 7);
  const auto noise = quiet.Render(40'000);
  for (const auto& bundle : ProtocolRegistry::Instance().bundles()) {
    if (!bundle.run_unit) continue;
    ASSERT_TRUE(bundle.canned_traffic) << bundle.name;
    rfdump::emu::Ether ether(rfdump::emu::Ether::Config{}, 5);
    const std::int64_t end = bundle.canned_traffic(ether, 8'000, 0.0);
    const auto x = ether.Render(end + 8'000);
    rfdump::util::WorkBudget unlimited;
    rfdump::core::AnalysisUnitContext ctx;
    ctx.span = x;
    ctx.analysis = &analysis;
    ctx.budget = &unlimited;
    bool fingerprinted = false;
    for (int unit = 0; unit < bundle.analysis_plan(analysis).units; ++unit) {
      rfdump::core::MonitorReport unit_report;
      if (auto commit = bundle.run_unit(ctx, unit)) commit(unit_report);
      fingerprinted |= !rfdump::testing::ExactFingerprint(unit_report).empty();
    }
    EXPECT_TRUE(fingerprinted) << bundle.name;

    ctx.span = noise;
    for (int unit = 0; unit < bundle.analysis_plan(analysis).units; ++unit) {
      EXPECT_FALSE(bundle.run_unit(ctx, unit)) << bundle.name << " unit "
                                               << unit;
    }
  }
}

}  // namespace
