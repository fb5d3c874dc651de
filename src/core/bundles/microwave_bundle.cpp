// Microwave-oven protocol bundle (DESIGN.md §15): AC-period timing detector
// only. Microwave interference carries no decodable frames, so there is no
// analysis stage, no events, no canned scenario op and no fuzz target — the
// bundle exists so the feature table and the detect stage stay registry-
// driven for non-communication protocols too.
//
// rfdump-bundle-cli: microwave   (scanned by tests/CMakeLists.txt to derive
// the per-protocol ctest labels — keep in sync with cli_name below)

#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/core/timing_detectors.hpp"

namespace rfdump::core {
namespace {

ProtocolBundle MakeMicrowaveBundle() {
  ProtocolBundle b;
  b.protocol = Protocol::kMicrowave;
  b.name = "Microwave";
  b.cli_name = "microwave";
  b.features = {
      {Protocol::kMicrowave, "Residential microwave", 16667.0, 0.0,
       Modulation::kNoise, "-", 40.0, 0.0},
  };
  // Opt-in (EnableBundle(Protocol::kMicrowave) / --protocols microwave), so
  // shed stage 1 drops it.
  b.default_enabled = false;
  // Between the Bluetooth and ZigBee timing detectors, the historical order.
  b.detect_rank = 2;

  b.make_detectors = [] {
    ProtocolDetectors d;
    auto timing = std::make_shared<MicrowaveTimingDetector>();
    d.on_peaks = [timing](std::span<const Peak> fresh) {
      return timing->OnPeaks(fresh);
    };
    return d;
  };
  // No analysis_plan: microwave intervals are detection-only.
  return b;
}

[[maybe_unused]] const bool kRegistered =
    RegisterProtocolBundle(MakeMicrowaveBundle());

}  // namespace
}  // namespace rfdump::core
