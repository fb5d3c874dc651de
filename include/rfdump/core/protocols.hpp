#pragma once
// Protocol feature registry — the machine-readable form of the paper's
// Table 2: timing, modulation and channelization features of the wireless
// technologies in the 2.4 GHz ISM band that the detectors key on.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rfdump::core {

/// Identity of a technology the monitor can classify.
enum class Protocol : std::uint8_t {
  kUnknown = 0,
  kWifi80211b,   // DSSS/Barker + CCK
  kBluetooth,    // GFSK, FHSS
  kZigbee,       // 802.15.4 O-QPSK
  kMicrowave,    // residential microwave oven interference
  kBleAdv,       // BLE advertising (1 Mbps GFSK, channels 37/38/39)
};

/// Number of Protocol enumerators (dense, starting at kUnknown = 0) — sizes
/// per-protocol state tables (dispatch counters, supervisor breakers).
/// The value is still a compile-time constant (wire validation and state
/// arrays need one), but ProtocolRegistry::CheckConsistency() verifies at
/// first use that every registered bundle fits and that the registered ids
/// are dense up to this count, so a new bundle cannot silently desync it.
inline constexpr std::size_t kProtocolCount = 6;

/// Display name of a protocol. Derived from the bundle registry
/// (core/protocol_registry.hpp); "unknown" for kUnknown, "?" for a protocol
/// id with no registered bundle.
[[nodiscard]] const char* ProtocolName(Protocol p);

/// Modulation family, as distinguishable by the phase detectors.
enum class Modulation : std::uint8_t {
  kDbpsk,
  kDqpsk,
  kCck,
  kGfsk,
  kOqpsk,
  kNoise,  // unmodulated / swept interference
};

[[nodiscard]] const char* ModulationName(Modulation m);

/// One row of the feature table.
struct ProtocolFeatures {
  Protocol protocol;
  std::string variant;        // e.g. "802.11b (1 Mbps)"
  double slot_time_us;        // MAC slot (0 if none)
  double sifs_us;             // short IFS / TDD slot spacing (0 if none)
  Modulation modulation;
  std::string spreading;      // "Barker", "CCK", "FHSS", "DSSS-32", "-"
  double channel_width_mhz;
  double symbol_rate_hz;      // 0 if not applicable
};

/// The full feature table (Table 2 of the paper, plus the microwave row).
[[nodiscard]] std::span<const ProtocolFeatures> FeatureTable();

}  // namespace rfdump::core
