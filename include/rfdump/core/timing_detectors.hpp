#pragma once
// Timing-based protocol-specific detectors (paper §3.2/§4.4). These consume
// only peak metadata — never raw samples — which is what makes them cheap and
// what lets every new protocol reuse the single protocol-agnostic peak
// detector's work.

#include <cstdint>
#include <deque>
#include <vector>

#include "rfdump/core/detections.hpp"
#include "rfdump/core/peaks.hpp"

namespace rfdump::core {

/// 802.11 timing detector: tags peak pairs separated by SIFS (10 us +/- 3) —
/// a data frame and its MAC ACK — and peaks separated by DIFS (50 us) + k x
/// SlotTime (20 us) for k in [0, 64] (contention). Both peaks of a matching
/// pair are tagged.
class WifiTimingDetector {
 public:
  /// Feeds newly completed peaks (in order); returns new detections.
  std::vector<Detection> OnPeaks(std::span<const Peak> peaks);

 private:
  bool have_prev_ = false;
  Peak prev_{};
};

/// Bluetooth timing detector: a peak whose start lies an integer number of
/// 625 us slots after the start of a recent Bluetooth-candidate peak is
/// tagged (+/- 4 us, up to 400 slots back; only bursts of 80 us to 3 ms
/// qualify). A small cache of active "sessions" (slot-aligned transmitters)
/// is checked before the full history search; cache entries carry hit
/// counters that drive confidence and eviction (paper §4.4).
class BluetoothTimingDetector {
 public:
  struct Config {
    std::size_t cache_size = 4;    // active-session cache entries
  };

  BluetoothTimingDetector();
  explicit BluetoothTimingDetector(Config config);

  std::vector<Detection> OnPeaks(std::span<const Peak> peaks);

  /// Cache hit statistics (for the cache ablation).
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t history_searches() const { return history_searches_; }

 private:
  struct CacheEntry {
    std::int64_t anchor_start = 0;  // start sample of the session anchor peak
    int hits = 0;
  };

  Config config_;
  std::deque<std::int64_t> recent_starts_;
  std::vector<CacheEntry> cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t history_searches_ = 0;
};

/// Microwave-oven timing detector: peaks recurring at the AC period
/// (16.67 ms) with long on-times and near-constant power across peaks.
class MicrowaveTimingDetector {
 public:
  std::vector<Detection> OnPeaks(std::span<const Peak> peaks);

 private:
  bool have_prev_ = false;
  Peak prev_{};
  int run_ = 0;  // consecutive period-aligned bursts
};

/// ZigBee (802.15.4) timing detector: gaps of SIFS (192 us), LIFS (640 us) or
/// 1 to 16 backoff slots of 320 us, each +/- 8 us.
class ZigbeeTimingDetector {
 public:
  std::vector<Detection> OnPeaks(std::span<const Peak> peaks);

 private:
  bool have_prev_ = false;
  Peak prev_{};
};

}  // namespace rfdump::core
