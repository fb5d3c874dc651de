#include "rfdump/core/timing_detectors.hpp"

#include <algorithm>
#include <cmath>

#include "rfdump/obs/metrics.hpp"

namespace rfdump::core {
namespace {

/// Peaks-examined / tags-emitted counter pair for one detector, resolved
/// once per detector (function-local static at the call site).
struct DetectorMetrics {
  explicit DetectorMetrics(const char* detector)
      : examined(obs::LabeledCounter("rfdump_detect_peaks_examined_total",
                                     "detector", detector)),
        tags(obs::LabeledCounter("rfdump_detect_tags_total", "detector",
                                 detector)) {}
  obs::Counter& examined;
  obs::Counter& tags;
};

std::int64_t UsToSamples(double us) {
  return static_cast<std::int64_t>(us * 1e-6 * dsp::kSampleRateHz + 0.5);
}

// 802.11: SIFS, DIFS and SlotTime, the contention-window bound (the paper
// uses 64) and the +/- delta on SIFS and on each DIFS + k x SlotTime.
constexpr double kWifiSifsUs = 10.0;
constexpr double kWifiDifsUs = 50.0;
constexpr double kWifiSlotUs = 20.0;
constexpr int kWifiMaxBackoff = 64;
constexpr double kWifiToleranceUs = 3.0;

// Bluetooth: slot length and tolerance, and the recent peak starts searched.
// With only 8 of 79 hop channels visible, consecutive *visible* packets of
// one session are ~100 slots apart on average, so the slot bound must be
// generous or every visibility gap restarts the session (inflating the miss
// floor). Bursts are at most 5 slots (DH5 ~2.9 ms), so longer peaks are
// never Bluetooth; the shortest real packet (ID/NULL) is ~126 us.
constexpr double kBtSlotUs = 625.0;
constexpr double kBtToleranceUs = 4.0;
constexpr int kBtMaxSlots = 400;
constexpr std::size_t kBtHistory = 128;
constexpr double kBtMaxBurstUs = 3000.0;
constexpr double kBtMinBurstUs = 80.0;

// Microwave: the 60 Hz mains period, on-times of milliseconds, and the
// peak-to-peak mean power agreement of a constant emitter.
constexpr double kMwPeriodUs = 16667.0;
constexpr double kMwToleranceUs = 400.0;
constexpr double kMwMinBurstUs = 3000.0;
constexpr float kMwPowerRatioTolerance = 0.5f;

// ZigBee: SIFS, LIFS and the backoff slot, with up to 16 slots.
constexpr double kZbSifsUs = 192.0;
constexpr double kZbLifsUs = 640.0;
constexpr double kZbSlotUs = 320.0;
constexpr int kZbMaxSlots = 16;
constexpr double kZbToleranceUs = 8.0;

bool BtSlotAligned(std::int64_t delta) {
  const std::int64_t slot = UsToSamples(kBtSlotUs);
  const std::int64_t tol = UsToSamples(kBtToleranceUs);
  if (delta <= 0) return false;
  const std::int64_t m = (delta + slot / 2) / slot;
  if (m < 1 || m > kBtMaxSlots) return false;
  return std::llabs(delta - m * slot) <= tol;
}

}  // namespace

// ------------------------------------------------------------------- 802.11

std::vector<Detection> WifiTimingDetector::OnPeaks(
    std::span<const Peak> peaks) {
  static DetectorMetrics metrics("80211-timing");
  metrics.examined.Inc(peaks.size());
  std::vector<Detection> out;
  const std::int64_t tol = UsToSamples(kWifiToleranceUs);
  for (const Peak& peak : peaks) {
    if (have_prev_) {
      const std::int64_t gap = peak.start_sample - prev_.end_sample;
      bool match = false;
      float confidence = 0.0f;
      const char* which = "";
      // SIFS: data -> ACK.
      if (std::llabs(gap - UsToSamples(kWifiSifsUs)) <= tol) {
        match = true;
        confidence = 0.9f;
        which = "80211-sifs-timing";
      } else {
        // DIFS + k x SlotTime.
        const std::int64_t difs = UsToSamples(kWifiDifsUs);
        const std::int64_t slot = UsToSamples(kWifiSlotUs);
        if (gap >= difs - tol) {
          const std::int64_t over = gap - difs;
          const std::int64_t k = (over + slot / 2) / slot;
          if (k >= 0 && k <= kWifiMaxBackoff &&
              std::llabs(over - k * slot) <= tol) {
            match = true;
            confidence = 0.6f;  // coarser signature than SIFS
            which = "80211-difs-timing";
          }
        }
      }
      if (match) {
        // Both peaks of the pair are tagged; duplicates from chained pairs
        // (DATA-ACK-DATA) are collapsed by MergeDetections downstream.
        out.push_back({Protocol::kWifi80211b, prev_.start_sample,
                       prev_.end_sample, confidence, which});
        out.push_back({Protocol::kWifi80211b, peak.start_sample,
                       peak.end_sample, confidence, which});
      }
    }
    prev_ = peak;
    have_prev_ = true;
  }
  metrics.tags.Inc(out.size());
  return out;
}

// ---------------------------------------------------------------- Bluetooth

BluetoothTimingDetector::BluetoothTimingDetector()
    : BluetoothTimingDetector(Config{}) {}

BluetoothTimingDetector::BluetoothTimingDetector(Config config)
    : config_(config) {}

std::vector<Detection> BluetoothTimingDetector::OnPeaks(
    std::span<const Peak> peaks) {
  static DetectorMetrics metrics("bt-slot-timing");
  metrics.examined.Inc(peaks.size());
  std::vector<Detection> out;
  for (const Peak& peak : peaks) {
    const double len_us = dsp::SamplesToMicros(peak.length());
    const bool plausible_burst =
        len_us >= kBtMinBurstUs && len_us <= kBtMaxBurstUs;
    bool matched = false;
    if (plausible_burst) {
      // 1. Session cache.
      for (auto& entry : cache_) {
        if (BtSlotAligned(peak.start_sample - entry.anchor_start)) {
          ++cache_hits_;
          static obs::Counter& c_cache_hits = obs::Registry::Default()
              .GetCounter("rfdump_detect_bt_cache_hits_total");
          c_cache_hits.Inc();
          ++entry.hits;
          entry.anchor_start = peak.start_sample;
          matched = true;
          const float confidence =
              std::min(0.95f, 0.5f + 0.1f * static_cast<float>(entry.hits));
          out.push_back({Protocol::kBluetooth, peak.start_sample,
                         peak.end_sample, confidence, "bt-slot-timing"});
          break;
        }
      }
      // 2. Full history search.
      if (!matched) {
        ++history_searches_;
        static obs::Counter& c_history = obs::Registry::Default().GetCounter(
            "rfdump_detect_bt_history_searches_total");
        c_history.Inc();
        for (auto it = recent_starts_.rbegin(); it != recent_starts_.rend();
             ++it) {
          if (BtSlotAligned(peak.start_sample - *it)) {
            matched = true;
            out.push_back({Protocol::kBluetooth, peak.start_sample,
                           peak.end_sample, 0.5f, "bt-slot-timing"});
            // Install as a new session (evict the entry with fewest hits).
            if (cache_.size() < config_.cache_size) {
              cache_.push_back({peak.start_sample, 1});
            } else if (!cache_.empty()) {
              auto victim = std::min_element(
                  cache_.begin(), cache_.end(),
                  [](const CacheEntry& a, const CacheEntry& b) {
                    return a.hits < b.hits;
                  });
              *victim = {peak.start_sample, 1};
            }
            break;
          }
        }
      }
    }
    recent_starts_.push_back(peak.start_sample);
    while (recent_starts_.size() > kBtHistory) {
      recent_starts_.pop_front();
    }
  }
  metrics.tags.Inc(out.size());
  return out;
}

// ---------------------------------------------------------------- microwave

std::vector<Detection> MicrowaveTimingDetector::OnPeaks(
    std::span<const Peak> peaks) {
  static DetectorMetrics metrics("mw-ac-timing");
  metrics.examined.Inc(peaks.size());
  std::vector<Detection> out;
  const std::int64_t period = UsToSamples(kMwPeriodUs);
  const std::int64_t tol = UsToSamples(kMwToleranceUs);
  for (const Peak& peak : peaks) {
    const double len_us = dsp::SamplesToMicros(peak.length());
    if (len_us < kMwMinBurstUs) {
      // Short bursts break a run but are not microwave evidence either way.
      continue;
    }
    if (have_prev_) {
      const std::int64_t delta = peak.start_sample - prev_.start_sample;
      // Constant emitted power: successive bursts have similar mean power.
      const float ratio =
          (prev_.mean_power > 0.0f)
              ? std::abs(peak.mean_power - prev_.mean_power) /
                    prev_.mean_power
              : 1.0f;
      if (std::llabs(delta - period) <= tol &&
          ratio <= kMwPowerRatioTolerance) {
        ++run_;
        const float confidence =
            std::min(0.95f, 0.5f + 0.15f * static_cast<float>(run_));
        if (run_ == 1) {
          out.push_back({Protocol::kMicrowave, prev_.start_sample,
                         prev_.end_sample, confidence, "mw-ac-timing"});
        }
        out.push_back({Protocol::kMicrowave, peak.start_sample,
                       peak.end_sample, confidence, "mw-ac-timing"});
      } else {
        run_ = 0;
      }
    }
    prev_ = peak;
    have_prev_ = true;
  }
  metrics.tags.Inc(out.size());
  return out;
}

// ------------------------------------------------------------------- ZigBee

std::vector<Detection> ZigbeeTimingDetector::OnPeaks(
    std::span<const Peak> peaks) {
  static DetectorMetrics metrics("zigbee-ifs-timing");
  metrics.examined.Inc(peaks.size());
  std::vector<Detection> out;
  const std::int64_t tol = UsToSamples(kZbToleranceUs);
  for (const Peak& peak : peaks) {
    if (have_prev_) {
      const std::int64_t gap = peak.start_sample - prev_.end_sample;
      bool match = false;
      if (std::llabs(gap - UsToSamples(kZbSifsUs)) <= tol ||
          std::llabs(gap - UsToSamples(kZbLifsUs)) <= tol) {
        match = true;
      } else {
        const std::int64_t slot = UsToSamples(kZbSlotUs);
        const std::int64_t k = (gap + slot / 2) / slot;
        if (k >= 1 && k <= kZbMaxSlots &&
            std::llabs(gap - k * slot) <= tol) {
          match = true;
        }
      }
      if (match) {
        out.push_back({Protocol::kZigbee, prev_.start_sample,
                       prev_.end_sample, 0.5f, "zigbee-ifs-timing"});
        out.push_back({Protocol::kZigbee, peak.start_sample, peak.end_sample,
                       0.5f, "zigbee-ifs-timing"});
      }
    }
    prev_ = peak;
    have_prev_ = true;
  }
  metrics.tags.Inc(out.size());
  return out;
}

}  // namespace rfdump::core
