#include "rfdump/core/freq_detector.hpp"

#include <algorithm>

#include "rfdump/dsp/windows.hpp"

namespace rfdump::core {
namespace {

constexpr std::size_t kFftSize = 256;
constexpr std::size_t kBins = 8;            // 1 MHz each across the 8 MHz band
constexpr float kDominance = 0.55f;         // energy fraction in the top bin
constexpr double kMinPowerOverFloor = 2.5;  // linear chunk power over floor

}  // namespace

BluetoothFreqDetector::BluetoothFreqDetector()
    : BluetoothFreqDetector(Config{}) {}

BluetoothFreqDetector::BluetoothFreqDetector(Config config)
    : config_(config),
      plan_(kFftSize),
      window_(dsp::MakeWindow(dsp::WindowType::kHann, kFftSize)) {}

std::vector<Detection> BluetoothFreqDetector::PushChunk(
    dsp::const_sample_span chunk, std::int64_t start_sample) {
  std::vector<Detection> out;
  const auto spectrum = plan_.PowerSpectrum(chunk, window_);
  // Fold FFT bins into kBins channel bins. FFT order: bin k is frequency
  // k * Fs / N for k < N/2, negative frequencies above. Channel bin b covers
  // [-4 MHz + b MHz, -4 MHz + (b+1) MHz).
  std::vector<double> channel_energy(kBins, 0.0);
  const std::size_t n = kFftSize;
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Signed frequency as a fraction of Fs in [-0.5, 0.5).
    const double f =
        (k < n / 2) ? static_cast<double>(k) / static_cast<double>(n)
                    : static_cast<double>(k) / static_cast<double>(n) - 1.0;
    auto b = static_cast<std::int64_t>(
        (f + 0.5) * static_cast<double>(kBins));
    b = std::clamp<std::int64_t>(b, 0, static_cast<std::int64_t>(kBins) - 1);
    channel_energy[static_cast<std::size_t>(b)] += spectrum[k];
    total += spectrum[k];
  }
  const auto top = std::max_element(channel_energy.begin(),
                                    channel_energy.end());
  const int channel = static_cast<int>(top - channel_energy.begin());
  const double mean_power =
      total / static_cast<double>(n) / static_cast<double>(n);
  // (PowerSpectrum is unnormalized |X|^2; dividing by N^2 approximates the
  // windowed mean-square amplitude well enough for gating.)
  const bool active =
      mean_power >
          kMinPowerOverFloor * config_.noise_floor_power /
              static_cast<double>(kBins) &&
      *top > kDominance * total;

  const std::int64_t chunk_end =
      start_sample + static_cast<std::int64_t>(chunk.size());
  if (active) {
    if (open_.active && open_.channel == channel) {
      open_.last_end = chunk_end;
      ++open_.chunks;
    } else {
      if (open_.active) {
        // Channel changed: close the previous burst.
        out.push_back({Protocol::kBluetooth, open_.start, open_.last_end,
                       std::min(1.0f, 0.4f + 0.1f * open_.chunks),
                       "bt-freq"});
        last_channel_ = open_.channel;
      }
      open_ = {true, start_sample, chunk_end, channel, 1};
    }
  } else if (open_.active) {
    out.push_back({Protocol::kBluetooth, open_.start, open_.last_end,
                   std::min(1.0f, 0.4f + 0.1f * open_.chunks), "bt-freq"});
    last_channel_ = open_.channel;
    open_ = {};
  }
  return out;
}

std::vector<Detection> BluetoothFreqDetector::Flush() {
  std::vector<Detection> out;
  if (open_.active) {
    out.push_back({Protocol::kBluetooth, open_.start, open_.last_end,
                   std::min(1.0f, 0.4f + 0.1f * open_.chunks), "bt-freq"});
    last_channel_ = open_.channel;
    open_ = {};
  }
  return out;
}

}  // namespace rfdump::core
