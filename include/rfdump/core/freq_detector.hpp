#pragma once
// Frequency-domain Bluetooth detector (paper §3.4/§4.6): per-chunk 256-point
// FFT, energy folded into 8 x 1 MHz bins; a burst whose energy is
// concentrated in a single bin is a Bluetooth candidate. A start/end state
// machine tracks burst extents per channel.

#include <array>
#include <cstdint>
#include <vector>

#include "rfdump/core/detections.hpp"
#include "rfdump/dsp/fft.hpp"

namespace rfdump::core {

class BluetoothFreqDetector {
 public:
  struct Config {
    double noise_floor_power = 1.0;
  };

  BluetoothFreqDetector();
  explicit BluetoothFreqDetector(Config config);

  /// Feeds one chunk; returns a detection when a single-channel burst *ends*.
  [[nodiscard]] std::vector<Detection> PushChunk(dsp::const_sample_span chunk,
                                                 std::int64_t start_sample);

  /// Flush any burst still open at end of stream.
  [[nodiscard]] std::vector<Detection> Flush();

  /// Channel of the most recent detection.
  int last_channel() const { return last_channel_; }

 private:
  struct OpenBurst {
    bool active = false;
    std::int64_t start = 0;
    std::int64_t last_end = 0;
    int channel = 0;
    int chunks = 0;
  };

  Config config_;
  dsp::FftPlan plan_;
  std::vector<float> window_;
  OpenBurst open_;
  int last_channel_ = -1;
};

}  // namespace rfdump::core
