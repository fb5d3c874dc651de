#pragma once
// Non-protocol RF sources sharing the 2.4 GHz band: the residential microwave
// oven the paper's Table 2 lists (constant-envelope sweep keyed to the AC
// cycle).

#include <cstdint>

#include "rfdump/dsp/types.hpp"
#include "rfdump/util/rng.hpp"

namespace rfdump::rfsources {

/// Residential microwave oven model. The magnetron radiates during roughly
/// half of each AC cycle (60 Hz -> 16.67 ms period, ~8 ms on) with constant
/// envelope; its frequency drifts through tens of MHz, which inside our 8 MHz
/// capture appears as a slow chirp crossing the band.
class MicrowaveOven {
 public:
  struct Config {
    double ac_hz = 60.0;           // mains frequency
    double duty = 0.5;             // fraction of the cycle with RF emission
    double sweep_hz = 3.0e6;       // peak-to-peak in-band frequency excursion
    double sweep_rate_hz = 120.0;  // sweep oscillation rate
    float amplitude = 1.0f;
    double phase_noise_rad = 0.02; // per-sample random walk std-dev
  };

  MicrowaveOven();
  explicit MicrowaveOven(Config config, std::uint64_t seed = 0xC0FFEE);

  /// Synthesizes samples [start, start+count) of the oven's emission at
  /// 8 Msps. Off-phase samples are zero.
  [[nodiscard]] dsp::SampleVec Generate(std::int64_t start_sample,
                                        std::size_t count);

  /// True if the oven radiates at the given absolute sample index.
  [[nodiscard]] bool IsOn(std::int64_t sample) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  util::Xoshiro256 rng_;
  double noise_phase_ = 0.0;
};

}  // namespace rfdump::rfsources
