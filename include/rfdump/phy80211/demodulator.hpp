#pragma once
// 802.11b DSSS demodulator (1 and 2 Mbps Barker rates).
//
// This plays the role of the BBN/ADROIT decoder in the paper's analysis
// stage: given a window of 8 Msps samples it resamples to chip rate,
// despreads with a Barker correlator, recovers symbol timing, slices the
// differential phase, descrambles, locks onto SYNC+SFD, validates the PLCP
// header CRC and finally checks the MPDU FCS. CCK rates (5.5/11) are
// payload-decoded by codeword correlation unless Config::decode_cck is off
// (the paper's prototype stopped at the PLCP header for these rates).

#include <cstdint>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/phy80211/plcp.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::phy80211 {

/// Result of decoding one frame.
struct DecodedFrame {
  PlcpHeader header;
  std::vector<std::uint8_t> mpdu;   // payload bytes including FCS (empty
                                    // when the payload was not decoded)
  bool payload_decoded = false;     // false for truncated windows, and for
                                    // CCK rates when decode_cck is off
  bool fcs_ok = false;              // CRC-32 over the decoded MPDU
  std::int64_t start_sample = 0;    // frame start within the scanned span
  std::int64_t end_sample = 0;      // one past the frame's last sample
};

class Demodulator {
 public:
  struct Config {
    /// Minimum normalized Barker correlation to consider a chip window part
    /// of a DSSS transmission.
    float correlation_threshold = 0.55f;
    /// Symbols of consecutive correlation needed to attempt sync.
    std::size_t min_sync_symbols = 24;
    /// Decode CCK (5.5/11 Mbps) payloads via codeword correlation. This goes
    /// beyond the paper's prototype (whose BBN decoder handled 1/2 Mbps
    /// only); with just 8 of the 22 MHz captured it needs high SNR.
    bool decode_cck = true;
    /// Cooperative deadline (non-owning, armed by the supervision layer):
    /// the sync-search and payload-decode loops charge their work against it
    /// and return early — keeping frames already decoded — once it expires.
    /// Null = unlimited.
    util::WorkBudget* budget = nullptr;
  };

  Demodulator();
  explicit Demodulator(Config config);

  /// Scans `x` (8 Msps baseband) and decodes every frame found. Work is
  /// counted in the rfdump_phy80211_*_total metrics.
  [[nodiscard]] std::vector<DecodedFrame> DecodeAll(dsp::const_sample_span x);

 private:
  Config config_;
};

}  // namespace rfdump::phy80211
