#pragma once
// Bluetooth demodulator (BlueSniff-equivalent analysis stage).
//
// Scans the full 8 Msps band: each of the 8 visible 1 MHz channels is mixed
// to DC, channel-filtered and FM-discriminated by the shared GfskChannel
// front end (gfsk.hpp), and searched for access codes.
// The sync word's BCH(64,30) structure is used to *verify* candidates and to
// recover the transmitter LAP without prior knowledge. Header whitening is
// brute-forced via the HEC (BlueSniff-style).
//
// One instance per channel is also supported (`channel_index` config) — the
// naive architecture in the efficiency experiments runs 8 of these, one per
// visible channel, mirroring the paper's setup.

#include <cstdint>
#include <vector>

#include "rfdump/dsp/types.hpp"
#include "rfdump/phybt/packet.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::phybt {

/// A demodulated Bluetooth packet.
struct DecodedBtPacket {
  std::uint32_t lap = 0;      // recovered from the sync word
  int channel_index = 0;      // visible channel [0, 8)
  ParsedPacket packet;
  std::int64_t start_sample = 0;  // access code start in the scanned span
  std::int64_t end_sample = 0;
};

class Demodulator {
 public:
  struct Config {
    /// UAP used to seed HEC/CRC checks (known to the experiments; a fully
    /// blind monitor would also iterate UAP candidates).
    std::uint8_t expected_uap = 0x47;
    /// If >= 0, scan only this visible channel index; otherwise scan all 8.
    int channel_index = -1;
    /// Maximum bit errors tolerated in the 64-bit sync word BCH check.
    int max_sync_errors = 0;
    /// Known full-band noise floor power. When > 0 the energy gate is derived
    /// from it; when 0 the floor is estimated from the scanned window itself
    /// (which fails when the window is mostly signal, as with dispatched
    /// detector intervals).
    double noise_floor_power = 0.0;
    /// Cooperative deadline (non-owning, armed by the supervision layer):
    /// the channelization front matter and the sync-search/body-decode loops
    /// charge their work against it and return early — keeping packets
    /// already decoded — once it expires. Null = unlimited.
    util::WorkBudget* budget = nullptr;
  };

  Demodulator();
  explicit Demodulator(Config config);

  /// Scans the band and returns every decodable packet. Work is counted in
  /// the rfdump_phybt_*_total metrics.
  [[nodiscard]] std::vector<DecodedBtPacket> DecodeAll(
      dsp::const_sample_span x);

 private:
  void ScanChannel(dsp::const_sample_span x, int idx,
                   std::vector<DecodedBtPacket>& out);

  Config config_;
};

}  // namespace rfdump::phybt
