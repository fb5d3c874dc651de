#include "rfdump/phy80211/demodulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "rfdump/dsp/barker.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/dsp/phase.hpp"
#include "rfdump/dsp/resampler.hpp"
#include "rfdump/phy80211/modulator.hpp"
#include "rfdump/phy80211/scrambler.hpp"
#include "rfdump/util/bits.hpp"
#include "rfdump/util/crc.hpp"

namespace rfdump::phy80211 {
namespace {

using dsp::cfloat;

// Maps a chip index (11 Mchip/s) back to a front-end sample index (8 Msps).
std::int64_t ChipToSample(std::size_t chip) {
  return static_cast<std::int64_t>(chip * 8 / 11);
}

// Inverse of the modulator's DQPSK dibit map, for the 2 Mbps payload and the
// phi1 dibit of a CCK symbol: the differential phase, quantized to the
// nearest multiple of pi/2, maps 0 -> 00, pi/2 -> 01, pi -> 11, 3pi/2 -> 10.
std::pair<std::uint8_t, std::uint8_t> SliceDqpsk(float diff_phase) {
  int q = static_cast<int>(std::lround(diff_phase / (dsp::kPi / 2.0f)));
  q = ((q % 4) + 4) % 4;
  switch (q) {
    case 0: return {0, 0};
    case 1: return {0, 1};
    case 2: return {1, 1};
    default: return {1, 0};
  }
}

const util::BitVec& SfdBits() {
  static const util::BitVec bits = util::UintToBitsLsbFirst(kSfd, 16);
  return bits;
}

// ------------------------------------------------------------ CCK decoding

// Base CCK codewords (phi1 = 0) for one rate, plus the data bits (beyond the
// phi1 dibit) each encodes. Index order matches the modulator's mappings.
struct CckCodebook {
  std::vector<std::array<cfloat, 8>> codewords;
  std::vector<util::BitVec> bits;     // d2.. for each codeword
  std::vector<std::array<cfloat, 4>> tails;  // post-cursor ISI per codeword
  std::vector<std::array<cfloat, 4>> heads;  // pre-cursor ISI per codeword
  std::vector<float> energies;        // sum |ref|^2 per codeword
};

// Replaces each ideal codeword with its band-limited image: the 8 MHz
// capture of an 11 Mchip/s signal smears chips into their neighbours, and
// matching against the *filtered* waveform instead of the crisp one removes
// the systematic decision errors that smearing causes. The reference is the
// ideal codeword passed through the same TX (8/11) + RX (11/8) resampling
// chain the real signal sees, aligned by peak correlation (the alignment is
// structural, so it is computed once and shared by all codewords).
void BandLimitCodebook(CckCodebook& cb) {
  std::ptrdiff_t shared_offset = -1;
  for (auto& cw : cb.codewords) {
    dsp::SampleVec padded(16, cfloat{0.0f, 0.0f});
    padded.insert(padded.end(), cw.begin(), cw.end());
    padded.insert(padded.end(), 16, cfloat{0.0f, 0.0f});
    dsp::RationalResampler tx(8, 11);
    dsp::SampleVec at8 = tx.Resampled(padded);
    {
      const dsp::SampleVec flush(32, cfloat{0.0f, 0.0f});
      tx.Process(flush, at8);
    }
    dsp::RationalResampler rx(11, 8);
    dsp::SampleVec back = rx.Resampled(at8);
    {
      const dsp::SampleVec flush(32, cfloat{0.0f, 0.0f});
      rx.Process(flush, back);
    }
    if (shared_offset < 0) {
      float best = -1.0f;
      for (std::size_t off = 0; off + 8 <= back.size(); ++off) {
        cfloat acc{0.0f, 0.0f};
        for (std::size_t c = 0; c < 8; ++c) {
          acc += back[off + c] * std::conj(cw[c]);
        }
        if (std::abs(acc) > best) {
          best = std::abs(acc);
          shared_offset = static_cast<std::ptrdiff_t>(off);
        }
      }
    }
    std::array<cfloat, 4> tail{};
    for (std::size_t c = 0; c < 4; ++c) {
      const std::size_t idx = static_cast<std::size_t>(shared_offset) + 8 + c;
      if (idx < back.size()) tail[c] = back[idx];
    }
    cb.tails.push_back(tail);
    std::array<cfloat, 4> head{};
    for (std::size_t c = 0; c < 4; ++c) {
      const std::ptrdiff_t idx = shared_offset - 4 + static_cast<std::ptrdiff_t>(c);
      if (idx >= 0) head[c] = back[static_cast<std::size_t>(idx)];
    }
    cb.heads.push_back(head);
    float energy = 0.0f;
    for (std::size_t c = 0; c < 8; ++c) {
      cw[c] = back[static_cast<std::size_t>(shared_offset) + c];
      energy += std::norm(cw[c]);
    }
    cb.energies.push_back(energy);
  }
}

const CckCodebook& CodebookFor(Rate rate) {
  static const CckCodebook k55 = [] {
    CckCodebook cb;
    for (std::uint8_t d2 = 0; d2 < 2; ++d2) {
      for (std::uint8_t d3 = 0; d3 < 2; ++d3) {
        const float phi2 =
            d2 ? (dsp::kPi / 2.0f + dsp::kPi) : (dsp::kPi / 2.0f);
        const float phi4 = d3 ? dsp::kPi : 0.0f;
        cb.codewords.push_back(CckCodeword(0.0f, phi2, 0.0f, phi4));
        cb.bits.push_back({d2, d3});
      }
    }
    BandLimitCodebook(cb);
    return cb;
  }();
  static const CckCodebook k11 = [] {
    const auto qpsk = [](std::uint8_t a, std::uint8_t b) {
      const unsigned key = (static_cast<unsigned>(a) << 1) | b;
      switch (key) {
        case 0b00: return 0.0f;
        case 0b01: return dsp::kPi / 2.0f;
        case 0b10: return dsp::kPi;
        default:   return 3.0f * dsp::kPi / 2.0f;
      }
    };
    CckCodebook cb;
    for (std::uint8_t d2 = 0; d2 < 2; ++d2)
    for (std::uint8_t d3 = 0; d3 < 2; ++d3)
    for (std::uint8_t d4 = 0; d4 < 2; ++d4)
    for (std::uint8_t d5 = 0; d5 < 2; ++d5)
    for (std::uint8_t d6 = 0; d6 < 2; ++d6)
    for (std::uint8_t d7 = 0; d7 < 2; ++d7) {
      cb.codewords.push_back(CckCodeword(0.0f, qpsk(d2, d3), qpsk(d4, d5),
                                         qpsk(d6, d7)));
      cb.bits.push_back({d2, d3, d4, d5, d6, d7});
    }
    BandLimitCodebook(cb);
    return cb;
  }();
  return rate == Rate::k5_5Mbps ? k55 : k11;
}

// Decodes the raw (still scrambled) CCK payload bits from the chip stream.
// `prev_ref` is the complex despread value of the last header symbol, which
// anchors the differential phi1 across the Barker/CCK boundary. Returns as
// many whole symbols' bits as were decodable.
util::BitVec DecodeCckPayloadRaw(dsp::const_sample_span chips,
                                 std::size_t payload_start_chip,
                                 std::size_t symbols_needed, Rate rate,
                                 cfloat prev_ref,
                                 rfdump::util::WorkBudget* budget) {
  const auto& cb = CodebookFor(rate);
  // Pass 1: decide each symbol while cancelling the *post*-cursor ISI of the
  // previous decision (the band-limited image of a symbol bleeds ~4 chips
  // each way). Pass 2: re-decide with both neighbours' bleed (post-cursor
  // from the pass-2 decision of m-1, pre-cursor from the pass-1 decision of
  // m+1) removed, which resolves the data-dependent marginal cases.
  struct Decision {
    std::size_t idx = 0;
    cfloat score{0.0f, 0.0f};
    cfloat gain{0.0f, 0.0f};
    bool valid = false;
  };
  const auto decide = [&](std::size_t at, const cfloat* subtract_head,
                          const cfloat* subtract_tail) {
    Decision d;
    if (at + 8 > chips.size()) return d;
    std::array<cfloat, 8> window;
    for (std::size_t c = 0; c < 8; ++c) {
      window[c] = chips[at + c];
      if (subtract_tail && c < 4) window[c] -= subtract_tail[c];
      if (subtract_head && c >= 4) window[c] -= subtract_head[c - 4];
    }
    float best_mag = -1.0f;
    for (std::size_t k = 0; k < cb.codewords.size(); ++k) {
      cfloat acc{0.0f, 0.0f};
      for (std::size_t c = 0; c < 8; ++c) {
        acc += window[c] * std::conj(cb.codewords[k][c]);
      }
      if (std::norm(acc) > best_mag) {
        best_mag = std::norm(acc);
        d.idx = k;
        d.score = acc;
      }
    }
    d.gain = d.score / cb.energies[d.idx];
    d.valid = true;
    return d;
  };

  std::vector<Decision> pass1(symbols_needed);
  {
    std::array<cfloat, 4> pending_tail{};
    const cfloat* tail_ptr = nullptr;
    for (std::size_t m = 0; m < symbols_needed; ++m) {
      // The codeword search dominates CCK cost: charge the budget per symbol
      // quantum so an absurd claimed length aborts instead of spinning.
      if (budget && (m & 31u) == 0u && !budget->Charge(32 * 8)) break;
      pass1[m] = decide(payload_start_chip + 8 * m, nullptr, tail_ptr);
      if (!pass1[m].valid) break;
      for (std::size_t c = 0; c < 4; ++c) {
        pending_tail[c] = pass1[m].gain * cb.tails[pass1[m].idx][c];
      }
      tail_ptr = pending_tail.data();
    }
  }

  util::BitVec raw;
  raw.reserve(symbols_needed * (rate == Rate::k5_5Mbps ? 4 : 8));
  float prev_phase = std::arg(prev_ref);
  std::array<cfloat, 4> pending_tail{};
  const cfloat* tail_ptr = nullptr;
  for (std::size_t m = 0; m < symbols_needed; ++m) {
    if (budget && (m & 31u) == 0u && !budget->Charge(32 * 8)) break;
    if (!pass1[m].valid) break;
    std::array<cfloat, 4> head{};
    const cfloat* head_ptr = nullptr;
    if (m + 1 < symbols_needed && pass1[m + 1].valid) {
      for (std::size_t c = 0; c < 4; ++c) {
        head[c] = pass1[m + 1].gain * cb.heads[pass1[m + 1].idx][c];
      }
      head_ptr = head.data();
    }
    const Decision d = decide(payload_start_chip + 8 * m, head_ptr, tail_ptr);
    if (!d.valid) break;
    // Differential phi1 with the even/odd pi offset removed.
    float diff = std::arg(d.score) - prev_phase;
    if (m & 1u) diff -= dsp::kPi;
    const auto [d0, d1] = SliceDqpsk(dsp::WrapPhase(diff));
    raw.push_back(d0);
    raw.push_back(d1);
    util::AppendBits(raw, cb.bits[d.idx]);
    prev_phase = std::arg(d.score);
    for (std::size_t c = 0; c < 4; ++c) {
      pending_tail[c] = d.gain * cb.tails[d.idx][c];
    }
    tail_ptr = pending_tail.data();
  }
  return raw;
}

}  // namespace

Demodulator::Demodulator() : Demodulator(Config{}) {}

Demodulator::Demodulator(Config config) : config_(config) {}

std::vector<DecodedFrame> Demodulator::DecodeAll(dsp::const_sample_span x) {
  static obs::Counter& c_samples = obs::Registry::Default().GetCounter(
      "rfdump_phy80211_samples_total");
  static obs::Counter& c_attempts = obs::Registry::Default().GetCounter(
      "rfdump_phy80211_sync_attempts_total");
  static obs::Counter& c_frames = obs::Registry::Default().GetCounter(
      "rfdump_phy80211_frames_total");
  static obs::Counter& c_fcs_pass = obs::Registry::Default().GetCounter(
      "rfdump_phy80211_fcs_pass_total");
  static obs::Counter& c_fcs_fail = obs::Registry::Default().GetCounter(
      "rfdump_phy80211_fcs_fail_total");
  std::vector<DecodedFrame> frames;
  c_samples.Inc(x.size());
  if (x.size() < 64) return frames;

  // Cooperative deadline: the fixed front matter (resample + correlation) is
  // linear in the window, so charge it up front; the scan loop below charges
  // per sync attempt because adversarial input can retry indefinitely there.
  util::WorkBudget* budget = config_.budget;
  if (budget && !budget->Charge(x.size())) return frames;

  // 1. Resample the 8 Msps capture to the 11 Mchip/s chip rate. Flush with
  // zeros so the resampler group delay and the 11-chip correlation window do
  // not truncate the final symbols of a frame that ends at the window edge.
  dsp::RationalResampler resampler(11, 8);
  dsp::SampleVec chips = resampler.Resampled(x);
  {
    const dsp::SampleVec flush(64, cfloat{0.0f, 0.0f});
    resampler.Process(flush, chips);
  }
  if (chips.size() < 2 * 11) return frames;

  // 2. Sliding Barker correlation with per-window normalization (the shared
  // SIMD-dispatched correlator; same recurrence this loop used to inline).
  dsp::SampleVec corr;
  std::vector<float> norm;
  dsp::CorrelateChipsNormalized(chips, dsp::kBarker11, corr, norm);
  const std::size_t ncorr = corr.size();

  // 3. Scan for DSSS activity and attempt frame sync at each candidate.
  std::size_t scan = 0;
  while (scan + config_.min_sync_symbols * 11 < ncorr) {
    if (budget && budget->expired()) break;  // abort with partial results
    if (norm[scan] < config_.correlation_threshold) {
      ++scan;
      continue;
    }
    c_attempts.Inc();
    if (budget && !budget->Charge(11 * config_.min_sync_symbols)) break;

    // 3a. Symbol timing: strongest correlation phase (mod 11) over the next
    // min_sync_symbols symbols.
    const std::size_t probe_symbols = config_.min_sync_symbols;
    double phase_score[11] = {};
    for (std::size_t o = 0; o < 11; ++o) {
      for (std::size_t m = 0; m < probe_symbols; ++m) {
        const std::size_t idx = scan + o + 11 * m;
        if (idx < ncorr) phase_score[o] += norm[idx];
      }
    }
    const std::size_t best_offset = static_cast<std::size_t>(
        std::max_element(phase_score, phase_score + 11) - phase_score);
    // Timing-quality gate: in a real DSSS burst the aligned chip phase
    // dominates the probe scores; in noise the profile is flat. Launching a
    // sync from noise would lock a bogus symbol grid that can survive the
    // header (sidelobe correlations) and then corrupt the payload.
    {
      double mean_score = 0.0;
      for (double s : phase_score) mean_score += s;
      mean_score /= 11.0;
      if (phase_score[best_offset] < 1.6 * mean_score) {
        scan += 11;
        continue;
      }
    }
    const std::size_t base = scan + best_offset;

    // 3b. Collect the symbol-rate correlation samples while the despread
    // quality holds up (with tolerance for brief fades).
    std::vector<cfloat> symbols;
    {
      std::size_t misses = 0;
      for (std::size_t n = 0; base + 11 * n < ncorr; ++n) {
        if (budget && (n & 255u) == 255u && !budget->Charge(11 * 256)) break;
        const std::size_t idx = base + 11 * n;
        if (norm[idx] < config_.correlation_threshold * 0.5f) {
          if (++misses > 8) break;
        } else {
          misses = 0;
        }
        symbols.push_back(corr[idx]);
      }
      // Trim the trailing missed symbols.
      while (misses > 0 && !symbols.empty()) {
        symbols.pop_back();
        --misses;
      }
    }
    if (symbols.size() < config_.min_sync_symbols) {
      scan = base + 11;
      continue;
    }

    // 3c. Differential decode with CFO compensation estimated by BPSK
    // squaring over the first preamble symbols.
    std::vector<cfloat> diff(symbols.size() - 1);
    for (std::size_t n = 1; n < symbols.size(); ++n) {
      diff[n - 1] = symbols[n] * std::conj(symbols[n - 1]);
    }
    cfloat sq_acc{0.0f, 0.0f};
    const std::size_t est_count = std::min<std::size_t>(diff.size(), 64);
    for (std::size_t n = 0; n < est_count; ++n) {
      sq_acc += diff[n] * diff[n];
    }
    const float rot = 0.5f * std::arg(sq_acc);
    const cfloat derot(std::cos(-rot), std::sin(-rot));

    util::BitVec raw_bits(diff.size());
    for (std::size_t n = 0; n < diff.size(); ++n) {
      raw_bits[n] = ((diff[n] * derot).real() < 0.0f) ? 1u : 0u;
    }

    // 3d. Descramble and hunt for SYNC(ones) + SFD. A 16-bit run of ones is
    // required before the SFD: combined with the SFD pattern and the header
    // CRC this keeps the false-header probability negligible even over long
    // noise stretches (a falsely accepted header would blank out up to
    // length_us of real frames from the scan).
    Descrambler descrambler;
    const util::BitVec bits = descrambler.Descramble(raw_bits);
    const auto& sfd = SfdBits();
    static const util::BitVec short_sfd =
        util::UintToBitsLsbFirst(kShortSfd, 16);
    constexpr std::size_t kRunRequired = 16;
    std::size_t sfd_at = bits.size();  // sentinel: not found
    bool short_preamble = false;
    for (std::size_t j = kRunRequired; j + 16 + 48 <= bits.size(); ++j) {
      bool all_ones = true, all_zeros = true;
      for (std::size_t k = j - kRunRequired; k < j; ++k) {
        all_ones &= (bits[k] == 1u);
        all_zeros &= (bits[k] == 0u);
      }
      if (all_ones && std::equal(sfd.begin(), sfd.end(), bits.begin() + j)) {
        sfd_at = j;
        break;
      }
      if (all_zeros &&
          std::equal(short_sfd.begin(), short_sfd.end(), bits.begin() + j)) {
        sfd_at = j;
        short_preamble = true;
        break;
      }
    }
    if (sfd_at == bits.size()) {
      scan = base + 11 * config_.min_sync_symbols;
      continue;
    }

    // 3e. Header (with plausibility bounds: the longest legal 802.11b MPDU
    // is ~2346 bytes, i.e. <= ~19 ms at 1 Mbps). A long preamble carries it
    // as 48 DBPSK bits; a short preamble as 24 DQPSK symbols (18.2.2.3).
    std::optional<PlcpHeader> header;
    std::size_t header_symbols = 48;
    util::BitVec short_hdr_raw;  // scrambled header bits (short preamble)
    if (!short_preamble) {
      header = ParsePlcpHeader(
          std::span<const std::uint8_t>(bits).subspan(sfd_at + 16, 48));
    } else {
      header_symbols = 24;
      short_hdr_raw.clear();
      util::BitVec& hdr_raw = short_hdr_raw;
      hdr_raw.reserve(48);
      for (std::size_t m = 0; m < 24; ++m) {
        const std::size_t idx = sfd_at + 16 + m;  // diff of symbol idx+1
        if (idx >= diff.size()) break;
        const cfloat d = diff[idx] * derot;
        const auto [d0, d1] = SliceDqpsk(std::arg(d));
        hdr_raw.push_back(d0);
        hdr_raw.push_back(d1);
      }
      if (hdr_raw.size() == 48) {
        Descrambler hdr_descrambler;
        for (std::size_t k = 0; k < sfd_at + 16 && k < raw_bits.size(); ++k) {
          (void)hdr_descrambler.DescrambleBit(raw_bits[k]);
        }
        const util::BitVec hdr = hdr_descrambler.Descramble(hdr_raw);
        header = ParsePlcpHeader(hdr);
        // 1 Mbps cannot follow a short preamble; a parse claiming it is a
        // false sync.
        if (header && header->rate == Rate::k1Mbps) header.reset();
      }
    }
    if (!header || header->length_us > 19000 ||
        header->MpduBytes() > 2400) {
      scan = base + 11 * (sfd_at + 16 + 48 + 1);
      continue;
    }

    DecodedFrame frame;
    frame.header = *header;
    // Anchor the frame start to the SFD: SYNC(128 or 56) + SFD(16) symbols
    // precede the header, so the first SYNC symbol is 127 (long) or 55
    // (short) before the bit index where the SFD was found (bit k <-> symbol
    // k+1). Anchoring to the energy-scan position instead would mis-place
    // frames when the scan entered mid-burst (e.g. at a block boundary).
    {
      const std::int64_t start_symbol =
          static_cast<std::int64_t>(sfd_at) - (short_preamble ? 55 : 127);
      const std::int64_t start_chip =
          static_cast<std::int64_t>(base) + 11 * start_symbol;
      frame.start_sample =
          start_chip > 0 ? ChipToSample(static_cast<std::size_t>(start_chip))
                         : 0;
    }
    // Bit k corresponds to symbol k+1; symbol n starts at chip base + 11n.
    const std::size_t payload_first_symbol = sfd_at + 16 + header_symbols + 1;
    const std::size_t payload_start_chip = base + 11 * payload_first_symbol;
    const std::size_t payload_chips =
        static_cast<std::size_t>(header->length_us) * 11;
    const std::size_t end_chip = payload_start_chip + payload_chips;
    frame.end_sample =
        std::min<std::int64_t>(ChipToSample(end_chip),
                               static_cast<std::int64_t>(x.size()));

    // 3f. Payload.
    const std::size_t mpdu_bytes = header->MpduBytes();
    const std::size_t payload_bits_needed = mpdu_bytes * 8;
    util::BitVec payload_raw;
    payload_raw.reserve(payload_bits_needed);
    const std::size_t payload_first_diff = payload_first_symbol - 1;

    if (header->rate == Rate::k1Mbps) {
      for (std::size_t k = 0; k < payload_bits_needed &&
                              payload_first_diff + k < raw_bits.size();
           ++k) {
        payload_raw.push_back(raw_bits[payload_first_diff + k]);
      }
    } else if (header->rate == Rate::k2Mbps) {
      const std::size_t payload_symbols = (payload_bits_needed + 1) / 2;
      for (std::size_t m = 0; m < payload_symbols &&
                              payload_first_diff + m < diff.size();
           ++m) {
        const cfloat d = diff[payload_first_diff + m] * derot;
        const auto [d0, d1] = SliceDqpsk(std::arg(d));
        payload_raw.push_back(d0);
        payload_raw.push_back(d1);
      }
      if (payload_raw.size() > payload_bits_needed) {
        payload_raw.resize(payload_bits_needed);
      }
    } else if (config_.decode_cck) {
      // CCK payload (5.5/11 Mbps): codeword-correlation decoding straight
      // from the chip stream — an extension beyond the paper's prototype.
      const std::size_t bits_per_symbol =
          header->rate == Rate::k5_5Mbps ? 4 : 8;
      const std::size_t symbols_needed =
          payload_bits_needed / bits_per_symbol;
      const std::size_t last_header_symbol = payload_first_symbol - 1;
      if (last_header_symbol < symbols.size()) {
        payload_raw = DecodeCckPayloadRaw(
            chips, payload_start_chip, symbols_needed, header->rate,
            symbols[last_header_symbol], budget);
        if (payload_raw.size() > payload_bits_needed) {
          payload_raw.resize(payload_bits_needed);
        }
      }
    }

    if (payload_raw.size() == payload_bits_needed && mpdu_bytes > 0) {
      // Re-seed a descrambler with the last 7 *scrambled* bits preceding the
      // payload so its self-synchronizing state is correct. For a long
      // preamble those are the BPSK raw bits; for a short preamble the
      // header was DQPSK, so the dibit stream supplies them.
      Descrambler payload_descrambler;
      if (short_preamble) {
        for (std::size_t k = short_hdr_raw.size() - 7;
             k < short_hdr_raw.size(); ++k) {
          (void)payload_descrambler.DescrambleBit(short_hdr_raw[k]);
        }
      } else {
        for (std::size_t k = payload_first_diff - 7; k < payload_first_diff;
             ++k) {
          (void)payload_descrambler.DescrambleBit(raw_bits[k]);
        }
      }
      const util::BitVec payload_bits =
          payload_descrambler.Descramble(payload_raw);
      frame.mpdu = util::BitsToBytesLsbFirst(payload_bits);
      frame.payload_decoded = true;
      if (frame.mpdu.size() >= 4) {
        const std::uint32_t fcs =
            util::Crc32(std::span<const std::uint8_t>(frame.mpdu)
                            .first(frame.mpdu.size() - 4));
        std::uint32_t rx_fcs = 0;
        for (int b = 0; b < 4; ++b) {
          rx_fcs |= static_cast<std::uint32_t>(
                        frame.mpdu[frame.mpdu.size() - 4 + b])
                    << (8 * b);
        }
        frame.fcs_ok = (fcs == rx_fcs);
        (frame.fcs_ok ? c_fcs_pass : c_fcs_fail).Inc();
      }
    }

    c_frames.Inc();
    frames.push_back(std::move(frame));
    // Resume scanning after this frame.
    scan = std::max(end_chip, base + 11 * config_.min_sync_symbols);
  }
  return frames;
}

}  // namespace rfdump::phy80211
