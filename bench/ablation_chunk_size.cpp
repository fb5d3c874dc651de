// Ablation: chunk size (paper §4.2). Chunking trades metadata overhead
// against noise forwarded to the demodulators: per-sample metadata is
// expensive, huge chunks forward whole chunks of noise around every packet.
// The paper chose 200 samples (25 us); this sweep shows the trade-off.
//
// Note kChunkSamples is a compile-time constant for the pipeline; this bench
// reimplements the chunk loop locally so the size can vary.

#include "bench_common.hpp"
#include "rfdump/core/peaks.hpp"
#include "rfdump/obs/stopwatch.hpp"

namespace {

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

struct Result {
  double detect_seconds;
  std::int64_t forwarded_excess;  // non-signal samples inside padded peaks
  std::size_t peaks;
};

Result RunWithChunk(std::size_t chunk, dsp::const_sample_span x,
                    const std::vector<rfdump::emu::TruthRecord>& truth) {
  const rfdump::obs::Stopwatch watch;
  core::PeakDetector det;
  std::vector<core::Peak> peaks;
  for (std::size_t at = 0; at < x.size(); at += chunk) {
    const auto done =
        det.PushChunk(x.subspan(at, std::min(chunk, x.size() - at)),
                      static_cast<std::int64_t>(at))
            .completed;
    peaks.insert(peaks.end(), done.begin(), done.end());
  }
  const auto last = det.Flush();
  peaks.insert(peaks.end(), last.begin(), last.end());
  const double secs = watch.Seconds();
  // Forwarding granularity: everything is dispatched in whole chunks, so a
  // peak costs ceil(len/chunk) chunks of samples.
  std::int64_t forwarded = 0;
  for (const auto& p : peaks) {
    const std::int64_t len = p.length();
    const auto chunks =
        (len + static_cast<std::int64_t>(chunk) - 1) /
        static_cast<std::int64_t>(chunk);
    forwarded += chunks * static_cast<std::int64_t>(chunk);
  }
  std::int64_t signal = 0;
  for (const auto& r : truth) {
    if (r.visible) signal += r.end_sample - r.start_sample;
  }
  return {secs, forwarded - signal, peaks.size()};
}

}  // namespace

int main() {
  bench::PrintHeader("Ablation - chunk size (paper default: 200 = 25 us)");

  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig cfg;
  cfg.count = bench::Scaled(40);
  cfg.interval_us = 20000.0;
  cfg.snr_db = 25.0;
  const auto session = rfdump::traffic::GenerateUnicastPing(ether, cfg, 8000);
  const auto x = ether.Render(session.end_sample + 8000);

  std::printf("%10s %12s %18s %8s\n", "chunk", "detect s", "excess fwd smpl",
              "peaks");
  for (std::size_t chunk : {25u, 50u, 100u, 200u, 400u, 800u, 1600u}) {
    const auto r = RunWithChunk(chunk, x, ether.truth());
    std::printf("%7zu%s %12.4f %18lld %8zu\n", chunk,
                chunk == 200 ? "*" : " ", r.detect_seconds,
                static_cast<long long>(r.forwarded_excess), r.peaks);
  }
  std::printf("\nsmall chunks: more per-chunk overhead; large chunks: more\n"
              "noise forwarded per packet. 200 samples sits at the knee.\n");
  return 0;
}
