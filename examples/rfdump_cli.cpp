// rfdump — the command-line monitor itself, tcpdump-style.
//
// Reads a recorded IQ trace (or synthesizes a demo ether with `--demo`) and
// prints every classified transmission. Architecture and detector selection
// mirror the paper's configurations.
//
// Usage:
//   example_rfdump_cli --demo                          # synthesize + monitor
//   example_rfdump_cli -r trace.iq                     # monitor a trace
//   example_rfdump_cli -r trace.iq --arch naive        # naive baseline
//   example_rfdump_cli -r trace.iq --no-demod          # detection only
//   example_rfdump_cli -r trace.iq --detectors timing  # timing|phase|both
//   example_rfdump_cli -r trace.iq --stats             # per-stage wall time
//   example_rfdump_cli -r trace.iq --protocols wifi,ble  # bundle selection

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/pipeline.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/obs/obs.hpp"
#include "rfdump/core/spectrogram.hpp"
#include "rfdump/core/streaming.hpp"
#include "rfdump/emu/frontend.hpp"
#include "rfdump/net/endpoint.hpp"
#include "rfdump/net/fleet.hpp"
#include "rfdump/net/tcp.hpp"
#include "rfdump/trace/pcap.hpp"
#include "rfdump/mac80211/frames.hpp"
#include "rfdump/testing/differential.hpp"
#include "rfdump/testing/fuzz.hpp"
#include "rfdump/testing/replay.hpp"
#include "rfdump/trace/trace.hpp"
#include "rfdump/traffic/traffic.hpp"

namespace core = rfdump::core;
namespace dsp = rfdump::dsp;

namespace {

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [-r trace.iq | --demo] [options]\n"
      "  -r FILE            read IQ samples from FILE\n"
      "  --demo             synthesize a demo ether instead of reading\n"
      "  --arch A           rfdump (default) | naive | energy\n"
      "  --detectors D      both (default) | timing | phase detector\n"
      "                     families; anything else exits 2\n"
      "  --protocols LIST   comma-separated protocol bundles to enable\n"
      "                     (names from the registry, e.g. wifi,bt,ble;\n"
      "                     unknown names exit 2; default = every bundle\n"
      "                     registered as enabled-by-default)\n"
      "  --simd TIER        force the DSP kernel dispatch tier:\n"
      "                     scalar|sse2|avx2|auto (default: RFDUMP_SIMD env\n"
      "                     or CPU detection; all tiers are bit-identical)\n"
      "  --no-demod         detection stage only\n"
      "  --threads N        analysis worker threads (default 1 = serial;\n"
      "                     0 = one per hardware thread). Results are\n"
      "                     identical at every width; only wall time moves\n"
      "  --collisions       enable collision detection\n"
      "  --stats            print per-stage wall time\n"
      "  --waterfall        print an ASCII spectrogram of the band\n"
      "  --pcap FILE        export decoded 802.11 frames as pcap\n"
      "  --noise-floor P    noise floor power (default 1.0)\n"
      "  --impair           replay through a hostile front end (USB-overrun\n"
      "                     drops, ADC clipping, DC offset, NaN bursts) and\n"
      "                     monitor it with the fault-tolerant streaming\n"
      "                     path; prints per-block health\n"
      "  --budget R         CPU/real-time budget per block for load shedding\n"
      "                     (streaming path only; 0 = no shedding)\n"
      "  --deadline S       CPU-seconds deadline per supervised analysis\n"
      "                     interval (streaming path only; 0 = unlimited)\n"
      "  --quarantine DIR   write each quarantined interval (a failed\n"
      "                     analysis: deadline blown or demodulator threw)\n"
      "                     to DIR as an .iq snippet plus a one-line JSON\n"
      "                     sidecar (stream offset, protocol, outcome), so\n"
      "                     the poison input can be replayed with -r\n"
      "  --metrics DEST     dump the metrics registry (Prometheus text\n"
      "                     format) to DEST on exit; `-` means stdout. With\n"
      "                     --impair and a file DEST, the file is also\n"
      "                     rewritten periodically while blocks stream. In\n"
      "                     fleet mode DEST gets the aggregator's federated\n"
      "                     exposition (every sensor under sensor=\"<id>\")\n"
      "  --trace FILE       record spans and write Trace Event Format JSON\n"
      "                     to FILE (load in chrome://tracing or Perfetto).\n"
      "                     In fleet mode FILE is the merged fleet trace:\n"
      "                     one process row per sensor plus the aggregator,\n"
      "                     with sensor->aggregator span links\n"
      "  --fleet N          replay the input through N skewed sensors (mild\n"
      "                     chaos on sensor 0's links) feeding one central\n"
      "                     aggregator; prints the fused ether-wide view\n"
      "  --fleet-status     with --fleet: print the one-screen fleet status\n"
      "                     table after each sensor's replay and at exit\n"
      "  --fleet-status=json  machine-readable final status instead\n"
      "  --listen HOST:PORT run the central aggregator over real TCP:\n"
      "                     accept sensors, fuse their event streams, print\n"
      "                     the fused summary once every expected sensor has\n"
      "                     drained and disconnected. --metrics DEST gets\n"
      "                     the federated exposition. Port 0 = ephemeral\n"
      "  --connect HOST:PORT  monitor the input (-r/--demo) and stream the\n"
      "                     classified events to a --listen aggregator as\n"
      "                     sensor --sensor-id, riding out resets via the\n"
      "                     session's retransmit ring + backoff redial\n"
      "  --sensor-id K      sensor id for --connect (default 0)\n"
      "  --expect N         sensors --listen waits for before the fused\n"
      "                     summary (default 1)\n"
      "  --port-file FILE   with --listen: write the bound port to FILE\n"
      "                     once accepting (scripts discover ephemeral\n"
      "                     ports this way)\n"
      "  --max-seconds S    wall-clock bound for --listen/--connect\n"
      "                     (default 120; exit 1 on timeout)\n"
      "  --selftest         run the conformance harness: a naive-vs-rfdump\n"
      "                     differential sweep over canned scenarios plus\n"
      "                     the checked-in fuzz corpus; exit nonzero on any\n"
      "                     mismatch, crash, or hang\n"
      "  --corpus DIR       corpus root for --selftest (default\n"
      "                     tests/corpus)\n",
      argv0);
}

// Strict numeric flag parsing. atoi/atof silently turn garbage into 0 —
// which for --threads used to mean "one worker per hardware thread" — so the
// whole token must parse and land in range, or the run stops with exit 2.
bool ParseIntFlag(const char* flag, const char* text, long min_value,
                  long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < min_value) {
    std::fprintf(stderr, "error: %s expects an integer >= %ld, got '%s'\n",
                 flag, min_value, text);
    return false;
  }
  *out = v;
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* text, double min_value,
                     double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  // !(v >= min) also rejects NaN; infinity is no more meaningful a budget.
  if (errno != 0 || end == text || *end != '\0' || !(v >= min_value) ||
      v > 1e12) {
    std::fprintf(stderr, "error: %s expects a finite number >= %g, got '%s'\n",
                 flag, min_value, text);
    return false;
  }
  *out = v;
  return true;
}

// "--protocols wifi,bt,ble" -> bundle mask. Strict: every name must be a
// registered bundle's cli_name, or the run stops with exit 2.
bool ParseProtocolsFlag(const char* text, std::uint32_t* mask) {
  const auto& registry = core::ProtocolRegistry::Instance();
  std::uint32_t out = 0;
  const std::string list = text;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    const core::ProtocolBundle* bundle =
        name.empty() ? nullptr : registry.FindCli(name);
    if (bundle == nullptr) {
      std::string known;
      for (const auto& b : registry.bundles()) {
        if (!known.empty()) known += ",";
        known += b.cli_name;
      }
      std::fprintf(stderr,
                   "error: --protocols: unknown protocol '%s' (known: %s)\n",
                   name.c_str(), known.c_str());
      return false;
    }
    out |= core::BundleBit(bundle->protocol);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  *mask = out;
  return true;
}

dsp::SampleVec DemoEther() {
  rfdump::emu::Ether ether;
  rfdump::traffic::WifiPingConfig wifi;
  wifi.count = 8;
  wifi.interval_us = 30000.0;
  rfdump::traffic::L2PingConfig bt;
  bt.count = 40;
  const auto ws = rfdump::traffic::GenerateUnicastPing(ether, wifi, 16000);
  const auto bs = rfdump::traffic::GenerateL2Ping(ether, bt, 24000);
  return ether.Render(std::max(ws.end_sample, bs.end_sample) + 16000);
}

void PrintReport(const core::MonitorReport& report, bool stats) {
  std::printf("%-12s %-10s %s\n", "time", "proto", "info");
  struct Line {
    double t;
    std::string text;
  };
  std::vector<Line> lines;
  std::size_t wifi = 0, bt = 0;
  for (const auto& e : report.events) {
    if (e.protocol == core::Protocol::kWifi80211b) ++wifi;
    if (e.protocol == core::Protocol::kBluetooth) ++bt;
    const double t = static_cast<double>(e.start_sample) / dsp::kSampleRateHz;
    const auto* bundle = core::ProtocolRegistry::Instance().Find(e.protocol);
    if (bundle != nullptr && bundle->describe) {
      lines.push_back({t, bundle->describe(e)});
      continue;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-10s ch %d %zu B crc %s",
                  core::ProtocolName(e.protocol), e.channel, e.payload.size(),
                  e.crc_ok ? "ok" : "BAD");
    lines.push_back({t, buf});
  }
  // Detection-only runs: list the tagged intervals instead.
  if (report.events.empty()) {
    for (const auto& d : report.detections) {
      const double t =
          static_cast<double>(d.start_sample) / dsp::kSampleRateHz;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%-10s tagged by %s (conf %.2f, %lld "
                    "samples)",
                    core::ProtocolName(d.protocol), d.detector,
                    static_cast<double>(d.confidence),
                    static_cast<long long>(d.end_sample - d.start_sample));
      lines.push_back({t, buf});
    }
  }
  std::sort(lines.begin(), lines.end(),
            [](const Line& a, const Line& b) { return a.t < b.t; });
  for (const auto& l : lines) {
    std::printf("%12.6f %s\n", l.t, l.text.c_str());
  }
  std::printf("\n%zu 802.11 frames, %zu bluetooth packets, %zu detections; "
              "CPU/real time %.3f\n",
              wifi, bt, report.detections.size(), report.CpuOverRealTime());
  if (stats) {
    std::printf("\nper-stage wall time:\n");
    report.costs.ForEach([](core::Stage s, const core::StageSlot& c) {
      if (!c.charged()) return;
      std::printf("  %-24s %9.4f s  (%llu samples)\n", core::StageName(s),
                  c.seconds(), static_cast<unsigned long long>(c.samples));
    });
  }
}

// Writes the registry's Prometheus text exposition to `dest` ("-" = stdout).
bool DumpMetrics(const std::string& dest) {
  const std::string text = rfdump::obs::Registry::Default().ExpositionText();
  if (dest == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::ofstream out(dest, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", dest.c_str());
    return false;
  }
  out << text;
  return true;
}

// Runs the conformance harness in-process: a naive-vs-rfdump differential
// sweep over canned mixed scenarios, then (when the checked-in corpus is
// reachable) the deterministic fuzz-corpus replay for every decoder target.
// Returns the process exit code: 0 only if every architecture agrees on
// every seed and no corpus input crashes or hangs a decoder.
int RunSelfTest(const std::string& corpus_root) {
  namespace rft = rfdump::testing;
  // Everything below enumerates the protocol registry: a newly registered
  // bundle appears in this listing, joins the differential sweep via its
  // naive_member flag, and gets its corpus replayed via its fuzz
  // hooks — with zero edits here.
  std::printf("[selftest] registered protocol bundles:\n");
  for (const auto& b : core::ProtocolRegistry::Instance().bundles()) {
    std::printf("  %-12s --protocols %-10s %s%s\n", b.name, b.cli_name,
                b.default_enabled ? "default-on" : "opt-in",
                b.fuzz_name != nullptr
                    ? (std::string("  fuzz:") + b.fuzz_name).c_str()
                    : "");
  }
  std::printf("[selftest] differential sweep: naive vs naive+energy vs "
              "rfdump@1 vs rfdump@N\n");
  rft::DifferentialPolicy policy;
  const std::uint64_t seeds[] = {11, 12, 13, 14};
  const auto results = rft::RunDifferentialSweep(seeds, policy);
  bool ok = true;
  for (const auto& r : results) {
    std::printf("%s", r.Summary().c_str());
    ok = ok && r.ok();
  }
  for (const auto& target : rft::EnumerateFuzzTargets()) {
    const std::string dir = corpus_root + "/" + target.corpus_dir;
    if (!std::filesystem::is_directory(dir)) {
      std::printf("[selftest] corpus dir %s not found; skipping %s\n",
                  dir.c_str(), target.name.c_str());
      continue;
    }
    rft::CorpusRunner::Config cfg;
    cfg.repro_dir = "selftest_repro";
    cfg.mutation_rounds = 1;
    rft::CorpusRunner runner(cfg);
    const auto result = runner.RunDirectory(target, dir);
    std::printf("%s", result.Summary(target.name).c_str());
    if (result.inputs_run == 0) {
      std::printf("[selftest] %s: corpus empty\n", target.name.c_str());
      ok = false;
    }
    ok = ok && result.ok();
  }
  std::printf("[selftest] %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Replays `x` through an emulated hostile front end and monitors it with the
// fault-tolerant streaming path. Returns the aggregate report; prints
// per-block health lines as blocks complete. A non-stdout `metrics_path` is
// rewritten periodically so an operator can watch counters move mid-run.
core::MonitorReport MonitorImpaired(const dsp::SampleVec& x,
                                    core::StreamingMonitor::Config mcfg,
                                    const std::string& metrics_path,
                                    const std::string& quarantine_dir) {
  rfdump::emu::FrontEnd::Config fe;
  fe.drops_per_second = 2.0;
  fe.duplicates_per_second = 0.5;
  fe.nonfinite_per_second = 4.0;
  fe.clip_amplitude = 24.0f;
  fe.dc_offset = {0.05f, -0.02f};
  rfdump::emu::FrontEnd frontend(x, fe, /*seed=*/7);

  mcfg.pipeline.saturation_amplitude = fe.clip_amplitude;
  // Collects the monitor's output into a report for PrintReport, and prints
  // a health line per block as blocks complete.
  class ImpairedSink final : public core::ResultSink {
   public:
    explicit ImpairedSink(const std::string& metrics_path)
        : metrics_path_(metrics_path),
          periodic_metrics_(!metrics_path.empty() && metrics_path != "-") {}
    void OnEvent(const core::ProtocolEvent& e) override {
      report.events.push_back(e);
    }
    void OnDetection(const core::Detection& d) override {
      report.detections.push_back(d);
    }
    void OnHealth(const core::HealthReport& h) override {
      std::printf(
          "[health] block @%9.3f s: %llu samples, gaps %u (%lld lost), "
          "dup %lld, sanitized %llu, sat %4.1f%%, stage %d, load %.3f, "
          "tag %llu/rej %llu/veto %llu/fwd %llu\n",
          static_cast<double>(h.block_start) / dsp::kSampleRateHz,
          static_cast<unsigned long long>(h.block_samples), h.gap_count,
          static_cast<long long>(h.gap_samples),
          static_cast<long long>(h.overlap_samples),
          static_cast<unsigned long long>(h.sanitized_samples),
          100.0 * h.saturation_fraction, h.shed_stage, h.block_load,
          static_cast<unsigned long long>(h.tagged_detections),
          static_cast<unsigned long long>(h.rejected_detections),
          static_cast<unsigned long long>(h.vetoed_detections),
          static_cast<unsigned long long>(h.forwarded_intervals));
      // Refresh the exposition file every ~16 blocks (~0.8 s of ether at
      // the 50 ms block size): cheap enough, fresh enough to scrape.
      if (periodic_metrics_ && (++blocks_seen_ % 16 == 0)) {
        DumpMetrics(metrics_path_);
      }
    }
    core::MonitorReport report;

   private:
    const std::string& metrics_path_;
    const bool periodic_metrics_;
    std::uint64_t blocks_seen_ = 0;
  } sink(metrics_path);
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);
  while (!frontend.Done()) {
    const auto seg = frontend.NextSegment();
    if (!seg.samples.empty()) monitor.PushSegment(seg.start_sample, seg.samples);
  }
  monitor.Flush();

  std::size_t drops = 0, bursts = 0;
  for (const auto& f : frontend.faults()) {
    if (f.kind == rfdump::emu::FaultKind::kDrop) ++drops;
    if (f.kind == rfdump::emu::FaultKind::kNonFinite) ++bursts;
  }
  std::printf(
      "\n[front end] injected %zu overrun gaps + %zu NaN bursts; monitor "
      "reported %zu gaps, shed stage now %d\n",
      drops, bursts, monitor.gaps().size(), monitor.shed_stage());
  const core::HealthSummary& sum = monitor.summary();
  std::printf(
      "[summary] %llu blocks / %llu samples: gaps %u (%lld lost), sanitized "
      "%llu, tagged %llu, rejected %llu, vetoed %llu, forwarded %llu, mean "
      "load %.3f, peak load %.3f (history ring holds %zu of %llu)\n",
      static_cast<unsigned long long>(sum.blocks),
      static_cast<unsigned long long>(sum.samples), sum.gap_count,
      static_cast<long long>(sum.gap_samples),
      static_cast<unsigned long long>(sum.sanitized_samples),
      static_cast<unsigned long long>(sum.tagged_detections),
      static_cast<unsigned long long>(sum.rejected_detections),
      static_cast<unsigned long long>(sum.vetoed_detections),
      static_cast<unsigned long long>(sum.forwarded_intervals),
      sum.MeanLoad(), sum.max_block_load, monitor.health().size(),
      static_cast<unsigned long long>(sum.blocks));
  if (sum.supervised_intervals > 0) {
    std::printf(
        "[supervisor] %llu intervals: %llu deadline, %llu exception, %llu "
        "skipped (breaker open), %llu quarantined; %llu breaker trips, %d "
        "open now\n",
        static_cast<unsigned long long>(sum.supervised_intervals),
        static_cast<unsigned long long>(sum.deadline_intervals),
        static_cast<unsigned long long>(sum.exception_intervals),
        static_cast<unsigned long long>(sum.skipped_intervals),
        static_cast<unsigned long long>(sum.quarantined_intervals),
        static_cast<unsigned long long>(sum.breaker_trips),
        monitor.supervisor().open_breakers());
  }
  if (!quarantine_dir.empty()) {
    const std::size_t n =
        rfdump::testing::WriteQuarantineDir(quarantine_dir,
                                            monitor.supervisor());
    std::printf("wrote %zu quarantined intervals to %s\n", n,
                quarantine_dir.c_str());
  }
  std::printf("\n");
  core::MonitorReport report = std::move(sink.report);
  report.costs = monitor.costs();
  report.samples_total = monitor.samples_processed();
  return report;
}

// N-sensor in-process fleet over one shared ether (DESIGN.md §13): every
// sensor replays the same input through its own emu::FrontEnd (distinct
// clock skew per sensor; mild link chaos on sensor 0), monitors it with a
// StreamingMonitor whose sink feeds a SensorSession, and one Aggregator
// fuses the results. The fleet observability surfaces hang off this mode:
// `--fleet-status[=json]` renders Fleet::StatusReport(), `--metrics` gets
// the aggregator's federated exposition, and `--trace` gets the merged
// fleet trace (one chrome://tracing process row per node).
int RunFleet(const dsp::SampleVec& x, int nsensors,
             core::StreamingMonitor::Config mcfg, bool fleet_status,
             bool status_json, const std::string& metrics_path,
             const std::string& trace_path_out) {
  namespace net = rfdump::net;
  namespace obs = rfdump::obs;
  const bool tracing = !trace_path_out.empty();

  // One tracer per node (N sensors + the aggregator) so the merged trace
  // renders one process row each. The monitors' own pipeline spans go to
  // the shared default tracer (already enabled by main when tracing) and
  // are exported as one extra "monitors" row.
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  net::Fleet::Config fcfg;
  fcfg.aggregator.trust_floor = 0.0;
  fcfg.sensors.resize(static_cast<std::size_t>(nsensors));
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(nsensors));
  for (int i = 0; i < nsensors; ++i) {
    auto& s = fcfg.sensors[static_cast<std::size_t>(i)];
    // Distinct skews so the aggregator's clock alignment has work to do.
    offsets[static_cast<std::size_t>(i)] = (i - nsensors / 2) * 1'500;
    s.id = static_cast<std::uint16_t>(i);
    s.clock_offset_samples = offsets[static_cast<std::size_t>(i)];
    s.seed = 40 + static_cast<std::uint64_t>(i);
    s.session.metrics_every_n_heartbeats = 1;  // federation on
    tracers.push_back(std::make_unique<obs::Tracer>());
    if (tracing) tracers.back()->Enable();
    s.session.tracer = tracers.back().get();
    if (i == 0) {
      // Mild chaos on the first sensor's links: the status table and the
      // federated counters must stay truthful through drops and dups.
      s.uplink.drop_rate = 0.03;
      s.uplink.duplicate_rate = 0.02;
      s.uplink.corrupt_rate = 0.02;
      s.downlink.drop_rate = 0.03;
    }
  }
  tracers.push_back(std::make_unique<obs::Tracer>());  // aggregator's
  if (tracing) tracers.back()->Enable();
  fcfg.aggregator.tracer = tracers.back().get();
  net::Fleet fleet(fcfg);
  fleet.Run(4);  // hellos + clock samples before any events

  for (int i = 0; i < nsensors; ++i) {
    rfdump::emu::FrontEnd::Config fecfg;
    fecfg.clock_offset_samples = offsets[static_cast<std::size_t>(i)];
    rfdump::emu::FrontEnd fe(x, fecfg, 70 + static_cast<std::uint64_t>(i));
    core::StreamingMonitor::Config cfg = mcfg;
    cfg.sink = &fleet.sink(static_cast<std::size_t>(i));
    core::StreamingMonitor monitor(cfg);
    while (!fe.Done()) {
      const auto seg = fe.NextSegment();
      if (!seg.samples.empty()) {
        monitor.PushSegment(seg.start_sample, seg.samples);
      }
      fleet.Tick();  // pump frames across the links while the monitor runs
    }
    monitor.Flush();
    fleet.sink(static_cast<std::size_t>(i)).Flush();
    fleet.Run(4);
    if (fleet_status && !status_json) {
      std::printf("%s\n", fleet.StatusReport().ToText().c_str());
    }
  }
  fleet.SetLossless(true);
  fleet.Run(60);  // drain retransmits so the ledgers converge

  const net::FleetStatus status = fleet.StatusReport();
  if (fleet_status) {
    std::printf("%s\n",
                (status_json ? status.ToJson() : status.ToText()).c_str());
  }
  std::printf("[fleet] %zu/%d sensors live, %zu fused events, %llu "
              "cross-sensor merges\n",
              status.live_sensors, nsensors, status.fused_events,
              static_cast<unsigned long long>(status.merges));

  if (!metrics_path.empty()) {
    const std::string text = fleet.aggregator().FederatedExposition();
    if (metrics_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else {
      std::ofstream out(metrics_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     metrics_path.c_str());
        return 1;
      }
      out << text;
      std::printf("wrote federated metrics to %s\n", metrics_path.c_str());
    }
  }
  if (tracing) {
    std::vector<obs::ProcessTrace> procs;
    for (int i = 0; i < nsensors; ++i) {
      procs.push_back({"sensor-" + std::to_string(i),
                       static_cast<std::uint32_t>(i + 1),
                       tracers[static_cast<std::size_t>(i)]->Events()});
    }
    procs.push_back({"aggregator", static_cast<std::uint32_t>(nsensors + 1),
                     tracers.back()->Events()});
    procs.push_back({"monitors", static_cast<std::uint32_t>(nsensors + 2),
                     rfdump::obs::Tracer::Default().Events()});
    std::ofstream out(trace_path_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path_out.c_str());
      return 1;
    }
    out << obs::ExportFleetChromeJson(procs);
    std::size_t spans = 0;
    for (const auto& p : procs) spans += p.events.size();
    std::printf("wrote merged fleet trace (%zu process rows, %zu spans) "
                "to %s\n",
                procs.size(), spans, trace_path_out.c_str());
  }
  return 0;
}

// "HOST:PORT" -> (host, port). Port 0 is allowed (ephemeral bind for
// --listen); anything else out of range or non-numeric fails.
bool ParseHostPort(const char* flag, const std::string& text,
                   std::string* host, std::uint16_t* port) {
  const auto colon = text.rfind(':');
  long p = -1;
  if (colon != std::string::npos && colon > 0) {
    char* end = nullptr;
    errno = 0;
    p = std::strtol(text.c_str() + colon + 1, &end, 10);
    if (errno != 0 || end == text.c_str() + colon + 1 || *end != '\0' ||
        p < 0 || p > 65535) {
      p = -1;
    }
  }
  if (p < 0) {
    std::fprintf(stderr,
                 "error: %s expects HOST:PORT (e.g. 127.0.0.1:7001), got "
                 "'%s'\n",
                 flag, text.c_str());
    return false;
  }
  *host = text.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

// Central aggregator over real TCP (DESIGN.md §14): accept sensors on
// host:port, fuse their streams, and exit once `expect` distinct sensors
// have connected, balanced their ledgers, and disconnected. The pump runs
// at ~2 ms per tick so the session heartbeat/RTO cadence on the other side
// of the wire sees a live peer.
int RunTcpListen(const std::string& host, std::uint16_t port, int expect,
                 const std::string& metrics_path,
                 const std::string& port_file, double max_seconds) {
  namespace net = rfdump::net;
  net::TcpListener listener(net::Syscalls::Real());
  if (!listener.Listen(host, port)) {
    std::fprintf(stderr, "error: cannot listen on %s:%u: %s\n", host.c_str(),
                 port, std::strerror(errno));
    return 1;
  }
  std::printf("[listen] aggregator on %s:%u, waiting for %d sensor%s\n",
              host.c_str(), listener.port(), expect, expect == 1 ? "" : "s");
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
    out << listener.port() << "\n";
  }

  net::AggregatorServer::Config scfg;
  scfg.aggregator.trust_floor = 0.0;
  net::AggregatorServer server(scfg);
  server.set_listener(&listener);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(max_seconds);
  std::int64_t now = 0;
  std::size_t known_last = 0;
  bool done = false;
  while (!done) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "error: timed out after %.0f s with %zu/%d sensors\n",
                   max_seconds, server.aggregator().sensor_ids().size(),
                   expect);
      return 1;
    }
    ++now;
    server.Pump(now);
    auto& agg = server.aggregator();
    const auto ids = agg.sensor_ids();
    if (ids.size() > known_last) {
      for (std::size_t i = known_last; i < ids.size(); ++i) {
        std::printf("[listen] sensor %u connected\n", ids[i]);
      }
      known_last = ids.size();
    }
    // Done when every expected sensor has shown up, balanced its ledger,
    // and hung up (drained clients close their transport, the server reaps
    // the EOF'd connection).
    if (ids.size() >= static_cast<std::size_t>(expect) &&
        server.connections() == 0) {
      done = true;
      for (const auto id : ids) {
        const auto& st = agg.status(id);
        std::uint64_t lost = 0;
        for (const auto& r : st.lost_applied) lost += r.last - r.first + 1;
        if (st.frames_delivered + lost != st.cum_seq) done = false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  auto& agg = server.aggregator();
  for (const auto id : agg.sensor_ids()) {
    const auto& st = agg.status(id);
    std::uint64_t lost = 0;
    for (const auto& r : st.lost_applied) lost += r.last - r.first + 1;
    std::printf("[listen] sensor %u: ledger balanced (%llu frames, %llu "
                "declared lost)\n",
                id, static_cast<unsigned long long>(st.frames_delivered),
                static_cast<unsigned long long>(lost));
  }
  std::printf("[listen] fused %zu events from %zu sensors (%llu "
              "cross-sensor merges)\n",
              agg.fused().size(), agg.sensor_ids().size(),
              static_cast<unsigned long long>(agg.merges()));
  if (!metrics_path.empty()) {
    const std::string text = agg.FederatedExposition();
    if (metrics_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else {
      std::ofstream out(metrics_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     metrics_path.c_str());
        return 1;
      }
      out << text;
      std::printf("wrote federated metrics to %s\n", metrics_path.c_str());
    }
  }
  return 0;
}

// Sensor over real TCP: monitor the input, publish every classified event
// through a SensorSession, and let the SensorEndpoint ride the transport —
// reconnecting through the session's backoff when the aggregator side
// resets. Exits 0 only once the ledger is drained (every published frame
// acked or declared lost).
int RunTcpConnect(const dsp::SampleVec& x, const std::string& host,
                  std::uint16_t port, int sensor_id,
                  core::StreamingMonitor::Config mcfg, double max_seconds) {
  namespace net = rfdump::net;
  net::SensorSession::Config cfg;
  cfg.sensor_id = static_cast<std::uint16_t>(sensor_id);
  cfg.metrics_every_n_heartbeats = 1;  // federate local counters
  net::SensorSession session(cfg, static_cast<std::uint64_t>(sensor_id) + 1);
  auto& sys = net::Syscalls::Real();
  net::SensorEndpoint endpoint(
      session, [&sys, host, port](std::int64_t tick) {
        return net::TcpTransport::Dial(host, port, {}, sys, tick);
      });
  net::MonitorSensorSink sink(session);
  mcfg.sink = &sink;
  core::StreamingMonitor monitor(mcfg);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(max_seconds);
  std::int64_t now = 0;
  const auto pump = [&] {
    ++now;
    endpoint.Pump(now, now * 8000);
  };
  std::printf("[connect] sensor %d -> %s:%u\n", sensor_id, host.c_str(),
              port);
  rfdump::emu::FrontEnd frontend(x, {}, /*seed=*/1);
  while (!frontend.Done()) {
    const auto seg = frontend.NextSegment();
    if (!seg.samples.empty()) monitor.PushSegment(seg.start_sample, seg.samples);
    pump();
  }
  monitor.Flush();
  sink.Flush();
  while (session.unacked() != 0 ||
         session.state() != net::SensorSession::State::kConnected) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr,
                   "error: timed out after %.0f s with %zu frames unacked "
                   "(state %d)\n",
                   max_seconds, session.unacked(),
                   static_cast<int>(session.state()));
      return 1;
    }
    pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto& st = session.stats();
  std::printf("[connect] drained: %llu events in %llu frames (%llu "
              "retransmits, %llu reconnects, %llu dials, %llu ring drops)\n",
              static_cast<unsigned long long>(sink.events_published()),
              static_cast<unsigned long long>(st.frames_sent),
              static_cast<unsigned long long>(st.retransmits),
              static_cast<unsigned long long>(st.reconnects),
              static_cast<unsigned long long>(endpoint.stats().dials),
              static_cast<unsigned long long>(st.ring_overflow_drops));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string arch = "rfdump";
  std::string detectors = "both";
  bool demo = false, no_demod = false, stats = false, collisions = false;
  bool waterfall = false, impair = false, selftest = false;
  std::string corpus_root = "tests/corpus";
  std::string pcap_path;
  std::string metrics_path;
  std::string trace_path_out;
  std::string quarantine_dir;
  double noise_floor = 1.0;
  double budget = 0.0;
  double deadline = 0.0;
  std::uint32_t protocols_mask = 0;
  bool protocols_set = false;
  int threads = 1;
  int fleet_sensors = 0;
  bool fleet_status = false, fleet_status_json = false;
  std::string listen_hp, connect_hp, port_file;
  int sensor_id = 0, expect_sensors = 1;
  double max_seconds = 120.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-r" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--arch" && i + 1 < argc) {
      arch = argv[++i];
    } else if (arg == "--detectors" && i + 1 < argc) {
      detectors = argv[++i];
      if (detectors != "timing" && detectors != "phase" &&
          detectors != "both") {
        std::fprintf(stderr,
                     "error: --detectors: unknown family '%s' (want "
                     "timing|phase|both)\n",
                     detectors.c_str());
        return 2;
      }
    } else if (arg == "--protocols" && i + 1 < argc) {
      if (!ParseProtocolsFlag(argv[++i], &protocols_mask)) return 2;
      protocols_set = true;
    } else if (arg == "--simd" && i + 1 < argc) {
      const char* name = argv[++i];
      rfdump::dsp::simd::Tier tier;
      if (std::string(name) == "auto") {
        tier = rfdump::dsp::simd::DetectBestTier();
      } else if (!rfdump::dsp::simd::ParseTier(name, tier)) {
        std::fprintf(stderr,
                     "--simd: unknown tier '%s' (want scalar|sse2|avx2|auto)\n",
                     name);
        return 2;
      }
      if (!rfdump::dsp::simd::TierSupported(tier)) {
        std::fprintf(stderr, "--simd: tier '%s' not supported on this CPU\n",
                     name);
        return 2;
      }
      rfdump::dsp::simd::ForceTier(tier);
    } else if (arg == "--no-demod") {
      no_demod = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      long v = 0;
      if (!ParseIntFlag("--threads", argv[++i], 0, &v)) return 2;
      threads = static_cast<int>(std::min(v, 1024L));
    } else if (arg == "--collisions") {
      collisions = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--waterfall") {
      waterfall = true;
    } else if (arg == "--pcap" && i + 1 < argc) {
      pcap_path = argv[++i];
    } else if (arg == "--noise-floor" && i + 1 < argc) {
      if (!ParseDoubleFlag("--noise-floor", argv[++i], 1e-9, &noise_floor)) {
        return 2;
      }
    } else if (arg == "--impair") {
      impair = true;
    } else if (arg == "--budget" && i + 1 < argc) {
      if (!ParseDoubleFlag("--budget", argv[++i], 0.0, &budget)) return 2;
    } else if (arg == "--deadline" && i + 1 < argc) {
      if (!ParseDoubleFlag("--deadline", argv[++i], 0.0, &deadline)) return 2;
    } else if (arg == "--quarantine" && i + 1 < argc) {
      quarantine_dir = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path_out = argv[++i];
    } else if (arg == "--fleet" && i + 1 < argc) {
      long v = 0;
      if (!ParseIntFlag("--fleet", argv[++i], 2, &v)) return 2;
      fleet_sensors = static_cast<int>(std::min(v, 16L));
    } else if (arg == "--fleet-status") {
      fleet_status = true;
    } else if (arg == "--fleet-status=json") {
      fleet_status = true;
      fleet_status_json = true;
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_hp = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_hp = argv[++i];
    } else if (arg == "--sensor-id" && i + 1 < argc) {
      long v = 0;
      if (!ParseIntFlag("--sensor-id", argv[++i], 0, &v) || v > 65535) {
        if (v > 65535) {
          std::fprintf(stderr,
                       "error: --sensor-id expects an integer <= 65535\n");
        }
        return 2;
      }
      sensor_id = static_cast<int>(v);
    } else if (arg == "--expect" && i + 1 < argc) {
      long v = 0;
      if (!ParseIntFlag("--expect", argv[++i], 1, &v)) return 2;
      expect_sensors = static_cast<int>(std::min(v, 64L));
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--max-seconds" && i + 1 < argc) {
      if (!ParseDoubleFlag("--max-seconds", argv[++i], 1.0, &max_seconds)) {
        return 2;
      }
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_root = argv[++i];
    } else {
      PrintUsage(argv[0]);
      return arg == "--help" ? 0 : 2;
    }
  }
  if (selftest) return RunSelfTest(corpus_root);
  if (!listen_hp.empty() && !connect_hp.empty()) {
    std::fprintf(stderr, "error: --listen and --connect are mutually "
                         "exclusive (one role per process)\n");
    return 2;
  }
  if (!listen_hp.empty()) {
    if (fleet_sensors > 0 || impair) {
      std::fprintf(stderr, "error: --listen is its own mode; drop --fleet/"
                           "--impair\n");
      return 2;
    }
    std::string host;
    std::uint16_t port = 0;
    if (!ParseHostPort("--listen", listen_hp, &host, &port)) return 2;
    return RunTcpListen(host, port, expect_sensors, metrics_path, port_file,
                        max_seconds);
  }
  std::string connect_host;
  std::uint16_t connect_port = 0;
  if (!connect_hp.empty()) {
    if (!ParseHostPort("--connect", connect_hp, &connect_host, &connect_port)) {
      return 2;
    }
    if (connect_port == 0) {
      std::fprintf(stderr, "error: --connect needs a concrete port\n");
      return 2;
    }
    if (fleet_sensors > 0 || impair) {
      std::fprintf(stderr, "error: --connect is its own mode; drop --fleet/"
                           "--impair\n");
      return 2;
    }
  }
  if (trace_path.empty() && !demo) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (fleet_status && fleet_sensors == 0) {
    std::fprintf(stderr, "error: --fleet-status requires --fleet N\n");
    return 2;
  }
  if (fleet_sensors > 0 && (impair || arch != "rfdump")) {
    std::fprintf(stderr, "--fleet uses the rfdump streaming monitor\n");
    return 2;
  }
  if (!trace_path_out.empty()) {
    rfdump::obs::Tracer::Default().Enable();
  }

  dsp::SampleVec x;
  if (demo) {
    x = DemoEther();
    std::printf("[demo ether: 802.11b pings + bluetooth l2ping]\n");
  } else {
    try {
      x = rfdump::trace::ReadIqTrace(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::printf("monitoring %.3f s (%zu samples)\n\n",
              static_cast<double>(x.size()) / dsp::kSampleRateHz, x.size());

  if (threads == 0) {
    // Negative/garbage values were rejected at parse time; 0 means "auto".
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  // The rfdump pipeline of every mode that runs it (batch, --impair,
  // --fleet, --connect), from the detector, demodulation and protocol
  // flags. --protocols overrides the default bundle set: exactly the named
  // bundles.
  const auto rfdump_config = [&] {
    core::RFDumpPipeline::Config cfg;
    cfg.timing_detectors = (detectors != "phase");
    cfg.phase_detectors = (detectors != "timing");
    cfg.collision_detector = collisions;
    cfg.EnableBundle(core::Protocol::kMicrowave);
    cfg.noise_floor_power = noise_floor;
    cfg.analysis.demodulate = !no_demod;
    if (protocols_set) cfg.bundle_mask = protocols_mask;
    return cfg;
  };
  if (!connect_hp.empty() || fleet_sensors > 0) {
    core::StreamingMonitor::Config mcfg;
    mcfg.pipeline = rfdump_config();
    mcfg.block_samples = 400'000;
    mcfg.overlap_samples = 160'000;
    mcfg.threads = threads;
    if (!connect_hp.empty()) {
      return RunTcpConnect(x, connect_host, connect_port, sensor_id, mcfg,
                           max_seconds);
    }
    return RunFleet(x, fleet_sensors, mcfg, fleet_status, fleet_status_json,
                    metrics_path, trace_path_out);
  }
  // One executor for the whole run: Executor(1) is serial inline (no pool),
  // wider widths fan the analysis stage out per interval x protocol.
  core::Executor executor(threads);

  core::MonitorReport report;
  if (impair) {
    if (arch != "rfdump") {
      std::fprintf(stderr, "--impair uses the rfdump streaming monitor\n");
      return 2;
    }
    core::StreamingMonitor::Config mcfg;
    mcfg.pipeline = rfdump_config();
    mcfg.block_samples = 400'000;  // 50 ms blocks: visible health cadence
    mcfg.threads = threads;
    mcfg.cpu_budget = budget;
    mcfg.supervisor.demod_limits.max_cpu_seconds = deadline;
    report = MonitorImpaired(x, mcfg, metrics_path, quarantine_dir);
  } else if (arch == "naive" || arch == "energy") {
    core::NaivePipeline::Config cfg;
    cfg.energy_gate = (arch == "energy");
    cfg.noise_floor_power = noise_floor;
    cfg.analysis.demodulate = !no_demod;
    cfg.executor = &executor;
    if (protocols_set) cfg.bundle_mask = protocols_mask;
    report = core::NaivePipeline(cfg).Process(x);
  } else if (arch == "rfdump") {
    core::RFDumpPipeline::Config cfg = rfdump_config();
    cfg.executor = &executor;
    report = core::RFDumpPipeline(cfg).Process(x);
  } else {
    std::fprintf(stderr, "unknown --arch %s\n", arch.c_str());
    return 2;
  }
  if (waterfall) {
    const auto gram = rfdump::core::ComputeSpectrogram(x);
    std::printf("%s\n", rfdump::core::RenderAscii(gram).c_str());
  }
  PrintReport(report, stats);
  if (!pcap_path.empty()) {
    const auto n = rfdump::trace::WritePcap(pcap_path, report.events);
    std::printf("wrote %zu frames to %s (LINKTYPE_IEEE802_11)\n", n,
                pcap_path.c_str());
  }
  if (!metrics_path.empty() && !DumpMetrics(metrics_path)) return 1;
  if (!metrics_path.empty() && metrics_path != "-") {
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!trace_path_out.empty()) {
    auto& tracer = rfdump::obs::Tracer::Default();
    std::ofstream out(trace_path_out, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path_out.c_str());
      return 1;
    }
    out << tracer.ExportChromeJson();
    std::printf("wrote %llu spans to %s (chrome://tracing / Perfetto)\n",
                static_cast<unsigned long long>(tracer.recorded()),
                trace_path_out.c_str());
    tracer.Disable();
  }
  return 0;
}
