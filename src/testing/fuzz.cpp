#include "rfdump/testing/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "rfdump/core/fuzz_io.hpp"
#include "rfdump/core/protocol_registry.hpp"
#include "rfdump/net/messages.hpp"
#include "rfdump/net/wire.hpp"
#include "rfdump/obs/stopwatch.hpp"

namespace fs = std::filesystem;

namespace rfdump::testing {
namespace {

using net::FrameType;

/// Decodes a parsed frame's payload with the codec its type names; on
/// success re-encodes and re-decodes so every accepted input proves the
/// codec closed under its own round trip (an asymmetric codec throws out of
/// the fuzz run as a finding).
int DecodeFramePayload(FrameType type, std::span<const std::uint8_t> p) {
  const auto closed = [](bool reencoded_ok) {
    if (!reencoded_ok) {
      throw std::logic_error("message codec not closed under re-encode");
    }
  };
  switch (type) {
    case FrameType::kHello:
      if (const auto m = net::HelloMsg::Decode(p)) {
        closed(net::HelloMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kHeartbeat:
      if (const auto m = net::HeartbeatMsg::Decode(p)) {
        closed(net::HeartbeatMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kAck:
      if (const auto m = net::AckMsg::Decode(p)) {
        closed(net::AckMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kMetrics:
      if (const auto m = net::MetricsMsg::Decode(p)) {
        closed(net::MetricsMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kEventBatch:
      if (const auto m = net::EventBatchMsg::Decode(p)) {
        closed(net::EventBatchMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kHealth:
      if (const auto m = net::HealthMsg::Decode(p)) {
        closed(net::HealthMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
    case FrameType::kGapReport:
      if (const auto m = net::GapReportMsg::Decode(p)) {
        closed(net::GapReportMsg::Decode(m->Encode()).has_value());
        return 1;
      }
      return 0;
  }
  return 0;
}

int RunNetFrameInput(std::span<const std::uint8_t> payload,
                     std::uint8_t mode) {
  int decodes = 0;
  switch (mode % 3) {
    case 0:
    case 1: {
      // One-shot parse, then (mode 1 only acts differently in chunk sizes;
      // both modes run the differential) the same bytes again in small
      // chunks. An incremental parser must not care where the stream is
      // cut, so any divergence in stats is a real resync bug.
      net::FrameParser whole;
      whole.Feed(payload, [&](net::Frame&& f) {
        decodes += DecodeFramePayload(f.header.type, f.payload);
      });
      net::FrameParser chunked;
      static constexpr std::size_t kChunks[] = {1, 2, 3, 5, 7, 16};
      std::size_t off = 0, k = mode / 3;
      while (off < payload.size()) {
        const std::size_t n =
            std::min(kChunks[k++ % std::size(kChunks)], payload.size() - off);
        chunked.Feed(payload.subspan(off, n), [](net::Frame&&) {});
        off += n;
      }
      const auto& a = whole.stats();
      const auto& b = chunked.stats();
      if (a.frames_ok != b.frames_ok ||
          a.bad_magic_bytes != b.bad_magic_bytes ||
          a.bad_version != b.bad_version || a.bad_type != b.bad_type ||
          a.bad_length != b.bad_length ||
          a.bad_header_checksum != b.bad_header_checksum ||
          a.bad_crc != b.bad_crc ||
          whole.pending_bytes() != chunked.pending_bytes()) {
        throw std::logic_error("chunked vs one-shot frame parse diverged");
      }
      break;
    }
    default: {
      // Straight at the codecs, no CRC gate in the way: the first byte
      // picks the message type, the rest is its payload.
      if (payload.empty()) break;
      static constexpr FrameType kTypes[] = {
          FrameType::kHello,     FrameType::kHeartbeat, FrameType::kAck,
          FrameType::kMetrics,   FrameType::kEventBatch,
          FrameType::kHealth,    FrameType::kGapReport};
      decodes += DecodeFramePayload(kTypes[payload[0] % std::size(kTypes)],
                                    payload.subspan(1));
      break;
    }
  }
  return decodes;
}

std::vector<std::uint8_t> NetFrameSeedInput(std::size_t i,
                                            util::Xoshiro256& rng) {
  // Builds one random-but-valid message; `pick % 7` matches the
  // selector order RunNetFrameInput's raw-codec mode uses.
  const auto random_message = [&rng](std::size_t pick)
      -> std::pair<FrameType, std::vector<std::uint8_t>> {
    switch (pick % 7) {
      case 0: {
        net::HelloMsg m;
        m.epoch = static_cast<std::uint32_t>(rng.UniformInt(0, 1000));
        m.local_time = static_cast<std::int64_t>(rng.UniformInt(0, 1u << 20));
        return {FrameType::kHello, m.Encode()};
      }
      case 1: {
        net::HeartbeatMsg m;
        m.local_time = static_cast<std::int64_t>(rng.UniformInt(0, 1u << 20));
        m.frames_sent = rng.UniformInt(0, 4096);
        return {FrameType::kHeartbeat, m.Encode()};
      }
      case 2: {
        net::AckMsg m;
        m.cum_seq = static_cast<std::uint32_t>(rng.UniformInt(0, 4096));
        m.epoch = static_cast<std::uint32_t>(rng.UniformInt(0, 16));
        return {FrameType::kAck, m.Encode()};
      }
      case 3: {
        net::MetricsMsg m;
        m.snapshot_id = static_cast<std::uint32_t>(rng.UniformInt(0, 1024));
        m.full = static_cast<std::uint8_t>(rng.UniformInt(0, 1));
        const std::size_t n = rng.UniformInt(0, 12);
        for (std::size_t k = 0; k < n; ++k) {
          net::MetricEntry e;
          e.name = std::string(1 + rng.UniformInt(0, 48),
                               static_cast<char>('a' + k % 26));
          e.kind = static_cast<std::uint8_t>(k % 2);
          e.value = static_cast<double>(rng.UniformInt(0, 1u << 20));
          m.entries.push_back(std::move(e));
        }
        return {FrameType::kMetrics, m.Encode()};
      }
      case 4: {
        net::EventBatchMsg m;
        m.block_start = static_cast<std::int64_t>(rng.UniformInt(0, 1u << 20));
        const std::size_t n = rng.UniformInt(0, 6);
        for (std::size_t k = 0; k < n; ++k) {
          net::EventRecord e;
          e.protocol = core::Protocol::kWifi80211b;
          e.start_sample = m.block_start + static_cast<std::int64_t>(k) * 1000;
          e.end_sample = e.start_sample + 500;
          e.payload_bytes =
              static_cast<std::uint32_t>(rng.UniformInt(0, 2000));
          e.crc_ok = rng.UniformInt(0, 1) == 1;
          e.payload_digest = rng.UniformInt(0, 1u << 30);
          m.events.push_back(e);
        }
        return {FrameType::kEventBatch, m.Encode()};
      }
      case 5: {
        net::HealthMsg m;
        m.report.block_start =
            static_cast<std::int64_t>(rng.UniformInt(0, 1u << 20));
        m.report.block_samples = rng.UniformInt(0, 1u << 18);
        m.report.gap_count = static_cast<std::uint32_t>(rng.UniformInt(0, 16));
        m.report.tagged_detections = rng.UniformInt(0, 4096);
        return {FrameType::kHealth, m.Encode()};
      }
      default: {
        net::GapReportMsg m;
        const std::size_t n = 1 + rng.UniformInt(0, 7);
        std::uint32_t lo = 1;
        for (std::size_t k = 0; k < n; ++k) {
          const auto span32 =
              static_cast<std::uint32_t>(rng.UniformInt(0, 30));
          m.lost.push_back({lo, lo + span32});
          lo += span32 + 2 +
                static_cast<std::uint32_t>(rng.UniformInt(0, 100));
        }
        return {FrameType::kGapReport, m.Encode()};
      }
    }
  };
  switch (i % 5) {
    case 0:
    case 1: {  // framed stream (mode 0/1); odd ones mutated -> resync
      std::vector<std::uint8_t> data{static_cast<std::uint8_t>(i % 2)};
      const std::size_t nframes = 1 + rng.UniformInt(0, 2);
      for (std::size_t f = 0; f < nframes; ++f) {
        auto [type, payload] = random_message(rng.UniformInt(0, 6));
        net::FrameHeader h;
        h.type = type;
        h.sensor_id = static_cast<std::uint16_t>(rng.UniformInt(0, 7));
        h.seq = net::IsDataFrame(type)
                    ? static_cast<std::uint32_t>(1 + rng.UniformInt(0, 1000))
                    : 0;
        const auto frame = net::EncodeFrame(h, payload);
        data.insert(data.end(), frame.begin(), frame.end());
      }
      if (i % 2 == 1) core::FuzzMutateInput(data, rng);
      return data;
    }
    case 2: {  // metrics-heavy frame, incl. the name-length boundary
      net::MetricsMsg m;
      m.snapshot_id = static_cast<std::uint32_t>(i);
      m.full = 1;
      const std::size_t name_len = (i % 3 == 0) ? net::kMaxMetricNameBytes
                                                : 1 + rng.UniformInt(0, 64);
      const std::size_t n = 1 + rng.UniformInt(0, 15);
      for (std::size_t k = 0; k < n; ++k) {
        net::MetricEntry e;
        e.name = std::string(name_len, static_cast<char>('a' + k % 26));
        e.kind = static_cast<std::uint8_t>(k % 2);
        e.value = static_cast<double>(rng.UniformInt(0, 1u << 20));
        m.entries.push_back(std::move(e));
      }
      net::FrameHeader h;
      h.type = FrameType::kMetrics;
      const auto frame = net::EncodeFrame(h, m.Encode());
      std::vector<std::uint8_t> data{0};
      data.insert(data.end(), frame.begin(), frame.end());
      return data;
    }
    case 3: {  // raw codec payload (mode 2), half of them mutated
      const std::size_t pick = rng.UniformInt(0, 6);
      auto [type, payload] = random_message(pick);
      (void)type;
      std::vector<std::uint8_t> data{2, static_cast<std::uint8_t>(pick)};
      data.insert(data.end(), payload.begin(), payload.end());
      if (rng.UniformInt(0, 1) == 1) core::FuzzMutateInput(data, rng);
      return data;
    }
    default: {  // random bytes, random mode
      std::vector<std::uint8_t> data{
          static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
      const std::size_t n = rng.UniformInt(0, 512);
      for (std::size_t k = 0; k < n; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng.UniformInt(0, 255)));
      }
      return data;
    }
  }
}

/// The one fuzz target that is not a protocol bundle: the sensor-fleet wire
/// protocol lives in net/, above the protocol layer.
FuzzTargetRef NetFrameTargetRef() {
  FuzzTargetRef ref;
  ref.name = "net-frame";
  ref.corpus_dir = "net_frame";
  ref.run = [](std::span<const std::uint8_t> data, util::WorkBudget* budget) {
    (void)budget;  // byte-stream parsing is linear; no deadline hook
    if (data.empty()) return 0;
    return RunNetFrameInput(data.subspan(1), data[0]);
  };
  ref.seed_input = NetFrameSeedInput;
  return ref;
}

FuzzTargetRef RefFromBundle(const core::ProtocolBundle& bundle) {
  FuzzTargetRef ref;
  ref.name = bundle.fuzz_name;
  ref.corpus_dir = bundle.fuzz_corpus_dir;
  ref.run = bundle.fuzz_run;
  ref.seed_input = bundle.fuzz_seed_input;
  return ref;
}

void WriteFile(const fs::path& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

}  // namespace

std::vector<FuzzTargetRef> EnumerateFuzzTargets() {
  std::vector<FuzzTargetRef> out;
  for (const auto& bundle : core::ProtocolRegistry::Instance().bundles()) {
    if (bundle.fuzz_name == nullptr || !bundle.fuzz_run ||
        !bundle.fuzz_seed_input) {
      continue;
    }
    out.push_back(RefFromBundle(bundle));
  }
  out.push_back(NetFrameTargetRef());
  return out;
}

void MutateInput(std::vector<std::uint8_t>& data, util::Xoshiro256& rng) {
  core::FuzzMutateInput(data, rng);
}

std::size_t WriteSeedCorpus(const FuzzTargetRef& ref, const std::string& dir,
                            std::size_t count, std::uint64_t seed) {
  fs::create_directories(dir);
  std::size_t written = 0;
  const auto emit = [&](std::vector<std::uint8_t> data) {
    char name[64];
    std::snprintf(name, sizeof(name), "seed-%04zu-%016llx.bin", written,
                  static_cast<unsigned long long>(core::FuzzFnv1a(data)));
    WriteFile(fs::path(dir) / name, data);
    ++written;
  };
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; written < count; ++i) {
    emit(ref.seed_input(i, rng));
  }
  return written;
}

std::string CorpusRunner::Result::Summary(
    const std::string& target_name) const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu inputs, %zu decodes, %zu budget expiries, %zu "
                "findings\n",
                target_name.c_str(), inputs_run, decodes, budget_expiries,
                findings.size());
  std::string out = buf;
  for (const auto& f : findings) {
    out += "  " + f.kind + " on " + f.input_name + ": " + f.detail;
    if (!f.repro_path.empty()) out += " (repro: " + f.repro_path + ")";
    out += "\n";
  }
  return out;
}

void CorpusRunner::RunOne(const FuzzTargetRef& ref,
                          std::span<const std::uint8_t> data,
                          const std::string& input_name, Result& result) {
  util::WorkBudget budget;
  budget.Arm(config_.limits);
  ++result.inputs_run;

  const auto record = [&](const char* kind, std::string detail) {
    Finding f;
    f.target_name = ref.name;
    f.kind = kind;
    f.input_name = input_name;
    f.detail = std::move(detail);
    if (!config_.repro_dir.empty()) {
      fs::create_directories(config_.repro_dir);
      char name[96];
      std::snprintf(name, sizeof(name), "%s-%s-%016llx.bin",
                    ref.corpus_dir.c_str(), kind,
                    static_cast<unsigned long long>(core::FuzzFnv1a(data)));
      const fs::path path = fs::path(config_.repro_dir) / name;
      WriteFile(path, data);
      f.repro_path = path.string();
    }
    result.findings.push_back(std::move(f));
  };

  const obs::Stopwatch watch;
  try {
    result.decodes +=
        static_cast<std::size_t>(std::max(0, ref.run(data, &budget)));
  } catch (const std::exception& e) {
    record("crash", e.what());
  } catch (...) {
    record("crash", "non-std exception");
  }
  const double elapsed = watch.Seconds();
  if (budget.expired()) ++result.budget_expiries;
  if (elapsed > config_.hang_wall_seconds) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f s wall (limit %.2f)", elapsed,
                  config_.hang_wall_seconds);
    record("hang", buf);
  }
}

CorpusRunner::Result CorpusRunner::RunDirectory(
    const FuzzTargetRef& ref, const std::string& corpus_dir) {
  Result result;
  std::vector<fs::path> files;
  if (fs::exists(corpus_dir)) {
    for (const auto& entry : fs::directory_iterator(corpus_dir)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    RunOne(ref, data, path.filename().string(), result);

    // Deterministic mutation rounds: the mutant is identified by the source
    // file, round index, and master seed, so any finding is reproducible.
    util::Xoshiro256 rng(config_.seed ^ core::FuzzFnv1a(data));
    std::vector<std::uint8_t> mutant = data;
    for (int round = 0; round < config_.mutation_rounds; ++round) {
      core::FuzzMutateInput(mutant, rng);
      RunOne(ref, mutant,
             path.filename().string() + "+round" + std::to_string(round),
             result);
    }
  }
  return result;
}

}  // namespace rfdump::testing
