#include "rfdump/trace/pcap.hpp"

#include <fstream>
#include <stdexcept>

namespace rfdump::trace {
namespace {

constexpr std::uint32_t kMagic = 0xA1B2C3D4;  // microsecond timestamps

template <typename T>
void Put(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T Get(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("pcap: truncated file");
  return v;
}

}  // namespace

std::size_t WritePcap(const std::string& path,
                      std::span<const core::ProtocolEvent> events,
                      double sample_rate_hz) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("pcap: cannot open " + path);
  // Global header.
  Put<std::uint32_t>(out, kMagic);
  Put<std::uint16_t>(out, 2);   // version major
  Put<std::uint16_t>(out, 4);   // version minor
  Put<std::int32_t>(out, 0);    // thiszone
  Put<std::uint32_t>(out, 0);   // sigfigs
  Put<std::uint32_t>(out, 65535);  // snaplen
  Put<std::uint32_t>(out, kLinkType80211);

  std::size_t written = 0;
  for (const auto& e : events) {
    if (e.protocol != core::Protocol::kWifi80211b || e.payload.empty()) {
      continue;
    }
    const double t =
        static_cast<double>(e.start_sample) / sample_rate_hz;
    const auto sec = static_cast<std::uint32_t>(t);
    const auto usec = static_cast<std::uint32_t>((t - sec) * 1e6);
    Put<std::uint32_t>(out, sec);
    Put<std::uint32_t>(out, usec);
    Put<std::uint32_t>(out, static_cast<std::uint32_t>(e.payload.size()));
    Put<std::uint32_t>(out, static_cast<std::uint32_t>(e.payload.size()));
    out.write(reinterpret_cast<const char*>(e.payload.data()),
              static_cast<std::streamsize>(e.payload.size()));
    ++written;
  }
  if (!out) throw std::runtime_error("pcap: write failed for " + path);
  return written;
}

std::vector<PcapRecord> ReadPcap(const std::string& path,
                                 std::uint32_t* linktype_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open " + path);
  if (Get<std::uint32_t>(in) != kMagic) {
    throw std::runtime_error("pcap: bad magic in " + path);
  }
  (void)Get<std::uint16_t>(in);  // version major
  (void)Get<std::uint16_t>(in);  // version minor
  (void)Get<std::int32_t>(in);
  (void)Get<std::uint32_t>(in);
  (void)Get<std::uint32_t>(in);
  const auto linktype = Get<std::uint32_t>(in);
  if (linktype_out) *linktype_out = linktype;

  std::vector<PcapRecord> records;
  while (in.peek() != std::ifstream::traits_type::eof()) {
    PcapRecord r;
    const auto sec = Get<std::uint32_t>(in);
    const auto usec = Get<std::uint32_t>(in);
    r.timestamp_us = static_cast<std::uint64_t>(sec) * 1'000'000ull + usec;
    const auto incl = Get<std::uint32_t>(in);
    (void)Get<std::uint32_t>(in);  // orig_len
    if (incl > (1u << 20)) throw std::runtime_error("pcap: bogus record");
    r.bytes.resize(incl);
    in.read(reinterpret_cast<char*>(r.bytes.data()), incl);
    if (!in) throw std::runtime_error("pcap: truncated record");
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace rfdump::trace
