#include "rfdump/net/transport.hpp"

namespace rfdump::net {

bool LinkTransport::Send(std::span<const std::uint8_t> frame) {
  if (closed_) {
    ++stats_.send_rejects;
    return false;
  }
  ++stats_.frames_accepted;
  stats_.bytes_sent += frame.size();
  tx_.Send(std::vector<std::uint8_t>(frame.begin(), frame.end()));
  return true;
}

void LinkTransport::Poll(std::int64_t tick,
                         std::vector<std::uint8_t>& received) {
  if (closed_) return;
  for (const auto& frame : rx_.Advance(tick)) {
    stats_.bytes_received += frame.size();
    received.insert(received.end(), frame.begin(), frame.end());
  }
}

}  // namespace rfdump::net
