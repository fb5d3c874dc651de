#pragma once
// Thread-local scratch arena for hot-path work buffers.
//
// The demodulators (the per-channel BT/BLE scans, the 802.11 resampler, the
// ZigBee receiver) need short-lived vectors (channelized samples, the GFSK
// channel's power track, discriminator output) on every call; allocating
// them per call dominated the malloc profile. A scratch buffer is keyed by
// (element type, tag type) and lives for the thread, so steady-state
// processing reuses one allocation per buffer.
//
// Rules: a caller must finish with a buffer before anything else that could
// use the same key runs on this thread (no reentrancy, no holding across
// calls into unknown code that might share the tag). Stateless pipeline
// objects stay safe under concurrent use because each thread gets its own
// arena.

#include <vector>

namespace rfdump::util {

/// The reusable thread-local buffer for key (T, Tag). Contents are
/// unspecified on entry; size/clear it before use.
template <class T, class Tag>
[[nodiscard]] std::vector<T>& Scratch() {
  thread_local std::vector<T> buf;
  return buf;
}

}  // namespace rfdump::util
