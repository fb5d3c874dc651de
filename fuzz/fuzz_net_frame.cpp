// libFuzzer entry point for the net frame parser + message codecs: FrameParser
// resync (with a chunked-feed differential) and every message Decode,
// kMetrics included.

#include <cstddef>
#include <cstdint>

#include "fuzz_target.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return RunFuzzTarget("net-frame", data, size);
}
