// libFuzzer entry point for the Bluetooth sync-word/packet parsers + GFSK
// demodulator.

#include <cstddef>
#include <cstdint>

#include "fuzz_target.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return RunFuzzTarget("phybt-packet", data, size);
}
