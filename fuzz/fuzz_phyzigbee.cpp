// libFuzzer entry point for the ZigBee O-QPSK frame decoder.

#include <cstddef>
#include <cstdint>

#include "fuzz_target.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return RunFuzzTarget("phyzigbee", data, size);
}
