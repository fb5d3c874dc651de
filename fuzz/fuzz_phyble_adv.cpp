// libFuzzer entry point for the BLE advertising decoder.

#include <cstddef>
#include <cstdint>

#include "fuzz_target.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return RunFuzzTarget("phyble-adv", data, size);
}
