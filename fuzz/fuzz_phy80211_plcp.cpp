// libFuzzer entry point for the 802.11b PLCP parser + DSSS demodulator.

#include <cstddef>
#include <cstdint>

#include "fuzz_target.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return RunFuzzTarget("phy80211-plcp", data, size);
}
