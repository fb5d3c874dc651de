#pragma once
// Shared body of the libFuzzer entry points (clang only; see
// fuzz/CMakeLists.txt): runs one input through the fuzz target of that name
// from testing::EnumerateFuzzTargets() — the same hook the in-tree corpus
// runner drives — under a cooperative budget, so slow-but-terminating
// inputs don't trip libFuzzer's timeout; true hangs (budget ignored) still
// will.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "rfdump/testing/fuzz.hpp"
#include "rfdump/util/work_budget.hpp"

inline int RunFuzzTarget(std::string_view name, const std::uint8_t* data,
                         std::size_t size) {
  static const rfdump::testing::FuzzTargetRef target = [name] {
    for (auto& t : rfdump::testing::EnumerateFuzzTargets()) {
      if (t.name == name) return t;
    }
    std::abort();  // a renamed target must fail loudly, not fuzz nothing
  }();
  rfdump::util::WorkBudget budget;
  budget.Arm({.max_samples = 64u << 20, .max_cpu_seconds = 2.0});
  (void)target.run({data, size}, &budget);
  return 0;
}
