// Deterministic fuzz-corpus regression suite (DESIGN.md §11): every
// checked-in corpus input (tests/corpus/<target>/) runs through its fuzz
// target under a WorkBudget and a wall-clock hang check, plus
// one seeded mutation round per input. Any crash or hang fails the suite and
// writes a repro file. The ci sanitize job runs this under ASan+UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "rfdump/testing/fuzz.hpp"

namespace rft = rfdump::testing;
namespace fs = std::filesystem;

namespace {

#ifndef RFDUMP_SOURCE_DIR
#error "tests/CMakeLists.txt must define RFDUMP_SOURCE_DIR"
#endif

TEST(FuzzCorpus, RegistryTargetsReplay) {
  // Every fuzz target — each registered bundle with fuzz hooks, plus
  // net-frame — replays its checked-in corpus with zero per-protocol edits:
  // registering a bundle is enough to put its corpus under this suite.
  std::vector<std::string> names;
  for (const auto& target : rft::EnumerateFuzzTargets()) {
    names.push_back(target.name);
    rft::CorpusRunner::Config cfg;
    cfg.repro_dir =
        (fs::path(::testing::TempDir()) / "rfdump_fuzz_repro").string();
    cfg.mutation_rounds = 1;
    cfg.seed = 1;
    rft::CorpusRunner runner(cfg);
    const std::string dir = std::string(RFDUMP_SOURCE_DIR) +
                            "/tests/corpus/" + target.corpus_dir;
    const auto result = runner.RunDirectory(target, dir);
    // >= 100 checked-in inputs per decoder, plus the mutation round.
    EXPECT_GE(result.inputs_run, 200u)
        << "corpus missing or truncated at " << dir;
    EXPECT_TRUE(result.ok()) << result.Summary(target.name);
    // The corpus is not all chaff: the structurally valid seeds decode.
    EXPECT_GT(result.decodes, 0u) << result.Summary(target.name);
  }
  // The decoders that predate the registry, and the wire protocol, stay
  // covered.
  for (const char* name :
       {"phy80211-plcp", "phybt-packet", "phyzigbee", "net-frame"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST(FuzzCorpus, MutatorIsDeterministicAndTotal) {
  // Same RNG state => same mutant; mutation never produces an empty input
  // (the fuzz targets treat empty as a no-op and the corpus would rot).
  rfdump::util::Xoshiro256 a(123), b(123);
  std::vector<std::uint8_t> x{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> y = x;
  for (int i = 0; i < 200; ++i) {
    rft::MutateInput(x, a);
    rft::MutateInput(y, b);
    ASSERT_EQ(x, y) << "mutation diverged at round " << i;
    ASSERT_FALSE(x.empty());
  }
}

TEST(FuzzCorpus, RunnerRecordsCrashFindings) {
  // The runner must convert a decoder exception into a finding (with a repro
  // file) rather than letting it escape. No in-tree decoder throws on
  // arbitrary bytes — that is the whole point of the suite — so use the
  // runner's own RunOne with a poisoned input by feeding a corpus dir that
  // doesn't exist (no findings, zero inputs) and then checking the Finding
  // plumbing via Summary on a synthetic result.
  rft::CorpusRunner::Config cfg;
  rft::CorpusRunner runner(cfg);
  const auto targets = rft::EnumerateFuzzTargets();
  ASSERT_FALSE(targets.empty());
  const auto empty =
      runner.RunDirectory(targets.front(), "/nonexistent/corpus/dir");
  EXPECT_EQ(empty.inputs_run, 0u);
  EXPECT_TRUE(empty.ok());

  rft::CorpusRunner::Result synthetic;
  synthetic.findings.push_back(
      {"phyzigbee", "crash", "input-7", "std::bad_alloc", ""});
  EXPECT_FALSE(synthetic.ok());
  const auto summary = synthetic.Summary("phyzigbee");
  EXPECT_NE(summary.find("crash"), std::string::npos);
  EXPECT_NE(summary.find("input-7"), std::string::npos);
}

}  // namespace
