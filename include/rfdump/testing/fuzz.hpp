#pragma once
// Deterministic decoder fuzzing (DESIGN.md §11).
//
// The decoders are the part of the pipeline that parses attacker-controlled
// bits (the paper's monitor watches *other people's* transmissions), so they
// get a dedicated mutation-based fuzz harness. The per-protocol targets are
// not hand-listed here: every core::ProtocolBundle that registers fuzz hooks
// (phy80211-plcp, phybt-packet, phyzigbee, phyble-adv, ...) is enumerated
// via EnumerateFuzzTargets(), plus one testing-layer target:
//
//   * net-frame — net::FrameParser on raw byte streams (one-shot and a
//     chunked-feed differential that must parse identically), plus every
//     net message codec (incl. kMetrics) on frame payloads and raw bytes
//
// The fuzz/ executables look their target up by name and wrap its `run`
// hook in `LLVMFuzzerTestOneInput` for libFuzzer (clang builds only), and
// the in-tree `CorpusRunner` drives it over the checked-in corpus plus
// deterministic mutations with no external dependency. Everything is seeded:
// a failing corpus run names the input file (or the master seed + round that
// mutated it), and re-running reproduces the failure bit-for-bit.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rfdump/util/rng.hpp"
#include "rfdump/util/work_budget.hpp"

namespace rfdump::testing {

/// One enumerable fuzz target: a protocol bundle's fuzz hooks, or the
/// testing-layer net-frame target.
struct FuzzTargetRef {
  std::string name;        // e.g. "phyble-adv"
  std::string corpus_dir;  // subdirectory under tests/corpus/
  /// Runs one fuzz input through the target decoder(s). The first byte
  /// selects the sub-mode (bit-level parser vs full sample-level
  /// demodulator); the rest is the payload, interpreted as descrambled bits
  /// or as interleaved signed I/Q bytes. Returns the number of successful
  /// decodes (corpus health statistic). Decoder exceptions propagate — the
  /// corpus runner records them as findings; under libFuzzer they abort.
  /// The budget, when non-null, is armed by the caller; the decoders charge
  /// against it exactly as they do under the supervisor, so fuzzing
  /// exercises the cooperative-deadline paths too.
  std::function<int(std::span<const std::uint8_t>, util::WorkBudget*)> run;
  /// Generates the i-th seed-corpus input.
  std::function<std::vector<std::uint8_t>(std::size_t, util::Xoshiro256&)>
      seed_input;
};

/// Every fuzz target: registry bundles with fuzz hooks in ascending
/// protocol-id order, then the net-frame target. Adding a protocol bundle
/// with fuzz hooks extends this list with zero edits here.
[[nodiscard]] std::vector<FuzzTargetRef> EnumerateFuzzTargets();

/// Applies one seeded mutation (bit flip, byte splat, truncate, duplicate,
/// insert, chunk swap) in place. Deterministic given the RNG state.
/// (Forwards to core::FuzzMutateInput, which bundle TUs use directly.)
void MutateInput(std::vector<std::uint8_t>& data, util::Xoshiro256& rng);

/// Writes the deterministic seed corpus for `ref` into `dir` (created if
/// missing): structurally valid inputs (real PLCP headers, real Bluetooth
/// packet bits, real modulated frames) plus seeded mutations and boundary
/// cases. Returns the number of files written (>= `count`). Regeneration
/// with the same seed is bit-identical, so the checked-in corpus under
/// tests/corpus/ can always be rebuilt (see README).
std::size_t WriteSeedCorpus(const FuzzTargetRef& ref, const std::string& dir,
                            std::size_t count = 100, std::uint64_t seed = 1);

/// In-tree corpus runner: executes every file in a corpus directory (plus
/// optional mutation rounds) under a WorkBudget and a wall-clock hang check.
class CorpusRunner {
 public:
  struct Config {
    /// Per-input cooperative budget; keeps adversarial inputs from running
    /// unbounded inside the decoders (the same mechanism the supervisor
    /// uses in production).
    util::WorkBudget::Limits limits{.max_samples = 64u << 20,
                                    .max_cpu_seconds = 2.0};
    /// Wall-clock ceiling per input; an input that exceeds it *despite* the
    /// budget is recorded as a hang finding.
    double hang_wall_seconds = 5.0;
    /// Where crash/hang repro inputs are written (created on first finding).
    /// Empty = don't write repro files.
    std::string repro_dir;
    /// Extra seeded mutation rounds per corpus input (0 = corpus only).
    int mutation_rounds = 0;
    /// Master seed for the mutation rounds.
    std::uint64_t seed = 1;
  };

  /// One crash or hang, with enough context to reproduce it.
  struct Finding {
    std::string target_name; // FuzzTargetRef::name
    std::string kind;        // "crash" | "hang"
    std::string input_name;  // corpus file, or "<file>+round<k>" for mutants
    std::string detail;      // exception what() or elapsed wall time
    std::string repro_path;  // written repro file ("" if repro_dir unset)
  };

  struct Result {
    std::size_t inputs_run = 0;
    std::size_t decodes = 0;          // successful decodes across all inputs
    std::size_t budget_expiries = 0;  // inputs contained by the WorkBudget
    std::vector<Finding> findings;

    [[nodiscard]] bool ok() const { return findings.empty(); }
    [[nodiscard]] std::string Summary(const std::string& target_name) const;
  };

  explicit CorpusRunner(Config config) : config_(std::move(config)) {}

  /// Runs every regular file in `corpus_dir` (sorted by name, so runs are
  /// order-deterministic), then `config.mutation_rounds` mutants of each.
  [[nodiscard]] Result RunDirectory(const FuzzTargetRef& ref,
                                    const std::string& corpus_dir);

  /// Runs a single in-memory input (used by RunDirectory and by tests).
  void RunOne(const FuzzTargetRef& ref, std::span<const std::uint8_t> data,
              const std::string& input_name, Result& result);

 private:
  Config config_;
};

}  // namespace rfdump::testing
