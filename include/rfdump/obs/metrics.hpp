#pragma once
// Low-overhead metrics registry: named counters, gauges and fixed-bucket
// histograms with a Prometheus-style text exposition dump.
//
// Hot-path contract: call sites resolve a metric ONCE (function-local static
// reference — GetCounter() takes a registry mutex, the returned reference is
// stable for the process lifetime) and then mutate it with a single relaxed
// atomic op per event; an event that fires per candidate inside an analysis
// unit is counted in a local Tally and published once per scan. Reads
// (Snapshot / ExpositionText) are lock-protected
// and may run concurrently with writers; they see values that are each
// individually coherent (snapshot-on-read, no cross-metric consistency).
//
// Naming convention (DESIGN.md §8): `rfdump_<subsystem>_<name>`, counters end
// in `_total`; an optional label set is embedded in the registered name
// (`rfdump_dispatch_tagged_total{protocol="802.11b"}`).
//
// Compile-time escape hatch: configure with -DRFDUMP_OBS=OFF and every
// mutation below compiles to an empty inline function; the registry hands
// out shared dummy metrics and registers nothing.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef RFDUMP_OBS_ENABLED
#define RFDUMP_OBS_ENABLED 1
#endif

namespace rfdump::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) noexcept {
#if RFDUMP_OBS_ENABLED
    v_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void Reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A per-scan count of a hot-loop event, published to its counter with one
/// Inc(n) when the tally leaves scope, whichever way the scope exits. Keeps
/// concurrent scans off the counter's shared cache line (DESIGN.md §8).
class Tally {
 public:
  explicit Tally(Counter& counter) noexcept : counter_(counter) {}
  Tally(const Tally&) = delete;
  Tally& operator=(const Tally&) = delete;
  ~Tally() { counter_.Inc(n_); }

  void Inc() noexcept { ++n_; }

 private:
  Counter& counter_;
  std::uint64_t n_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) noexcept {
#if RFDUMP_OBS_ENABLED
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void Add(double d) noexcept {
#if RFDUMP_OBS_ENABLED
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
#else
    (void)d;
#endif
  }

  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  void Reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. Bucket bounds are upper edges (Prometheus `le`);
/// an implicit +Inf bucket catches the rest. Observe() is one linear scan of
/// a handful of bounds plus two relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> bounds;         // upper edges, ascending
    std::vector<std::uint64_t> counts;  // per-bucket (bounds.size() + 1)
    std::uint64_t count = 0;            // total observations
    double sum = 0.0;                   // sum of observed values

    /// Prometheus-style quantile estimate (q in [0, 1]): find the bucket
    /// holding the q-th observation and interpolate linearly inside it.
    /// Returns the highest finite bound when the rank lands in the +Inf
    /// bucket, and NaN when the histogram is empty.
    [[nodiscard]] double Quantile(double q) const;
  };
  [[nodiscard]] Snapshot GetSnapshot() const;

  void Reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Scalar-metric kind tag, stable on the wire (net/messages.hpp MetricsMsg).
enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1 };

/// One scalar metric value captured by Registry::SnapshotValues() or
/// received via metrics federation. Counters travel as doubles too — exact
/// up to 2^53 events, far past any session lifetime here.
struct MetricValue {
  std::string name;  // registered name, possibly with embedded labels
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  bool operator==(const MetricValue&) const = default;
};

/// Process-wide named-metric registry.
class Registry {
 public:
  /// The default (and normally only) registry.
  static Registry& Default();

  /// Finds or creates; the reference is stable for the process lifetime.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` are the upper bucket edges, ascending; they are fixed on first
  /// registration (later calls with the same name ignore `bounds`).
  Histogram& GetHistogram(const std::string& name, std::vector<double> bounds);

  /// Prometheus text exposition of every registered metric (sorted by name,
  /// one `# TYPE` line per metric family).
  [[nodiscard]] std::string ExpositionText() const;

  /// Current value of a registered counter (0 if absent) — test/summary aid.
  [[nodiscard]] std::uint64_t CounterValue(const std::string& name) const;

  /// Name-sorted snapshot of every counter and gauge (histograms are not
  /// federated in v1 — DESIGN.md §13). Feeds MetricsMsg; naturally empty
  /// under RFDUMP_OBS=OFF since the disabled registry registers nothing.
  [[nodiscard]] std::vector<MetricValue> SnapshotValues() const;

  /// Zeroes every registered metric's value (registrations persist). Used by
  /// tests and the overhead bench; not meant for the hot path.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
[[nodiscard]] std::string EscapeLabelValue(const std::string& value);

/// Merges one `key="value"` label (value escaped) into a metric name:
/// a bare name gains `{key="value"}`, a name that already carries labels
/// gets the pair appended inside the existing braces. The federation layer
/// uses this to stamp `sensor="<id>"` onto shipped sensor metrics.
[[nodiscard]] std::string WithLabel(const std::string& name,
                                    const std::string& key,
                                    const std::string& value);

/// Counter with a single label baked into the registered name:
/// LabeledCounter("rfdump_detect_tags_total", "detector", "80211-sifs") →
/// `rfdump_detect_tags_total{detector="80211-sifs"}`. Resolve once (static).
inline Counter& LabeledCounter(const std::string& family,
                               const std::string& key,
                               const std::string& value) {
  return Registry::Default().GetCounter(family + "{" + key + "=\"" +
                                        EscapeLabelValue(value) + "\"}");
}

/// Assembles a Prometheus text exposition from loose scalar values — the
/// aggregator's federation endpoint builds one from many sensors' shipped
/// snapshots plus its own native metrics. Families are sorted and emit one
/// `# TYPE` line each; integral counters print without a decimal point.
/// Plain code (no atomics), so it works identically under RFDUMP_OBS=OFF.
class ExpositionBuilder {
 public:
  void Add(std::string name, MetricKind kind, double value) {
    values_.push_back(MetricValue{std::move(name), kind, value});
  }
  void Add(const MetricValue& v) { values_.push_back(v); }

  [[nodiscard]] std::string Text() const;

 private:
  std::vector<MetricValue> values_;
};

}  // namespace rfdump::obs
