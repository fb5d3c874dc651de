#include "rfdump/core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "rfdump/core/collision.hpp"
#include "rfdump/core/executor.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/dsp/simd.hpp"
#include "rfdump/obs/obs.hpp"

namespace rfdump::core {
namespace {

/// Charges the enclosing scope to one stage slot: `samples` up front, the
/// wall time of one obs::Stopwatch pair (the clock the shed controller and
/// the benches read) on exit. The scope doubles as the stage's trace span.
class StageScope {
 public:
  StageScope(StageSlot& slot, Stage stage, std::uint64_t samples)
      : slot_(slot), span_(StageName(stage)) {
    slot_.samples += samples;
  }
  StageScope(StageCosts& costs, Stage stage, std::uint64_t samples)
      : StageScope(costs[stage], stage, samples) {}
  ~StageScope() { slot_.wall_ns += watch_.Nanoseconds(); }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageSlot& slot_;
  obs::TraceSpan span_;
  obs::Stopwatch watch_;
};

std::int64_t UsToSamples(double us) {
  return static_cast<std::int64_t>(us * 1e-6 * dsp::kSampleRateHz + 0.5);
}

/// Padding around every dispatched interval, in both architectures.
constexpr double kDispatchPadUs = 40.0;

/// One registry counter per Key value (a dense enum) under a common family
/// name and label, resolved once (construct as a function-local static) so
/// each update is a single relaxed atomic increment.
template <typename Key, std::size_t N>
class CounterTable {
 public:
  CounterTable(const char* family, const char* label,
               const char* (*name_of)(Key)) {
    for (std::size_t i = 0; i < N; ++i) {
      counters_[i] =
          &obs::LabeledCounter(family, label, name_of(static_cast<Key>(i)));
    }
  }
  obs::Counter& of(Key k) { return *counters_[static_cast<std::size_t>(k)]; }

 private:
  std::array<obs::Counter*, N> counters_{};
};
using PerProtocolCounter = CounterTable<Protocol, kProtocolCount>;
using PerStageCounter = CounterTable<Stage, kStageCount>;

// Deduplicates events found by more than one pass over overlapping
// intervals: per protocol and channel, decodes starting within 16 samples of
// each other are one transmission. Runs on the merged report, so the result
// does not depend on the analysis width.
void DedupAnalysisResults(MonitorReport& report) {
  std::sort(report.events.begin(), report.events.end(),
            [](const ProtocolEvent& a, const ProtocolEvent& b) {
              if (a.protocol != b.protocol) return a.protocol < b.protocol;
              return a.start_sample < b.start_sample;
            });
  report.events.erase(
      std::unique(report.events.begin(), report.events.end(),
                  [](const ProtocolEvent& a, const ProtocolEvent& b) {
                    return a.protocol == b.protocol &&
                           a.channel == b.channel &&
                           std::llabs(a.start_sample - b.start_sample) < 16;
                  }),
      report.events.end());
}

/// One analysis unit's result slot. Written by exactly one worker and only
/// read after Batch::Wait(), so it needs no locking.
struct UnitOut {
  StageSlot cost;         // stays zero when skipped on an expired budget
  AnalysisCommit commit;  // the unit's rebased events, appended at merge
  std::exception_ptr error;
  std::string error_text;
};

/// What is fixed for one dispatched interval. A task is (job, unit): the
/// task capture is a pointer and an index, small enough to live inside
/// std::function's own buffer.
struct IntervalJob {
  const ProtocolBundle* bundle = nullptr;
  bool check_budget = false;
  Stage stage = Stage::kAnalysis;
  AnalysisUnitContext ctx;
  std::shared_ptr<Supervisor::Admission> admission;  // null without sup
  std::vector<UnitOut> units;

  void RunUnit(int unit) {
    if (check_budget && ctx.budget != nullptr && ctx.budget->expired()) {
      return;  // all units of an interval share its budget
    }
    UnitOut& out = units[static_cast<std::size_t>(unit)];
    StageScope scope(out.cost, stage, ctx.span.size());
    try {
      out.commit = bundle->run_unit(ctx, unit);
    } catch (const std::exception& e) {
      out.error = std::current_exception();
      out.error_text = e.what();
    } catch (...) {
      out.error = std::current_exception();
      out.error_text = "non-std exception";
    }
  }
};

// The analysis stage (DESIGN.md §10). Each dispatched interval x analysis
// unit — e.g. every per-channel Bluetooth pass — is one task of an
// Executor::Batch writing into its own result slot (a null or serial executor
// runs the tasks inline); after the batch joins, slots are merged in
// submission order, so the result-bearing report fields are bit-identical at
// every width.
//
// Supervision uses the split boundary: Admit() on this (driver) thread in
// interval order — deterministic breaker decisions — and one Finish() per
// admitted interval at merge time, also in interval order, combining the
// unit outcomes (first throwing unit in submission order wins the error
// slot). A throwing unit never aborts its sibling units: they run to
// completion and their results are kept ("one worker cannot poison
// siblings"). Without a supervisor, units run with no budget (null, the
// demodulators' "unlimited") and the first failing unit's exception is
// rethrown.
void RunAnalysis(const AnalysisConfig& analysis, double noise_floor_power,
                 Supervisor* sup, Executor* ex,
                 const std::vector<Detection>& intervals,
                 dsp::const_sample_span x, MonitorReport& report) {
  if (!analysis.demodulate) return;
  // At most one job per interval, reserved up front: tasks hold job
  // addresses, so the vector must never reallocate.
  std::vector<IntervalJob> jobs;
  jobs.reserve(intervals.size());
  Executor::Batch batch(ex);
  const auto& registry = ProtocolRegistry::Instance();

  for (const auto& d : intervals) {
    // Unit plan per protocol from the registry: a disabled bundle (negative
    // unit count) never opens a supervision boundary.
    const ProtocolBundle* bundle = registry.Find(d.protocol);
    if (bundle == nullptr || !bundle->analysis_plan ||
        (analysis.bundle_mask & BundleBit(d.protocol)) == 0) {
      continue;  // no analysis stage for this protocol
    }
    const AnalysisPlan plan = bundle->analysis_plan(analysis);
    if (plan.units < 0) continue;

    IntervalJob& job = jobs.emplace_back();
    job.bundle = bundle;
    job.check_budget = plan.check_budget;
    job.stage = AnalysisStage(d.protocol);
    job.ctx.span = x.subspan(
        static_cast<std::size_t>(d.start_sample),
        static_cast<std::size_t>(d.end_sample - d.start_sample));
    job.ctx.start_sample = d.start_sample;
    job.ctx.analysis = &analysis;
    job.ctx.noise_floor_power = noise_floor_power;
    if (sup != nullptr) {
      job.admission =
          sup->Admit(d.protocol, d.start_sample, d.end_sample, job.ctx.span);
      if (!job.admission->admitted) continue;
      job.ctx.budget = &job.admission->budget;
    }
    job.units.resize(static_cast<std::size_t>(plan.units));
    for (int unit = 0; unit < plan.units; ++unit) {
      batch.Run([job = &job, unit] { job->RunUnit(unit); });
    }
  }

  batch.Wait();

  // Deterministic ordered merge: jobs in interval order, units in
  // submission order.
  std::exception_ptr unsupervised_error;
  for (IntervalJob& job : jobs) {
    std::exception_ptr first_error;
    std::string error_text;
    for (UnitOut& u : job.units) {
      report.costs[job.stage] += u.cost;
      if (u.error && !first_error) {
        first_error = u.error;
        error_text = u.error_text;
      }
      u.commit(report);
    }
    if (job.admission && job.admission->admitted) {
      Outcome outcome = Outcome::kOk;
      if (first_error) {
        outcome = Outcome::kException;
      } else if (job.admission->budget.expired()) {
        outcome = Outcome::kDeadline;
      }
      sup->Finish(*job.admission, outcome, std::move(error_text),
                  job.ctx.span);
    } else if (!job.admission && first_error && !unsupervised_error) {
      unsupervised_error = first_error;
    }
  }
  // Unsupervised semantics: a demodulator throw propagates out of the
  // pipeline (first failing unit in submission order, deterministically).
  if (unsupervised_error) std::rethrow_exception(unsupervised_error);

  DedupAnalysisResults(report);
}

/// A bundle's freshly constructed detector hooks for one Detect() call.
struct ActiveDetectors {
  const ProtocolBundle* bundle = nullptr;
  ProtocolDetectors hooks;
};

/// The sample range [start, end) of `x` clamped to the block (empty when it
/// lies outside).
dsp::const_sample_span ClampedSpan(dsp::const_sample_span x,
                                   std::int64_t start, std::int64_t end) {
  const auto n = static_cast<std::int64_t>(x.size());
  const auto s = std::clamp<std::int64_t>(start, 0, n);
  const auto e = std::clamp<std::int64_t>(end, 0, n);
  return e <= s ? dsp::const_sample_span{}
                : x.subspan(static_cast<std::size_t>(s),
                            static_cast<std::size_t>(e - s));
}

/// The detector hook a detection came from.
enum class TagHook : std::uint8_t { kTiming, kPhase, kOther };

/// The dispatch veto (DESIGN.md §15). A timing tag of protocol P is withheld
/// from dispatch when P's own phase detector did not tag the peak and another
/// bundle claims the whole peak: that bundle's phase tag covers the peak to
/// its end, and its claims_peak hook confirms the pattern over every window.
/// A timing tag names its peak by its extent; a phase tag starts where its
/// peak starts. Each claim is asked at most once per peak and bundle.
class DispatchVeto {
 public:
  DispatchVeto(const std::vector<Detection>& detections,
               const std::vector<TagHook>& hook_of,
               const std::vector<ActiveDetectors>& active,
               dsp::const_sample_span x, Supervisor* sup, StageCosts& costs)
      : detections_(detections), hook_of_(hook_of), x_(x), sup_(sup),
        costs_(costs) {
    bool any = false;
    for (const auto& a : active) {
      if (!a.hooks.claims_peak) continue;
      claims_[static_cast<std::size_t>(a.bundle->protocol)] =
          &a.hooks.claims_peak;
      any = true;
    }
    if (!any) return;
    for (std::size_t i = 0; i < detections.size(); ++i) {
      if (hook_of[i] == TagHook::kPhase) phase_.push_back(i);
    }
    std::stable_sort(phase_.begin(), phase_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return detections[a].start_sample <
                              detections[b].start_sample;
                     });
    verdict_.assign(phase_.size(), Verdict::kUnasked);
  }

  /// True when detection i is a timing tag withheld from dispatch.
  bool Vetoed(std::size_t i) {
    if (phase_.empty() || hook_of_[i] != TagHook::kTiming) return false;
    const Detection& t = detections_[i];
    auto k = static_cast<std::size_t>(
        std::lower_bound(phase_.begin(), phase_.end(), t.start_sample,
                         [&](std::size_t j, std::int64_t start) {
                           return detections_[j].start_sample < start;
                         }) -
        phase_.begin());
    std::size_t claim = phase_.size();
    for (; k < phase_.size(); ++k) {
      const Detection& p = detections_[phase_[k]];
      if (p.start_sample != t.start_sample) break;
      if (p.protocol == t.protocol) return false;  // its own phase evidence
      if (claim == phase_.size() && p.end_sample == t.end_sample &&
          claims_[static_cast<std::size_t>(p.protocol)] != nullptr) {
        claim = k;
      }
    }
    if (claim == phase_.size()) return false;
    if (verdict_[claim] == Verdict::kUnasked) {
      verdict_[claim] = Ask(detections_[phase_[claim]]) ? Verdict::kClaimed
                                                        : Verdict::kOpen;
    }
    return verdict_[claim] == Verdict::kClaimed;
  }

 private:
  enum class Verdict : std::uint8_t { kUnasked, kClaimed, kOpen };

  /// Runs the claiming bundle's hook over the peak's clamped samples. A
  /// contained throw claims nothing.
  bool Ask(const Detection& claimer) {
    const auto span =
        ClampedSpan(x_, claimer.start_sample, claimer.end_sample);
    if (span.empty()) return false;
    const auto& hook = *claims_[static_cast<std::size_t>(claimer.protocol)];
    StageScope scope(costs_, Stage::kPhase, 0);
    bool claimed = false;
    if (sup_ != nullptr) {
      sup_->Contain([&] { claimed = hook(span); });
    } else {
      claimed = hook(span);
    }
    return claimed;
  }

  const std::vector<Detection>& detections_;
  const std::vector<TagHook>& hook_of_;
  dsp::const_sample_span x_;
  Supervisor* sup_;
  StageCosts& costs_;
  std::array<const std::function<bool(dsp::const_sample_span)>*,
             kProtocolCount>
      claims_{};
  std::vector<std::size_t> phase_;  // phase-tag indices by start sample
  std::vector<Verdict> verdict_;    // per phase_ entry, asked lazily
};

/// Instantiates detector hooks for every mask-enabled bundle, ordered by
/// detect_rank (the historical detector call order), minus the families the
/// switches turn off.
std::vector<ActiveDetectors> MakeActiveDetectors(std::uint32_t bundle_mask,
                                                 bool timing, bool phase) {
  std::vector<ActiveDetectors> active;
  for (const auto& bundle : ProtocolRegistry::Instance().bundles()) {
    if ((bundle_mask & BundleBit(bundle.protocol)) == 0) continue;
    if (!bundle.make_detectors) continue;
    ProtocolDetectors hooks = bundle.make_detectors();
    if (!timing) hooks.on_peaks = nullptr;
    if (!phase) {
      hooks.on_peak = nullptr;
      hooks.claims_peak = nullptr;
    }
    active.push_back({&bundle, std::move(hooks)});
  }
  std::stable_sort(active.begin(), active.end(),
                   [](const ActiveDetectors& a, const ActiveDetectors& b) {
                     return a.bundle->detect_rank < b.bundle->detect_rank;
                   });
  return active;
}

}  // namespace

const char* StageName(Stage s) {
  // Built once; span names must outlive the tracer.
  static const auto kNames = [] {
    std::array<std::string, kStageCount> names = {
        "detect/health", "detect/peak",  "detect/energy",
        "detect/timing", "detect/phase", "detect/collision"};
    for (std::size_t id = 0; id < kProtocolCount; ++id) {
      const auto p = static_cast<Protocol>(id);
      const ProtocolBundle* b = ProtocolRegistry::Instance().Find(p);
      names[static_cast<std::size_t>(AnalysisStage(p))] =
          std::string("analysis/") + (b ? b->cli_name : "unknown");
    }
    return names;
  }();
  return kNames[static_cast<std::size_t>(s)].c_str();
}

double MonitorReport::CpuOverRealTime() const {
  if (samples_total == 0) return 0.0;
  const double real_seconds =
      static_cast<double>(samples_total) / dsp::kSampleRateHz;
  return costs.Seconds() / real_seconds;
}

// ------------------------------------------------------------------- RFDump

MonitorReport AnalyzeDetections(DetectOutput det, dsp::const_sample_span x,
                                Executor* executor, ResultSink* sink) {
  RFDUMP_TRACE_SPAN("pipeline/analyze");
  MonitorReport report = std::move(det.report);
  RunAnalysis(det.analysis, det.noise_floor_power, det.supervisor, executor,
              report.dispatched, x, report);
  static PerStageCounter c_wall("rfdump_stage_wall_nanoseconds_total", "stage",
                                StageName);
  static PerStageCounter c_samples("rfdump_stage_samples_total", "stage",
                                   StageName);
  report.costs.ForEach([](Stage s, const StageSlot& slot) {
    c_wall.of(s).Inc(slot.wall_ns);
    c_samples.of(s).Inc(slot.samples);
  });
  if (sink != nullptr) {
    for (const auto& h : report.health) sink->OnHealth(h);
    for (const auto& d : report.detections) sink->OnDetection(d);
    for (const auto& e : report.events) sink->OnEvent(e);
  }
  return report;
}

RFDumpPipeline::RFDumpPipeline() : RFDumpPipeline(Config{}) {}

RFDumpPipeline::RFDumpPipeline(Config config) : config_(config) {}

MonitorReport RFDumpPipeline::Process(dsp::const_sample_span x) {
  RFDUMP_TRACE_SPAN("pipeline/process");
  return AnalyzeDetections(Detect(x), x, config_.executor);
}

DetectOutput RFDumpPipeline::Detect(dsp::const_sample_span x) {
  RFDUMP_TRACE_SPAN("pipeline/detect");
  static obs::Counter& c_process =
      obs::Registry::Default().GetCounter("rfdump_pipeline_process_total");
  static obs::Counter& c_samples =
      obs::Registry::Default().GetCounter("rfdump_pipeline_samples_total");
  c_process.Inc();
  c_samples.Inc(x.size());

  MonitorReport report;
  report.samples_total = x.size();
  StageCosts& costs = report.costs;

  // Stage 0: input health scan — a real front-end delivers saturated and
  // occasionally corrupt (non-finite) samples; account for them up front so
  // downstream results can be interpreted.
  {
    StageScope scope(costs, Stage::kHealth, x.size());
    HealthReport h;
    h.block_samples = x.size();
    // rail = +inf disables the saturation count (|v| >= +inf only holds for
    // +inf, and non-finite samples are classified before the rail test).
    const float rail = config_.saturation_amplitude > 0.0f
                           ? 0.98f * config_.saturation_amplitude
                           : std::numeric_limits<float>::infinity();
    std::uint64_t saturated = 0;
    dsp::simd::Active().health_scan(x.data(), x.size(), rail,
                                    &h.nonfinite_samples, &saturated);
    h.saturation_fraction =
        x.empty() ? 0.0
                  : static_cast<double>(saturated) /
                        static_cast<double>(x.size());
    report.health.push_back(h);
  }

  // Stage 1: protocol-agnostic peak detection over 25 us chunks (with the
  // integrated energy gate), feeding every enabled bundle's detector hooks.
  PeakDetector::Config pd_cfg;
  pd_cfg.noise_floor_power = config_.noise_floor_power;
  PeakDetector peaks(pd_cfg);

  std::vector<ActiveDetectors> active = MakeActiveDetectors(
      config_.bundle_mask, config_.timing_detectors, config_.phase_detectors);
  bool any_on_peak = false;
  for (const auto& a : active) {
    if (a.hooks.on_peak) any_on_peak = true;
  }

  CollisionDetector collision;  // protocol-agnostic, stays pipeline-level

  std::vector<Detection>& detections = report.detections;
  // The hook behind each detection, parallel to `detections`: mark(h) tags
  // every detection appended since the last mark.
  std::vector<TagHook> hook_of;
  const auto mark = [&](TagHook h) { hook_of.resize(detections.size(), h); };

  // Stage boundary for the cheap detectors: with a supervisor, a throwing
  // detector is counted and contained (that detector contributes nothing for
  // this batch of peaks, everything else proceeds); without one, exceptions
  // propagate as before.
  Supervisor* const sup = config_.supervisor;
  const auto contain = [sup](auto&& fn) {
    if (sup) {
      sup->Contain(fn);
    } else {
      fn();
    }
  };

  const auto peak_span = [&x](const Peak& p) {
    return ClampedSpan(x, p.start_sample, p.end_sample);
  };

  const auto handle_peaks = [&](std::span<const Peak> fresh) {
    if (fresh.empty()) return;
    for (auto& a : active) {
      if (!a.hooks.on_peaks) continue;
      StageScope scope(costs, Stage::kTiming, 0);
      contain([&] {
        auto d = a.hooks.on_peaks(fresh);
        detections.insert(detections.end(), d.begin(), d.end());
      });
      mark(TagHook::kTiming);
    }
    if (config_.collision_detector) {
      for (const Peak& p : fresh) {
        const auto span = peak_span(p);
        if (span.empty()) continue;
        StageScope scope(costs, Stage::kCollision, span.size());
        contain([&] {
          auto d = collision.OnPeak(p, span);
          detections.insert(detections.end(), d.begin(), d.end());
        });
        mark(TagHook::kOther);
      }
    }
    if (any_on_peak) {
      for (const Peak& p : fresh) {
        const auto span = peak_span(p);
        if (span.empty()) continue;
        StageScope scope(costs, Stage::kPhase, span.size());
        for (auto& a : active) {
          if (!a.hooks.on_peak) continue;
          contain([&] {
            if (auto d = a.hooks.on_peak(p, span)) detections.push_back(*d);
          });
          mark(TagHook::kPhase);
        }
      }
    }
  };

  for (std::size_t at = 0; at < x.size(); at += kChunkSamples) {
    const std::size_t n = std::min(kChunkSamples, x.size() - at);
    std::span<const Peak> fresh;
    {
      StageScope scope(costs, Stage::kPeak, n);
      fresh = peaks.PushChunk(x.subspan(at, n), static_cast<std::int64_t>(at))
                  .completed;
    }
    handle_peaks(fresh);
  }
  std::span<const Peak> last;
  {
    StageScope scope(costs, Stage::kPeak, 0);
    last = peaks.Flush();
  }
  handle_peaks(last);

  // Stage 2: dispatch — merge detections per protocol and analyze only those
  // sample ranges. Under load shedding, low-confidence tags stay in the
  // detection log but are not worth demodulator time; so do timing tags on
  // peaks another protocol's phase evidence claims whole (DispatchVeto).
  // Every decision is counted per protocol (tagged = forwarded to merge,
  // rejected = below the confidence floor, vetoed = withheld by the veto) so
  // an operator can see what is discarded.
  static obs::Counter& c_detections = obs::Registry::Default().GetCounter(
      "rfdump_detect_detections_total");
  static PerProtocolCounter c_tagged("rfdump_dispatch_tagged_total",
                                     "protocol", ProtocolName);
  static PerProtocolCounter c_rejected("rfdump_dispatch_rejected_total",
                                       "protocol", ProtocolName);
  static PerProtocolCounter c_vetoed("rfdump_dispatch_vetoed_total",
                                     "protocol", ProtocolName);
  static PerProtocolCounter c_forwarded("rfdump_dispatch_forwarded_total",
                                        "protocol", ProtocolName);
  c_detections.Inc(detections.size());
  std::uint64_t tagged_n = 0, rejected_n = 0, vetoed_n = 0;
  const std::int64_t pad = UsToSamples(kDispatchPadUs);
  DispatchVeto veto(detections, hook_of, active, x, sup, costs);
  std::vector<Detection> padded;
  padded.reserve(detections.size());
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const Detection& d = detections[i];
    if (d.confidence < config_.analysis.min_dispatch_confidence) {
      c_rejected.of(d.protocol).Inc();
      ++rejected_n;
      continue;
    }
    if (veto.Vetoed(i)) {
      c_vetoed.of(d.protocol).Inc();
      ++vetoed_n;
      continue;
    }
    c_tagged.of(d.protocol).Inc();
    ++tagged_n;
    padded.push_back(d);
  }
  for (auto& d : padded) {
    d.start_sample -= pad;
    d.end_sample += pad;
  }
  report.dispatched = MergeDetections(std::move(padded), pad,
                                      static_cast<std::int64_t>(x.size()));
  for (const auto& d : report.dispatched) c_forwarded.of(d.protocol).Inc();
  HealthReport& health = report.health.back();
  health.tagged_detections = tagged_n;
  health.rejected_detections = rejected_n;
  health.vetoed_detections = vetoed_n;
  health.forwarded_intervals = report.dispatched.size();
  DetectOutput out;
  out.report = std::move(report);
  out.analysis = config_.analysis;
  out.noise_floor_power = config_.noise_floor_power;
  out.supervisor = config_.supervisor;
  return out;
}

// -------------------------------------------------------------------- naive

NaivePipeline::NaivePipeline() : NaivePipeline(Config{}) {}

NaivePipeline::NaivePipeline(Config config) : config_(config) {}

MonitorReport NaivePipeline::Process(dsp::const_sample_span x) {
  RFDUMP_TRACE_SPAN("pipeline/naive-process");
  return AnalyzeDetections(Detect(x), x, config_.executor);
}

DetectOutput NaivePipeline::Detect(dsp::const_sample_span x) {
  MonitorReport report;
  report.samples_total = x.size();

  // The naive monitor hosts every mask-enabled naive_member bundle, in
  // protocol-id order (historically: 802.11 then Bluetooth).
  std::vector<Protocol> members;
  for (const auto& bundle : ProtocolRegistry::Instance().bundles()) {
    if (!bundle.naive_member) continue;
    if ((config_.bundle_mask & BundleBit(bundle.protocol)) == 0) continue;
    members.push_back(bundle.protocol);
  }

  std::vector<Detection> intervals;
  if (config_.energy_gate) {
    // Energy filtering via the peak detector's gate; everything above the
    // noise floor goes to ALL demodulators.
    PeakDetector::Config pd_cfg;
    pd_cfg.noise_floor_power = config_.noise_floor_power;
    std::vector<Peak> peaks;
    {
      StageScope scope(report.costs, Stage::kEnergy, x.size());
      peaks = DetectPeaks(x, pd_cfg);
    }
    const std::int64_t pad = UsToSamples(kDispatchPadUs);
    std::vector<Detection> raw;
    for (const Peak& p : peaks) {
      for (const Protocol protocol : members) {
        raw.push_back({protocol, p.start_sample - pad, p.end_sample + pad,
                       1.0f, "energy"});
      }
    }
    intervals = MergeDetections(std::move(raw), pad,
                                static_cast<std::int64_t>(x.size()));
  } else {
    // Pure naive: the full capture goes to every demodulator.
    for (const Protocol protocol : members) {
      intervals.push_back({protocol, 0, static_cast<std::int64_t>(x.size()),
                           1.0f, "naive"});
    }
  }
  report.dispatched = std::move(intervals);
  DetectOutput out;
  out.report = std::move(report);
  out.analysis = config_.analysis;
  out.noise_floor_power = config_.noise_floor_power;
  out.supervisor = config_.supervisor;
  return out;
}

}  // namespace rfdump::core
