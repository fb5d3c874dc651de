#include "rfdump/core/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rfdump/core/executor.hpp"
#include "rfdump/core/result_sink.hpp"
#include "rfdump/obs/obs.hpp"

namespace rfdump::core {
namespace {

/// Streaming-path metrics (DESIGN.md §8), resolved once.
struct StreamingMetrics {
  obs::Counter& blocks =
      obs::Registry::Default().GetCounter("rfdump_streaming_blocks_total");
  obs::Counter& gaps =
      obs::Registry::Default().GetCounter("rfdump_streaming_gaps_total");
  obs::Counter& gap_samples = obs::Registry::Default().GetCounter(
      "rfdump_streaming_gap_samples_total");
  obs::Counter& duplicate_samples = obs::Registry::Default().GetCounter(
      "rfdump_streaming_duplicate_samples_total");
  obs::Counter& sanitized = obs::Registry::Default().GetCounter(
      "rfdump_streaming_sanitized_samples_total");
  /// Whole-block pipeline failures (an escape the per-interval stage
  /// boundaries did not catch — should stay at zero; the block's results are
  /// lost but the monitor itself keeps running).
  obs::Counter& block_failures = obs::Registry::Default().GetCounter(
      "rfdump_streaming_block_failures_total");
  obs::Counter& shed_up = obs::LabeledCounter(
      "rfdump_streaming_shed_transitions_total", "direction", "up");
  obs::Counter& shed_down = obs::LabeledCounter(
      "rfdump_streaming_shed_transitions_total", "direction", "down");
  obs::Gauge& shed_stage =
      obs::Registry::Default().GetGauge("rfdump_streaming_shed_stage");
  /// Pipelined mode: blocks waiting between detect and analyze, and how
  /// often ingest stalled on a full queue (each stall is an overload signal
  /// fed to the shed controller).
  obs::Gauge& queue_depth =
      obs::Registry::Default().GetGauge("rfdump_streaming_queue_depth");
  obs::Counter& backpressure = obs::Registry::Default().GetCounter(
      "rfdump_streaming_backpressure_total");
  /// CPU-over-real-time per block: buckets straddle 1.0 (the real-time
  /// wall) so the exposition shows at a glance how close to falling behind
  /// the monitor runs.
  obs::Histogram& block_load = obs::Registry::Default().GetHistogram(
      "rfdump_streaming_block_load",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0});
  static StreamingMetrics& Get() {
    static StreamingMetrics m;
    return m;
  }
};

/// A shed stage is restored only after shed_resume_blocks consecutive blocks
/// below this fraction of the CPU budget (hysteresis).
constexpr double kShedResumeFraction = 0.75;
/// Dispatch-confidence floor applied at shed stage >= 2.
constexpr float kShedMinConfidence = 0.7f;

}  // namespace

double HealthSummary::MeanLoad() const {
  if (samples == 0) return 0.0;
  return load_seconds /
         (static_cast<double>(samples) / dsp::kSampleRateHz);
}

void StreamingMonitor::Config::Validate() const {
  if (block_samples == 0) {
    throw std::invalid_argument("StreamingMonitor: block_samples must be > 0");
  }
  if (overlap_samples >= block_samples) {
    throw std::invalid_argument(
        "StreamingMonitor: overlap_samples must be < block_samples "
        "(the block schedule would never advance)");
  }
  if (threads < 1) {
    throw std::invalid_argument(
        "StreamingMonitor: threads must be >= 1 (1 = serial)");
  }
  if (max_queue_blocks == 0) {
    throw std::invalid_argument(
        "StreamingMonitor: max_queue_blocks must be >= 1");
  }
  if (cpu_budget < 0.0) {
    throw std::invalid_argument(
        "StreamingMonitor: cpu_budget must be >= 0 (0 disables shedding)");
  }
  if (supervisor.demod_limits.max_cpu_seconds < 0.0) {
    throw std::invalid_argument(
        "StreamingMonitor: supervisor.demod_limits.max_cpu_seconds must be "
        ">= 0 (0 = unlimited)");
  }
}

StreamingMonitor::StreamingMonitor() : StreamingMonitor(Config{}) {}

StreamingMonitor::StreamingMonitor(Config config)
    : config_(config),
      supervisor_(config.supervisor),
      pipeline_(config.pipeline) {
  config_.Validate();
  buffer_.reserve(config_.block_samples + config_.overlap_samples);
  // Rebuild the pipeline with the owned supervisor wired in (the caller's
  // pipeline config cannot point at it — it does not exist yet).
  ApplyShedStage();
  if (config_.threads > 1) {
    executor_ = std::make_unique<Executor>(config_.threads);
    analyzer_ = std::thread([this] { AnalyzerLoop(); });
  }
}

StreamingMonitor::~StreamingMonitor() {
  if (analyzer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    analyzer_.join();  // drains queued blocks first (AnalyzerLoop contract)
  }
}

void StreamingMonitor::Push(dsp::const_sample_span segment) {
  // Documented alias: Push IS PushSegment with the auto-advancing timestamp.
  PushSegment(expected_next_ < 0 ? 0 : expected_next_, segment);
}

void StreamingMonitor::PushSegment(std::int64_t start_sample,
                                   dsp::const_sample_span samples) {
  if (expected_next_ < 0) {
    // First delivery anchors the stream timeline.
    buffer_start_ = start_sample;
    emitted_until_ = start_sample;
    expected_next_ = start_sample;
  }
  if (start_sample > expected_next_) {
    // Discontinuity: the front end lost samples. Finish what we have — the
    // pre-gap samples are complete up to the gap — then restart the block
    // schedule on the far side. Nothing is ever decoded across the gap.
    const std::int64_t missing = start_sample - expected_next_;
    ++pending_gap_count_;
    pending_gap_samples_ += missing;
    StreamingMetrics::Get().gaps.Inc();
    StreamingMetrics::Get().gap_samples.Inc(
        static_cast<std::uint64_t>(missing));
    gaps_.push_back({expected_next_, missing});
    if (!buffer_.empty()) {
      ProcessBlock(/*final_block=*/true, /*gap_cut=*/true);
    }
    buffer_start_ = start_sample;
    emitted_until_ = start_sample;
    expected_next_ = start_sample;
  } else if (start_sample < expected_next_) {
    // Duplicate / re-delivered buffer: drop the part we already consumed.
    // Any remainder continues the stream at expected_next_.
    const auto skip = static_cast<std::size_t>(std::min<std::int64_t>(
        expected_next_ - start_sample,
        static_cast<std::int64_t>(samples.size())));
    pending_overlap_samples_ += static_cast<std::int64_t>(skip);
    StreamingMetrics::Get().duplicate_samples.Inc(skip);
    samples = samples.subspan(skip);
  }
  expected_next_ += static_cast<std::int64_t>(samples.size());
  const std::uint64_t sanitized = AppendSanitized(samples);
  pending_sanitized_ += sanitized;
  StreamingMetrics::Get().sanitized.Inc(sanitized);
  while (buffer_.size() >= config_.block_samples) {
    ProcessBlock(/*final_block=*/false, /*gap_cut=*/false);
  }
}

std::uint64_t StreamingMonitor::AppendSanitized(
    dsp::const_sample_span samples) {
  std::uint64_t sanitized = 0;
  buffer_.reserve(buffer_.size() + samples.size());
  for (const dsp::cfloat& s : samples) {
    if (std::isfinite(s.real()) && std::isfinite(s.imag())) {
      buffer_.push_back(s);
    } else {
      // One corrupt sample must not poison a whole block's averages or leak
      // NaN into demodulator output; zero reads as silence.
      buffer_.push_back(dsp::cfloat{0.0f, 0.0f});
      ++sanitized;
    }
  }
  return sanitized;
}

void StreamingMonitor::Flush() {
  if (!buffer_.empty()) {
    ProcessBlock(/*final_block=*/true, /*gap_cut=*/false);
    if (pipelined()) DrainQueue();
  } else if (pending_gap_count_ > 0 || pending_overlap_samples_ > 0 ||
             pending_sanitized_ > 0) {
    // Nothing buffered, but ingest saw faults since the last block: emit an
    // empty-block report so no fault goes unrecorded.
    if (pipelined()) DrainQueue();
    HealthReport h;
    h.block_start = buffer_start_;
    h.shed_stage = shed_stage_.load(std::memory_order_relaxed);
    EmitHealth(h);
  } else if (pipelined()) {
    DrainQueue();
  }
}

double StreamingMonitor::CpuOverRealTime() const {
  if (samples_processed_ == 0) return 0.0;
  return costs_.Seconds() /
         (static_cast<double>(samples_processed_) / dsp::kSampleRateHz);
}

void StreamingMonitor::set_cpu_budget(double budget) {
  config_.cpu_budget = budget;
  under_budget_blocks_ = 0;
  if (budget <= 0.0 && shed_stage_.load(std::memory_order_relaxed) != 0) {
    // Disabling shedding is an operator decision; restore the full pipeline
    // immediately rather than waiting for the next block's load sample.
    shed_stage_.store(0, std::memory_order_relaxed);
    StreamingMetrics::Get().shed_stage.Set(0);
    ApplyShedStage();
  }
}

void StreamingMonitor::EmitHealth(HealthReport h) {
  h.gap_count = pending_gap_count_;
  h.gap_samples = pending_gap_samples_;
  h.overlap_samples = pending_overlap_samples_;
  h.sanitized_samples = pending_sanitized_;
  pending_gap_count_ = 0;
  pending_gap_samples_ = 0;
  pending_overlap_samples_ = 0;
  pending_sanitized_ = 0;
  RecordHealth(h);
}

void StreamingMonitor::RecordHealth(const HealthReport& h) {
  // Cumulative summary first (never evicted), then the bounded ring.
  ++summary_.blocks;
  summary_.samples += h.block_samples;
  summary_.gap_count += h.gap_count;
  summary_.gap_samples += h.gap_samples;
  summary_.overlap_samples += h.overlap_samples;
  summary_.sanitized_samples += h.sanitized_samples;
  summary_.tagged_detections += h.tagged_detections;
  summary_.rejected_detections += h.rejected_detections;
  summary_.vetoed_detections += h.vetoed_detections;
  summary_.forwarded_intervals += h.forwarded_intervals;
  summary_.supervised_intervals += h.supervised_intervals;
  summary_.deadline_intervals += h.deadline_intervals;
  summary_.exception_intervals += h.exception_intervals;
  summary_.skipped_intervals += h.skipped_intervals;
  summary_.quarantined_intervals += h.quarantined_intervals;
  summary_.breaker_trips += h.breaker_trips;
  summary_.max_shed_stage = std::max(summary_.max_shed_stage, h.shed_stage);
  summary_.max_block_load = std::max(summary_.max_block_load, h.block_load);
  summary_.load_seconds += h.block_load * (static_cast<double>(h.block_samples) /
                                           dsp::kSampleRateHz);

  StreamingMetrics::Get().blocks.Inc();
  if (h.block_samples > 0) {
    StreamingMetrics::Get().block_load.Observe(h.block_load);
  }

  health_.push_back(h);
  while (config_.health_history_limit > 0 &&
         health_.size() > config_.health_history_limit) {
    health_.pop_front();
  }
  if (config_.sink != nullptr) config_.sink->OnHealth(health_.back());
}

void StreamingMonitor::ApplyShedStage() {
  RFDumpPipeline::Config cfg = config_.pipeline;
  cfg.supervisor = &supervisor_;  // breaker state survives reconstruction
  // The monitor controls execution and emission itself: analysis fan-out
  // happens via AnalyzeDetections in AnalyzeBlock, and all emission goes
  // through the monitor's ownership filter.
  cfg.executor = nullptr;
  cfg.sink = nullptr;
  const int stage = shed_stage_.load(std::memory_order_relaxed);
  if (stage >= 1) {
    // Optional = not default-enabled: only the default bundles stay.
    cfg.bundle_mask &= DefaultBundleMask();
    cfg.freq_detector = false;
    cfg.collision_detector = false;
  }
  if (stage >= 2) {
    cfg.analysis.min_dispatch_confidence = std::max(
        cfg.analysis.min_dispatch_confidence, kShedMinConfidence);
  }
  if (stage >= 3) {
    cfg.analysis.demodulate = false;
  }
  applied_shed_stage_ = stage;
  pipeline_ = RFDumpPipeline(cfg);
}

void StreamingMonitor::UpdateShedding(double block_load,
                                      bool deadline_pressure,
                                      bool backpressure) {
  if (config_.cpu_budget <= 0.0) {
    shed_stage_.store(0, std::memory_order_relaxed);
    return;
  }
  // A stalled ingest queue means analysis cannot keep up regardless of what
  // the per-block load sample says — treat it as over budget.
  if (block_load > config_.cpu_budget || backpressure) {
    under_budget_blocks_ = 0;
    if (shed_stage_.load(std::memory_order_relaxed) < kShedStageMax) {
      const int stage = shed_stage_.fetch_add(1, std::memory_order_relaxed) + 1;
      StreamingMetrics::Get().shed_up.Inc();
      StreamingMetrics::Get().shed_stage.Set(stage);
    }
  } else if (deadline_pressure) {
    // Deadline-aborted intervals mean measured load understates offered
    // load (work was cut short, not completed). Don't let an artificially
    // cheap block walk the shed stage back down.
    under_budget_blocks_ = 0;
  } else if (shed_stage_.load(std::memory_order_relaxed) > 0 &&
             block_load <
                 kShedResumeFraction * config_.cpu_budget) {
    if (++under_budget_blocks_ >= config_.shed_resume_blocks) {
      const int stage = shed_stage_.fetch_sub(1, std::memory_order_relaxed) - 1;
      under_budget_blocks_ = 0;
      StreamingMetrics::Get().shed_down.Inc();
      StreamingMetrics::Get().shed_stage.Set(stage);
    }
  } else {
    under_budget_blocks_ = 0;
  }
}

// ---------------------------------------------------------------- blocks

void StreamingMonitor::ProcessBlock(bool final_block, bool gap_cut) {
  RFDUMP_TRACE_SPAN("streaming/detect");
  // Apply any shed-stage change the controller decided since the previous
  // block: the ingest thread owns pipeline_, so the rebuild happens here,
  // before detection.
  if (shed_stage_.load(std::memory_order_relaxed) != applied_shed_stage_) {
    ApplyShedStage();
    StreamingMetrics::Get().shed_stage.Set(applied_shed_stage_);
  }

  const std::size_t take =
      final_block ? buffer_.size()
                  : std::min(buffer_.size(), config_.block_samples);
  const auto block = dsp::const_sample_span(buffer_).first(take);

  BlockJob job;
  job.base = buffer_start_;
  job.take = take;
  const std::size_t keep =
      final_block ? 0 : std::min(config_.overlap_samples, take);
  job.boundary = buffer_start_ + static_cast<std::int64_t>(take - keep);
  job.emit_from = emitted_until_;
  job.gap_cut = gap_cut;
  job.shed_stage = applied_shed_stage_;
  job.gap_count = pending_gap_count_;
  job.gap_samples = pending_gap_samples_;
  job.overlap_samples = pending_overlap_samples_;
  job.sanitized = pending_sanitized_;
  pending_gap_count_ = 0;
  pending_gap_samples_ = 0;
  pending_overlap_samples_ = 0;
  pending_sanitized_ = 0;

  obs::Stopwatch detect_watch;
  try {
    job.det = pipeline_.Detect(block);
  } catch (...) {
    // Last-resort containment: per-interval stage boundaries catch detector
    // throws, so anything arriving here escaped from pipeline plumbing. The
    // block yields an empty report (plus health/tallies); the monitor keeps
    // running.
    StreamingMetrics::Get().block_failures.Inc();
    job.det = DetectOutput{};
    job.det.report.samples_total = take;
  }
  job.detect_seconds = detect_watch.Seconds();
  if (pipelined()) {
    job.samples.assign(block.begin(), block.end());
  } else {
    AnalyzeBlock(job, block);
  }

  // Ingest state advances NOW — pipelined, this is the double-buffering:
  // the next segment lands in a clean buffer while the analyzer works on
  // the copy.
  emitted_until_ = job.boundary;
  if (final_block) {
    buffer_start_ += static_cast<std::int64_t>(take);
    buffer_.clear();
  } else {
    const std::size_t consumed = take - keep;
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
    buffer_start_ += static_cast<std::int64_t>(consumed);
  }
  if (!pipelined()) return;

  std::size_t depth;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (queue_.size() >= config_.max_queue_blocks) {
      // Backpressure: ingest waits for analysis. The stall itself is the
      // overload signal — the shed controller sees it with the next block.
      backpressure_.store(true, std::memory_order_relaxed);
      StreamingMetrics::Get().backpressure.Inc();
      queue_space_cv_.wait(lock, [&] {
        return queue_.size() < config_.max_queue_blocks;
      });
    }
    queue_.push_back(std::move(job));
    depth = queue_.size();
  }
  StreamingMetrics::Get().queue_depth.Set(static_cast<double>(depth));
  queue_cv_.notify_one();
}

void StreamingMonitor::AnalyzerLoop() {
  for (;;) {
    BlockJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      analyzer_busy_ = true;
      StreamingMetrics::Get().queue_depth.Set(
          static_cast<double>(queue_.size()));
    }
    queue_space_cv_.notify_all();
    AnalyzeBlock(job, job.samples);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      analyzer_busy_ = false;
    }
    queue_space_cv_.notify_all();  // DrainQueue also waits for idle
  }
}

void StreamingMonitor::DrainQueue() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_space_cv_.wait(lock,
                       [&] { return queue_.empty() && !analyzer_busy_; });
}

void StreamingMonitor::AnalyzeBlock(BlockJob& job, dsp::const_sample_span x) {
  RFDUMP_TRACE_SPAN("streaming/block");
  // Quarantine records want absolute stream positions; the pipeline works
  // block-relative. All Admit/Finish calls for this block happen on this
  // thread before the next block starts, so the offset is stable.
  supervisor_.set_stream_offset(job.base);

  obs::Stopwatch analyze_watch;
  MonitorReport report;
  try {
    report = AnalyzeDetections(std::move(job.det), x, executor_.get(),
                               nullptr);
  } catch (...) {
    StreamingMetrics::Get().block_failures.Inc();
    report = MonitorReport{};
    report.samples_total = job.take;
  }
  // The block's critical-path cost: detect (ingest thread) + analyze (this
  // thread). With a wide executor the analyze term is wall time over the
  // fan-out, which is what "can the monitor keep up" actually measures.
  const double block_cpu = job.detect_seconds + analyze_watch.Seconds();
  samples_processed_ += job.take;

  const Supervisor::Counts now = supervisor_.counts();
  const std::uint64_t d_supervised = now.invocations - last_counts_.invocations;
  const std::uint64_t d_deadline = now.deadline - last_counts_.deadline;
  const std::uint64_t d_exception = now.exception - last_counts_.exception;
  const std::uint64_t d_skipped = now.skipped - last_counts_.skipped;
  const std::uint64_t d_quarantined = now.quarantined - last_counts_.quarantined;
  const std::uint64_t d_trips = now.breaker_trips - last_counts_.breaker_trips;
  last_counts_ = now;

  costs_ += report.costs;

  HealthReport h;
  if (!report.health.empty()) h = report.health.front();
  h.block_start = job.base;
  h.block_samples = job.take;
  h.shed_stage = job.shed_stage;
  h.block_load =
      job.take > 0
          ? block_cpu / (static_cast<double>(job.take) / dsp::kSampleRateHz)
          : 0.0;
  h.gap_count = job.gap_count;
  h.gap_samples = job.gap_samples;
  h.overlap_samples = job.overlap_samples;
  h.sanitized_samples = job.sanitized;
  h.supervised_intervals = d_supervised;
  h.deadline_intervals = d_deadline;
  h.exception_intervals = d_exception;
  h.skipped_intervals = d_skipped;
  h.quarantined_intervals = d_quarantined;
  h.breaker_trips = static_cast<std::uint32_t>(d_trips);
  h.open_breakers = supervisor_.open_breakers();
  const double block_load = h.block_load;
  RecordHealth(h);
  supervisor_.OnBlockEnd();

  // Ownership boundary: this block reports every result that *starts* in
  // [emit_from, boundary); results starting inside the overlap tail are left
  // to the next block, which sees them whole (the overlap exceeds the
  // longest frame, so anything starting before the boundary also ends inside
  // this block).
  if (ResultSink* sink = config_.sink) {
    const auto owned = [&](std::int64_t start) {
      return start >= job.emit_from && start < job.boundary;
    };
    for (auto& e : report.events) {
      e.start_sample += job.base;
      e.end_sample += job.base;
      // A block cut short by a gap ends where delivered data ends: a frame
      // that reaches the cut was truncated by the overrun unless it checked
      // out in full (FCS/CRC), and a truncated frame is reported as a gap,
      // not a frame.
      const bool clear_of_cut =
          !job.gap_cut || e.end_sample < job.boundary || e.crc_ok;
      if (owned(e.start_sample) && clear_of_cut) sink->OnEvent(e);
    }
    for (auto& d : report.detections) {
      d.start_sample += job.base;
      d.end_sample += job.base;
      if (owned(d.start_sample)) sink->OnDetection(d);
    }
  }

  UpdateShedding(block_load, /*deadline_pressure=*/d_deadline > 0,
                 backpressure_.exchange(false, std::memory_order_relaxed));
}

}  // namespace rfdump::core
