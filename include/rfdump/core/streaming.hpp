#pragma once
// Streaming monitor: the real-time operating mode.
//
// The experiment pipelines process one recorded trace per call (the paper's
// evaluation mode). A live monitor instead receives the front-end stream in
// arbitrary-size segments and must emit results continuously while keeping
// up with the sample rate. StreamingMonitor wraps the RFDump pipeline in a
// block-based schedule: segments accumulate into fixed processing blocks
// with an overlap region, each block runs through detection + analysis, and
// results whose frames straddle a block boundary are deduplicated.
//
// This exploits exactly the latency tolerance the paper leans on (§2.2): a
// block of ~250 ms adds that much reporting delay but none to throughput.
//
// Fault tolerance (see DESIGN.md "Fault model and degradation policy"): the
// monitor consumes *timestamped* segments, so USB-overrun gaps and duplicate
// buffer deliveries are detected on ingest. A gap hard-splits the block
// schedule — the buffered samples are processed and detector state is reset,
// so no frame is ever decoded across missing samples. Non-finite input is
// zeroed before it can poison averages. Every block yields a HealthReport.
//
// Overload (CPU > real time) triggers graceful load shedding in the paper's
// own priority order: optional protocols and detectors first, then
// demodulation of low-confidence tags, then demodulation entirely
// (detection-only, the cheap mode of Fig 9). Hysteresis restores stages as
// load falls.
//
// Execution model (DESIGN.md §10): with Config::threads == 1 the monitor is
// fully serial — every Push runs detection and analysis inline, on the live
// buffer. With threads >= 2 the monitor pipelines: the caller
// thread keeps doing ingest + detection, completed blocks are handed to an
// internal analyzer thread through a bounded queue (double-buffering:
// detection of block N+1 overlaps analysis of block N), and the analyzer
// fans the demodulator bank out over a core::Executor of the configured
// width. Emission stays a single synchronised point — the analyzer thread —
// so ResultSink implementations never see concurrent calls, and the ordered
// merge keeps results identical to the serial run. When the queue is full,
// Push blocks (backpressure) and the stall is fed to the shed controller as
// an overload signal.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "rfdump/core/pipeline.hpp"

namespace rfdump::core {

class Executor;    // core/executor.hpp
class ResultSink;  // core/result_sink.hpp

/// Highest shed stage: detection only, no demodulation.
inline constexpr int kShedStageMax = 3;

/// Cumulative health across every block a StreamingMonitor has processed.
/// Unlike the per-block history (which is a bounded ring), this never loses
/// information: a monitor that has run for a week still reports exact fault
/// totals.
struct HealthSummary {
  std::uint64_t blocks = 0;
  std::uint64_t samples = 0;
  std::uint32_t gap_count = 0;
  std::int64_t gap_samples = 0;
  std::int64_t overlap_samples = 0;
  std::uint64_t sanitized_samples = 0;
  std::uint64_t tagged_detections = 0;
  std::uint64_t rejected_detections = 0;
  std::uint64_t vetoed_detections = 0;
  std::uint64_t forwarded_intervals = 0;
  // Supervision outcomes (DESIGN.md §9), cumulative across all blocks.
  std::uint64_t supervised_intervals = 0;
  std::uint64_t deadline_intervals = 0;
  std::uint64_t exception_intervals = 0;
  std::uint64_t skipped_intervals = 0;
  std::uint64_t quarantined_intervals = 0;
  std::uint64_t breaker_trips = 0;
  int max_shed_stage = 0;
  double max_block_load = 0.0;
  double load_seconds = 0.0;  // sum over blocks of load x block real time
  /// CPU-over-real-time averaged over all processed samples.
  [[nodiscard]] double MeanLoad() const;
};

class StreamingMonitor {
 public:
  struct Config {
    RFDumpPipeline::Config pipeline;
    /// Samples per processing block (default 250 ms at 8 Msps).
    std::size_t block_samples = 2'000'000;
    /// Overlap carried from the end of one block into the next, so frames
    /// that straddle the boundary are seen whole at least once. Must cover
    /// the longest frame (~19 ms => 152k samples; default 160k).
    std::size_t overlap_samples = 160'000;

    /// Analysis workers (core::Executor width, including the analyzer
    /// thread itself). 1 = fully serial monitor, the historical behaviour.
    /// >= 2 enables the pipelined mode described in the file comment.
    /// 0 is invalid here (Validate() throws): the monitor must not silently
    /// pick a width, the operator chooses (the CLI maps --threads 0 to the
    /// hardware concurrency before it reaches this config).
    int threads = 1;
    /// Bounded depth of the detect->analyze hand-off queue, in blocks
    /// (pipelined mode only). Push blocks when the queue is full; the stall
    /// is reported to the shed controller as overload. Must be >= 1.
    std::size_t max_queue_blocks = 2;

    /// Result sink (non-owning; see core/result_sink.hpp): decodes,
    /// detections and per-block health all emit here, from one synchronised
    /// emission point.
    ResultSink* sink = nullptr;

    /// CPU-over-real-time budget per block. 0 disables load shedding.
    /// When a block's load exceeds the budget the monitor sheds one stage:
    ///   1: only default-enabled bundles stay in the bundle mask (BLE,
    ///      ZigBee and microwave go), freq and collision detectors off
    ///   2: + demodulation only for tags with confidence >= 0.7
    ///   3: + no demodulation at all (detection-only)
    double cpu_budget = 0.0;
    /// A stage is restored only after `shed_resume_blocks` consecutive
    /// blocks below 0.75 x cpu_budget (hysteresis).
    int shed_resume_blocks = 2;

    /// Per-block health reports retained by health() (a ring: the oldest
    /// entry is dropped once the limit is reached, so a long-running monitor
    /// stays bounded; 0 keeps everything). Cumulative totals survive
    /// eviction via summary().
    std::size_t health_history_limit = 4096;

    /// Supervision layer (deadlines / containment / breakers / quarantine,
    /// DESIGN.md §9). The monitor always owns a Supervisor built from this
    /// config and wires it into the pipeline; the defaults leave deadlines
    /// unlimited, so supervision is containment-only unless limits are set.
    Supervisor::Config supervisor;

    /// Rejects configurations that used to misbehave silently. Throws
    /// std::invalid_argument on: overlap_samples >= block_samples (the
    /// block schedule would never advance), block_samples == 0, threads < 1,
    /// max_queue_blocks == 0, and negative budgets (cpu_budget or the
    /// supervisor's demod CPU limit). Both constructors call this.
    void Validate() const;
  };

  StreamingMonitor();
  explicit StreamingMonitor(Config config);
  ~StreamingMonitor();
  StreamingMonitor(const StreamingMonitor&) = delete;
  StreamingMonitor& operator=(const StreamingMonitor&) = delete;

  /// Feeds a segment assumed contiguous with the previous one (a front-end
  /// that never drops). Documented alias for
  /// `PushSegment(next_expected_timestamp, segment)`: the timestamp
  /// auto-advances past everything pushed so far (first call anchors the
  /// stream at 0), so there is exactly one ingest path and mixing Push with
  /// PushSegment is well-defined. May invoke the sink.
  void Push(dsp::const_sample_span segment);

  /// Feeds a timestamped segment: `start_sample` is the absolute stream
  /// position of segment[0]. A forward jump is a gap (samples lost): the
  /// buffered stream is processed to completion and detector state resets,
  /// so nothing is decoded across the gap. A backward jump is a duplicate
  /// delivery: the already-seen prefix is discarded. Non-finite samples are
  /// zeroed (and counted) on ingest.
  void PushSegment(std::int64_t start_sample, dsp::const_sample_span samples);

  /// Processes whatever is buffered, regardless of block size, and (in
  /// pipelined mode) drains the analyzer queue: after Flush() every result
  /// for pushed samples has been emitted and the accessors below are safe
  /// to read even with threads >= 2.
  void Flush();

  /// Aggregate stage costs across all processed blocks.
  const StageCosts& costs() const { return costs_; }
  std::uint64_t samples_processed() const { return samples_processed_; }
  /// Summed stage time / real time so far.
  [[nodiscard]] double CpuOverRealTime() const;

  /// One record per detected stream discontinuity.
  struct Gap {
    std::int64_t at = 0;       // first missing sample
    std::int64_t missing = 0;  // how many samples were lost
  };
  const std::vector<Gap>& gaps() const { return gaps_; }

  /// Per-block health history: the most recent blocks, bounded by
  /// Config::health_history_limit (ring semantics — older entries evicted).
  const std::deque<HealthReport>& health() const { return health_; }

  /// Exact cumulative health over ALL blocks ever processed (never evicted).
  const HealthSummary& summary() const { return summary_; }

  /// Current load-shedding stage (0 = full pipeline).
  [[nodiscard]] int shed_stage() const {
    return shed_stage_.load(std::memory_order_relaxed);
  }

  /// Adjusts the CPU budget at runtime (operator knob; 0 disables shedding
  /// and immediately restores the full pipeline). In pipelined mode, call
  /// only while quiescent (before the first Push or after a Flush).
  void set_cpu_budget(double budget);

  /// The supervision layer: breaker states, outcome counts, quarantine.
  const Supervisor& supervisor() const { return supervisor_; }
  Supervisor& supervisor() { return supervisor_; }

 private:
  /// One detected block, ready for analysis. Carries everything the
  /// analysis half needs so that, pipelined, the ingest and analyzer threads
  /// share no mutable monitor state: the detection output, the emission
  /// window, the ingest tallies and (pipelined only) the sample copy.
  struct BlockJob {
    dsp::SampleVec samples;      // pipelined mode: copy of the block
    DetectOutput det;
    std::int64_t base = 0;       // absolute index of samples[0]
    std::size_t take = 0;        // block length
    std::int64_t emit_from = 0;  // ownership window [emit_from, boundary)
    std::int64_t boundary = 0;
    bool gap_cut = false;
    int shed_stage = 0;          // stage the block was detected at
    double detect_seconds = 0.0;
    // Ingest tallies flushed into this block's HealthReport.
    std::uint32_t gap_count = 0;
    std::int64_t gap_samples = 0;
    std::int64_t overlap_samples = 0;
    std::uint64_t sanitized = 0;
  };

  [[nodiscard]] bool pipelined() const { return analyzer_.joinable(); }
  /// Ingest half of a block: detect on the calling thread and package a
  /// BlockJob; serial mode then runs AnalyzeBlock inline on the live
  /// buffer, pipelined mode copies the block and enqueues the job (blocking
  /// when full). Either way the ingest state advances afterwards.
  void ProcessBlock(bool final_block, bool gap_cut);
  void AnalyzerLoop();
  /// Analysis half of a block over its samples `x`: analysis fan-out,
  /// health, emission, shed-controller update.
  void AnalyzeBlock(BlockJob& job, dsp::const_sample_span x);
  /// Blocks until the analyzer queue is empty and the analyzer is idle.
  void DrainQueue();
  /// Empty-block health emission: folds the pending ingest tallies into `h`
  /// and forwards to RecordHealth.
  void EmitHealth(HealthReport h);
  /// Summary/ring/metrics bookkeeping + health emission (tally-free; safe
  /// from the analyzer thread).
  void RecordHealth(const HealthReport& h);
  void UpdateShedding(double block_load, bool deadline_pressure,
                      bool backpressure);
  void ApplyShedStage();
  [[nodiscard]] std::uint64_t AppendSanitized(dsp::const_sample_span samples);

  Config config_;
  /// Owned here (not in the pipeline) so breaker state and quarantine survive
  /// the pipeline reconstructions that shed-stage changes trigger.
  Supervisor supervisor_;
  Supervisor::Counts last_counts_;  // snapshot for per-block deltas
  RFDumpPipeline pipeline_;  // persists across blocks (reflects shed stage);
                             // owned by the ingest/detect thread
  dsp::SampleVec buffer_;
  std::int64_t buffer_start_ = 0;      // absolute index of buffer_[0]
  std::int64_t emitted_until_ = 0;     // results before this are already out
  std::int64_t expected_next_ = -1;    // next expected timestamp (-1: unset)
  std::uint64_t samples_processed_ = 0;
  StageCosts costs_;
  std::vector<Gap> gaps_;
  std::deque<HealthReport> health_;
  HealthSummary summary_;

  // Ingest-side tallies flushed into the next HealthReport.
  std::uint32_t pending_gap_count_ = 0;
  std::int64_t pending_gap_samples_ = 0;
  std::int64_t pending_overlap_samples_ = 0;
  std::uint64_t pending_sanitized_ = 0;

  // Load-shedding controller state. The controller runs wherever block
  // bookkeeping runs (caller thread when serial, analyzer thread when
  // pipelined); shed_stage_ is atomic because the ingest thread reads it as
  // the rebuild target and accessors may poll it.
  std::atomic<int> shed_stage_{0};
  int under_budget_blocks_ = 0;
  int applied_shed_stage_ = 0;  // ingest-side: stage pipeline_ was built at

  // Pipelined mode (threads >= 2): analyzer thread + bounded job queue.
  std::unique_ptr<Executor> executor_;
  std::thread analyzer_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;        // signalled on push / stop
  std::condition_variable queue_space_cv_;  // signalled on pop / idle
  std::deque<BlockJob> queue_;
  bool stop_ = false;
  bool analyzer_busy_ = false;
  std::atomic<bool> backpressure_{false};  // ingest stalled since last block
};

}  // namespace rfdump::core
