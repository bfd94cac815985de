/**
 * @file
 * The request-oriented parallel experiment engine.
 *
 * An experiment cell is one (program, input, ExperimentConfig)
 * triple — e.g. one of the 12 workloads × 3 predictors of a figure
 * binary, or one request a serve daemon admitted. The engine owns a
 * persistent pool of worker threads fed from a pending queue:
 *
 *   submit(ExperimentRequest)  -> RequestHandle   admit one cell
 *   submitAll(jobs)            -> handles         admit atomically
 *   RequestHandle::wait()      -> ExperimentOutcome (blocks)
 *   RequestHandle::cancel()                        unqueue if pending
 *
 * run(jobs) remains as a submit-all-then-wait shim with the original
 * batch semantics (outcomes in submission order, first submission-
 * order exception rethrown after the batch drains), so every existing
 * caller keeps working unchanged.
 *
 * Per cell the engine:
 *
 *   1. assembles the program once per process (RunCache),
 *   2. profiles once per in-flight (program, input, budget) — pass 1,
 *      shared by every cell of that key still in flight,
 *   3. simulates the deterministic stream again straight into the
 *      DpgAnalyzer — pass 2.
 *
 * Machine::run is the only stream source. An in-memory copy of pass
 * 1's stream for pass 2 cost 85-90 B per instruction, cut pass 1 from
 * ~20M to ~6-7M instrs/s, and overflowed its memory cap on the
 * largest workloads; the deterministic simulator reproduces the
 * stream exactly, so pass 2 simply runs it again (DESIGN.md Sec. 6).
 *
 * Fused sweeps (default; see fused_sink.hh and DESIGN.md Sec. 10/11):
 * when a worker claims the front of the pending queue it also claims
 * every other *pending* request sharing the same CaptureKey — same
 * (program, input, instruction budget), differing only in predictor
 * configuration — and analyzes the whole group in ONE pass: the
 * stream is simulated once and each block is dispatched to every
 * lane. The coalescing window is therefore the pending queue at
 * claim time: a batch enqueued atomically by run()/submitAll()
 * coalesces exactly as the old batch engine did, while a serve
 * daemon's requests coalesce opportunistically with whatever is
 * still queued. Cells with
 * different budgets never coalesce because their CaptureKeys differ.
 * PPM_FUSED=0 restores one-pass-per-cell scheduling for bisection.
 *
 * Each cell's analysis is bit-identical to the serial two-pass
 * runModel() path because the simulator is deterministic and fused
 * lanes are fully independent (asserted in tests/test_runner.cc,
 * tests/test_fused.cc and tests/test_engine_api.cc).
 *
 * Pass-1 profiles are reference-counted across in-flight requests
 * and released when the last request needing one completes, so
 * requests share a profile only while they overlap.
 *
 * Environment knobs (resolved at engine construction; see
 * EngineOptions::fromEnv()):
 *   PPM_THREADS       worker count (default: hardware concurrency)
 *   PPM_INTRA_THREADS threads per analysis run (default 1 = serial).
 *                     > 1 runs each cell through the intra-run
 *                     pipeline (runner/intra_pipeline.hh) — and lets
 *                     a fused pass dispatch its lanes in parallel —
 *                     with byte-identical output; ignored under
 *                     PPM_VERIFY (differential verification needs
 *                     the serial analyzer)
 *   PPM_FUSED=0       disable fused sweeps (one pass per cell)
 *   PPM_VERIFY=1      run every cell with differential verification:
 *                     oracle predictors in lockstep with pred/ plus
 *                     the DPG invariant audit (see src/verify/,
 *                     TESTING.md); any divergence throws
 *   PPM_SAMPLE=<interval>,<warmup>,<maxphases>
 *                     phase-sampled scheduling (see
 *                     runner/sampled_run.hh and DESIGN.md Sec. 13):
 *                     profile + checkpoint the full budget once,
 *                     analyze one weighted representative interval
 *                     per phase. Off by default; PPM_VERIFY wins
 *                     (verified cells run unsampled)
 *   PPM_BENCH_JSON    path: the shared engine writes a stage-timing
 *                     JSON report at process exit
 *   PPM_TRACE_JSON    path: hierarchical spans (assemble / simulate /
 *                     analyze / job / run_batch) are captured and
 *                     exported as Chrome-trace JSON at process exit
 *   PPM_METRICS       path or "-": the metrics registry is dumped at
 *                     process exit (see obs/obs.hh)
 *
 * Malformed env values (PPM_THREADS=abc) throw EnvError naming the
 * variable instead of being silently treated as unset.
 */

#ifndef PPM_RUNNER_ENGINE_HH
#define PPM_RUNNER_ENGINE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/experiment.hh"
#include "obs/metrics.hh"
#include "runner/run_cache.hh"
#include "runner/sampled_run.hh"
#include "workloads/workload.hh"

namespace ppm {

/** Wall-time breakdown of one experiment cell. */
struct StageTiming
{
    double assembleSec = 0.0;  ///< 0 when the program came from cache.
    double simulateSec = 0.0;  ///< Pass-1 profile (of the cell that ran it).
    double analyzeSec = 0.0;   ///< Model pass (re-simulation + analysis).

    /**
     * Always false: pass 2 always re-simulates. Kept because the
     * benchmark driver (perfbench/ppmbench.cc) reads it for its
     * runner.replay_frac layer metric.
     */
    bool replayed = false;

    /** The pass-1 profile came from the cache (another cell ran it). */
    bool captureShared = false;

    /** This cell ran as one lane of a fused multi-cell pass. */
    bool fused = false;

    /** Lane count of the fused pass (0 when not fused). */
    unsigned fusedLanes = 0;

    /** This cell's lane index within the fused pass. */
    unsigned laneIndex = 0;

    /**
     * Shared decode/staging cost of the fused pass (pass wall minus
     * the per-lane analyze times), attributed once, on lane 0. For
     * fused cells analyzeSec is the lane's own dispatch time only, so
     * summing analyzeSec across lanes never double-counts the shared
     * stream production (see stage_report.cc's shared_stages).
     */
    double dispatchSec = 0.0;

    std::uint64_t dynInstrs = 0;

    /** Seconds the request waited in the pending queue. */
    double queueSec = 0.0;

    // --- phase sampling (PPM_SAMPLE; runner/sampled_run.hh) --------

    /** This cell ran through the phase-sampled scheduler. */
    bool sampled = false;

    /** Phases the clusterer found (0 when not sampled). */
    unsigned phases = 0;

    /** Instructions analyzed in pass B (warm-up + representatives). */
    std::uint64_t sampledInstrs = 0;

    /**
     * Checkpoint capture (dirty-page copy) seconds of the profiling
     * pass; like dispatchSec, attributed once, on lane 0.
     */
    double checkpointSec = 0.0;

    /**
     * Pass-B fast-forward seconds (page-delta restores + gap
     * simulation); attributed once, on lane 0.
     */
    double fastForwardSec = 0.0;
};

/** One experiment cell. */
struct ExperimentJob
{
    std::shared_ptr<const Program> program;
    std::shared_ptr<const std::vector<Value>> input;
    ExperimentConfig config{};
    bool isFloat = false;

    /** Assembly cost, when the job's creator assembled the program. */
    double assembleSec = 0.0;
};

/** One admission into the engine: a cell plus request metadata. */
struct ExperimentRequest
{
    ExperimentJob job;
};

/** One cell's result. */
struct ExperimentOutcome
{
    DpgStats stats;
    bool isFloat = false;
    StageTiming timing;
};

/** Construction-time overrides; 0 / nullopt defer to the environment. */
struct EngineOptions
{
    unsigned threads = 0;

    /**
     * Threads devoted to a *single* analysis run (PPM_INTRA_THREADS;
     * default 1 = the serial analyzer). Values > 1 pipeline each
     * cell's block dispatch across stages (predict / graph / arc
     * shards — see runner/intra_pipeline.hh) and let fused passes
     * dispatch lanes in parallel; output stays byte-identical.
     */
    unsigned intraThreads = 0;

    std::optional<bool> verify;
    std::optional<bool> fused;

    /**
     * Phase-sampling knobs; nullopt defers to PPM_SAMPLE (see
     * runner/sampled_run.hh). A disabled value (the unset-variable
     * default) keeps every classic path byte-identical. PPM_VERIFY
     * wins over sampling: differential verification audits full
     * per-instruction state, so verified cells run unsampled.
     */
    std::optional<SampleOptions> sample;

    /**
     * Every knob resolved from the environment (PPM_THREADS,
     * PPM_INTRA_THREADS, PPM_VERIFY, PPM_FUSED, PPM_SAMPLE), with the
     * documented defaults for unset variables. The single resolution
     * path shared by the engine constructor, the CLI, the serve
     * daemon, and tests — a malformed value throws EnvError naming
     * the variable.
     */
    static EngineOptions fromEnv();

    /**
     * This options value with every unset field (0 / nullopt) filled
     * from the environment. Explicit fields win; their env variables
     * are then not even parsed, so an override also shields a
     * malformed variable.
     */
    EngineOptions withEnvFallback() const;
};

/** Terminal state of a submitted request. */
enum class RequestStatus
{
    Pending,   ///< Queued; no worker has claimed it yet.
    Running,   ///< Claimed by a worker (possibly as a fused lane).
    Done,      ///< Completed; outcome available.
    Failed,    ///< Completed with an exception (wait() rethrows).
    Cancelled, ///< Unqueued by cancel() before any worker claimed it.
};

/** wait() on a request that was cancelled before running. */
class RequestCancelled : public std::runtime_error
{
  public:
    RequestCancelled()
        : std::runtime_error("experiment request cancelled")
    {
    }
};

namespace detail {
struct RequestState;
} // namespace detail

class ExperimentEngine;

/**
 * Caller's end of one submitted request. Handles are cheap shared
 * references; they must not outlive the engine that issued them.
 */
class RequestHandle
{
  public:
    RequestHandle() = default;

    bool valid() const { return state_ != nullptr; }

    /** Engine-unique, monotonically increasing admission id. */
    std::uint64_t id() const;

    RequestStatus status() const;

    /**
     * Block until the request reaches a terminal state, then move the
     * outcome out (single-shot). Rethrows the cell's exception on
     * Failed; throws RequestCancelled on Cancelled, and
     * std::logic_error on a default-constructed (invalid) handle.
     */
    ExperimentOutcome wait();

    /**
     * Unqueue the request if no worker claimed it yet. Returns true
     * when the request was cancelled (wait() will throw
     * RequestCancelled), false when it already ran or is running, or
     * when the handle is invalid.
     */
    bool cancel();

  private:
    friend class ExperimentEngine;
    explicit RequestHandle(std::shared_ptr<detail::RequestState> s)
        : state_(std::move(s))
    {
    }

    std::shared_ptr<detail::RequestState> state_;
};

class ExperimentEngine
{
  public:
    explicit ExperimentEngine(const EngineOptions &opts = {});
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Admit one request into the pending queue and return its handle.
     * Workers claim continuously; the request may coalesce into a
     * fused pass with other pending requests sharing its CaptureKey.
     */
    RequestHandle submit(ExperimentRequest request);

    /**
     * Admit every job atomically — all enter the pending queue before
     * any worker can claim one, so cells sharing a CaptureKey are
     * guaranteed to coalesce exactly as one batch (the run() shim's
     * grouping guarantee). Handles are in @p jobs order.
     */
    std::vector<RequestHandle>
    submitAll(const std::vector<ExperimentJob> &jobs);

    /**
     * Batch shim over submitAll(): run every job, returning outcomes
     * in submission order. The first job exception (again in
     * submission order) is rethrown after the whole batch drains.
     * An empty batch returns an empty vector without touching the
     * pool.
     */
    std::vector<ExperimentOutcome>
    run(const std::vector<ExperimentJob> &jobs);

    /** Build a job for one (workload, config) cell. */
    ExperimentJob
    makeJob(const Workload &w, const ExperimentConfig &config,
            std::uint64_t seed = kDefaultWorkloadSeed);

    /**
     * Jobs for @p workloads × @p kinds in paper presentation order
     * (per workload: every predictor); @p base supplies every knob
     * except dpg.kind.
     */
    std::vector<ExperimentJob>
    workloadMatrix(const std::vector<Workload> &workloads,
                   const std::vector<PredictorKind> &kinds,
                   const ExperimentConfig &base);

    RunCache &cache() { return cache_; }
    unsigned threads() const { return threads_; }
    unsigned intraThreads() const { return intraThreads_; }
    bool verifyEnabled() const { return verify_; }
    bool fusedEnabled() const { return fused_; }

    const SampleOptions &sampleOptions() const { return sample_; }

    /** Sampling is configured and not overridden by PPM_VERIFY. */
    bool samplingEnabled() const
    {
        return sample_.enabled() && !verify_;
    }

    /** Requests admitted and not yet terminal (pending + running). */
    unsigned inflight() const;

    /** Requests queued and not yet claimed by a worker. */
    std::size_t queueDepth() const;

    /** One entry per completed cell, in completion batches. */
    struct TimedRun
    {
        std::string workload;
        PredictorKind kind;
        StageTiming timing;
    };

    /** Timing history of every completed cell plus total active wall. */
    std::vector<TimedRun> history() const;
    double totalWallSec() const;

    /**
     * The process-wide engine the bench drivers and CLI share. Writes
     * the PPM_BENCH_JSON stage report at exit when that is set.
     */
    static ExperimentEngine &shared();

  private:
    friend class RequestHandle;
    using StatePtr = std::shared_ptr<detail::RequestState>;

    ExperimentOutcome runJob(const ExperimentJob &job);

    /** Get-or-run the pass-1 profile for @p job's CaptureKey. */
    RunCache::CaptureRef captureFor(const ExperimentJob &job);

    /**
     * Run a coalesced group of jobs — same CaptureKey, different
     * predictor configs — through one FusedAnalysisSink pass.
     * Outcomes are returned in @p group order.
     */
    std::vector<ExperimentOutcome>
    runFusedJobs(const std::vector<const ExperimentJob *> &group);

    /**
     * Run a claimed group through the phase-sampled scheduler
     * (samplingEnabled()): no RunCache entry — the profiling pass
     * streams straight into checkpoints and interval signatures and
     * the measurement pass analyzes representatives only. Outcomes
     * are returned in @p group order.
     */
    std::vector<ExperimentOutcome>
    runSampledJobs(const std::vector<const ExperimentJob *> &group);

    /** Enqueue one request; queueMutex_ must be held. */
    StatePtr enqueueLocked(ExperimentJob job, bool recordHistory);

    /** Spawn the worker pool on first use; queueMutex_ must be held. */
    void ensureWorkersLocked();

    /**
     * Pop the front request plus — in fused mode — every other
     * pending request sharing its CaptureKey (the coalescing
     * window); queueMutex_ must be held.
     */
    std::vector<StatePtr> claimLocked();

    /** Execute one claimed group and publish its terminal states. */
    void runClaimed(const std::vector<StatePtr> &group);

    void workerLoop(unsigned wi);

    /** submitAll with control over history recording (run() shim). */
    std::vector<RequestHandle>
    submitAllInternal(const std::vector<ExperimentJob> &jobs,
                      bool recordHistory);

    RunCache cache_;
    unsigned threads_ = 1;
    unsigned intraThreads_ = 1;
    bool verify_ = false;
    bool fused_ = true;
    bool reportAtExit_ = false;
    SampleOptions sample_{};

    /** Metric handles; null when observability is off (obs/obs.hh). */
    obs::Counter *obsJobs_ = nullptr;
    obs::Counter *obsBatches_ = nullptr;
    obs::Counter *obsSimulations_ = nullptr;
    obs::Counter *obsResims_ = nullptr;
    obs::Counter *obsFusedGroups_ = nullptr;
    obs::Counter *obsFusedLanes_ = nullptr;
    obs::Counter *obsWorkerBusyUs_ = nullptr;
    obs::Counter *obsCancelled_ = nullptr;
    obs::Gauge *obsQueueDepth_ = nullptr;
    obs::Gauge *obsInflight_ = nullptr;
    obs::Gauge *obsHitRate_ = nullptr;
    obs::Histogram *obsQueueUs_ = nullptr;
    obs::Histogram *obsLatencyUs_ = nullptr;

    // --- request queue and worker pool -----------------------------
    mutable std::mutex queueMutex_;
    std::condition_variable workCv_; ///< Workers: work or stop.
    std::condition_variable doneCv_; ///< Waiters: a request finished.
    std::deque<StatePtr> pending_;
    std::vector<std::jthread> pool_;
    bool poolStarted_ = false;
    bool stopping_ = false;
    std::uint64_t nextRequestId_ = 1;
    unsigned inflight_ = 0;

    /**
     * In-flight requests per CaptureKey: the pass-1 profile is
     * released when the count reaches zero.
     */
    std::unordered_map<CaptureKey, unsigned, CaptureKeyHash> liveKeys_;

    /**
     * Active-window wall accounting: the clock runs while at least
     * one request is in flight, so overlapping requests count once.
     */
    std::chrono::steady_clock::time_point activeStart_{};
    double windowBusySec_ = 0.0;

    mutable std::mutex historyMutex_;
    std::vector<TimedRun> history_;
    double totalWallSec_ = 0.0;
};

} // namespace ppm

#endif // PPM_RUNNER_ENGINE_HH
