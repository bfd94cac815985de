/**
 * @file
 * Pass 2: one stream feeds every predictor lane.
 *
 * analyzeLanes() is the one pass-2 entry point — the engine, the
 * serve daemon's trace requests, `ppm import`, `ppm analyze
 * --trace-file` and `ppm converge` all call it. It runs a stream
 * producer (Machine::run, replayImported or replayTrace) once for
 * every lane config and picks the sink from the lane count: one lane
 * feeds its DpgAnalyzer directly (or the intra-run pipeline, with
 * PPM_INTRA_THREADS > 1 and no verify); two or more go through
 * FusedAnalysisSink.
 *
 * FusedAnalysisSink multiplexes the stream across N independent
 * DpgAnalyzer lanes: each 256-instruction block is staged once and
 * dispatched to every lane in submission order; each lane's own
 * onBlock decides whether to run its prefetch pipeline. Lanes are
 * fully independent — separate PredictorBank, value tables,
 * pending-arc arenas, influence scratch — so interleaving blocks
 * between lanes on one thread cannot perturb any lane's output; every
 * cell stays byte-identical to the serial runModel() path (pinned by
 * tests/test_fused.cc and the golden and cross-path suites).
 *
 * With dispatchThreads > 1 (the engine passes PPM_INTRA_THREADS) and
 * more than one lane, the per-block fan-out runs on a small worker
 * pool instead: workers claim lanes from an atomic cursor and the
 * dispatching thread waits for the block's lane count to drain before
 * the next block is produced. Lane independence makes the assignment
 * of lanes to workers unobservable, so outputs stay byte-identical;
 * per-lane laneSeconds attribution is preserved because exactly one
 * worker runs a given lane for a given block.
 */

#ifndef PPM_RUNNER_FUSED_SINK_HH
#define PPM_RUNNER_FUSED_SINK_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dpg/dpg_analyzer.hh"
#include "sim/trace.hh"

namespace ppm {

/** Multiplexing TraceSink owning N independent analyzer lanes. */
class FusedAnalysisSink : public TraceSink
{
  public:
    /**
     * Instructions per staged block on the onInstr (simulator) path:
     * the lanes' prefetch lookahead window.
     */
    static constexpr std::size_t kStageBlock = 256;

    /**
     * @p dispatchThreads > 1 enables the parallel lane fan-out (the
     * pool is sized min(dispatchThreads, laneCount) and spawned
     * lazily, on the first multi-lane dispatch).
     */
    explicit FusedAnalysisSink(unsigned dispatchThreads = 1);
    ~FusedAnalysisSink() override;

    /** Append a lane; returns its index. Lanes cannot be removed. */
    std::size_t addLane(std::unique_ptr<DpgAnalyzer> analyzer);

    std::size_t laneCount() const { return lanes_.size(); }

    /**
     * Wall seconds spent inside lane @p i's onBlock/onRunEnd calls —
     * the lane's own analyze cost, excluding the shared decode/staging
     * work (which the caller attributes once; see StageTiming).
     */
    double laneSeconds(std::size_t i) const
    {
        return lanes_[i].seconds;
    }

    /** Finalize lane @p i and take its statistics. */
    DpgStats takeStats(std::size_t i)
    {
        return lanes_[i].analyzer->takeStats();
    }

    /**
     * Simulator path: Machine::run emits one instruction at a time,
     * so the sink stages its own kStageBlock-sized batches before
     * dispatching to the lanes.
     */
    void onInstr(const DynInstr &di) override;

    /** Block producers: dispatch the producer's block to every lane. */
    void onBlock(std::span<const DynInstr> block) override;

    /** Flush any staged partial block, then end every lane's run. */
    void onRunEnd() override;

    /**
     * Warm-up mode for sampled runs: while on, dispatched blocks go
     * through each lane's warmupBlock() (predictor training only, no
     * statistics) instead of onBlock(). Flip only between producer
     * run() calls — dispatch is synchronous, so no block is in flight
     * across the transition. Turning warm-up off marks every lane's
     * warm-up end so gshare accuracy covers the measured stream only.
     */
    void setWarmup(bool on);

  private:
    struct Lane
    {
        std::unique_ptr<DpgAnalyzer> analyzer;
        double seconds = 0.0;
    };

    /** Timed per-lane fan-out of one block. */
    void dispatch(std::span<const DynInstr> block);

    /** Worker-pool fan-out (dispatchThreads_ > 1, 2+ lanes). */
    void dispatchParallel(std::span<const DynInstr> block);

    /** Spawn the lane-dispatch pool once. */
    void ensureWorkers();

    void workerLoop();

    std::vector<Lane> lanes_;

    /** Staging buffer for the onInstr path. */
    std::vector<DynInstr> staged_;

    // --- parallel lane dispatch ------------------------------------
    unsigned dispatchThreads_ = 1;
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable workCv_; ///< Workers: new block or stop.
    std::condition_variable doneCv_; ///< Dispatcher: block drained.
    std::span<const DynInstr> current_{};
    std::uint64_t generation_ = 0; ///< Bumped per dispatched block.
    std::size_t lanesDone_ = 0;    ///< Lanes finished this block.
    std::size_t busy_ = 0;         ///< Workers awake for this block.
    std::atomic<std::size_t> nextLane_{0}; ///< Work-stealing cursor.
    bool stop_ = false;

    /** Warm-up mode flag; workers read it under m_ per generation. */
    bool warmup_ = false;
};

/** Everything one pass-2 run produces, one entry per lane. */
struct LaneResults
{
    /** Finalized statistics, in lane-config order. */
    std::vector<DpgStats> stats;

    /**
     * Each lane's own analyze seconds, finalization included. A
     * 1-lane pass has no shared stage: its lane is the whole pass.
     */
    std::vector<double> laneSeconds;

    /**
     * Wall seconds of the whole pass: stream production plus every
     * lane. passSec minus the lane sum is the shared stream cost.
     */
    double passSec = 0.0;
};

/**
 * Run pass 2 of @p prog over one stream for every config in
 * @p lanes, against the pass-1 @p profile. @p produce must feed the
 * whole stream into the sink it is given and end the run (onRunEnd);
 * it is called exactly once. @p intraThreads > 1 pipelines a
 * non-verifying single lane (IntraRunPipeline) or dispatches
 * multiple lanes in parallel; output is byte-identical either way.
 */
LaneResults
analyzeLanes(const Program &prog, const ExecProfile &profile,
             const std::vector<DpgConfig> &lanes, unsigned intraThreads,
             const std::function<void(TraceSink &)> &produce);

} // namespace ppm

#endif // PPM_RUNNER_FUSED_SINK_HH
