/**
 * @file
 * Intra-run parallel DPG analysis: one run, several threads,
 * byte-identical output.
 *
 * The serial analyzer interleaves three kinds of work per
 * instruction: predictor lookups/updates (the PredictorBank), the
 * cross-value dataflow (influence, node/branch/sequence/tree/path
 * statistics), and live-value arc bookkeeping (pending lists +
 * ArcStats). Those slices touch disjoint state (see DpgRole in
 * dpg/dpg_analyzer.hh), so IntraRunPipeline runs them as pipeline
 * stages over the 256-instruction blocks the PR-5 dispatch already
 * batches:
 *
 *   producer (caller thread)  — the simulator, publishing copied
 *                               blocks into a bounded ring
 *   stage 0: predict          — bank lookups in stream order, one
 *                               PredByte annotation per instruction
 *   stage 1: graph            — annotation-driven dataflow
 *                               bookkeeping, in stream order
 *   stage 2+: arc shards      — pending-arc lists partitioned by
 *                               register index / memory word modulo
 *                               shardCount
 *
 * Determinism argument (the hard constraint): the predict stage
 * performs exactly the serial bank-call sequence, so annotations and
 * predictor state are bit-equal; the graph stage consumes blocks in
 * stream order on one thread, so every order-sensitive statistic
 * (sequences, trees/generation ids, influence flow) is computed
 * exactly as serially; arc shards own each value's whole lifecycle
 * (reads, installs, kill-time flush), and every cross-shard merged
 * quantity (ArcStats counters, lazy D-node counts, histograms) is a
 * commutative sum — so the shard partition cannot reorder anything
 * observable. The merge (DpgStats::mergePartial) therefore reproduces
 * the serial DpgStats byte for byte for any thread count, pinned by
 * tests/test_intra.cc and the cross-path suite.
 *
 * Thread mapping for T = PPM_INTRA_THREADS (total, including the
 * producing caller): T=2 runs one combined worker (produce/analyze
 * overlap); T=3 splits predict from graph+arcs; T=4 dedicates a
 * worker per stage; T>=5 adds arc shards (T-3 of them, max 5).
 *
 * Differential verification is not split across stages: under
 * PPM_VERIFY the engine keeps the serial analyzer (PPM_INTRA_THREADS
 * is ignored for those cells), which is also the documented bisection
 * fallback (TESTING.md).
 */

#ifndef PPM_RUNNER_INTRA_PIPELINE_HH
#define PPM_RUNNER_INTRA_PIPELINE_HH

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dpg/dpg_analyzer.hh"
#include "sim/trace.hh"

namespace ppm {

/** Staged TraceSink running one analysis across several threads. */
class IntraRunPipeline : public TraceSink
{
  public:
    /** Instructions per staged block (matches the fused staging). */
    static constexpr std::size_t kStageBlock = 256;

    /** Ring capacity in blocks: bounds producer run-ahead. */
    static constexpr std::size_t kRingSlots = 16;

    /** Hard cap on total threads (producer + workers). */
    static constexpr unsigned kMaxThreads = 8;

    /**
     * @p threads is the total thread budget including the producing
     * caller; values are clamped to [2, kMaxThreads] (1 would be the
     * serial analyzer — the engine never builds a pipeline for it).
     * @p config must not have verify set (std::invalid_argument).
     */
    IntraRunPipeline(const Program &prog, const ExecProfile &profile,
                     const DpgConfig &config, unsigned threads);

    ~IntraRunPipeline() override;

    /** Simulator path: stages kStageBlock batches. */
    void onInstr(const DynInstr &di) override;

    /** Block producers: copy the block into the ring and publish it. */
    void onBlock(std::span<const DynInstr> block) override;

    /** Flush staging, signal end-of-stream, and join the workers. */
    void onRunEnd() override;

    /**
     * Drain the pipeline (if onRunEnd has not already) and merge the
     * per-stage partial states into the serial-identical DpgStats.
     */
    DpgStats takeStats();

    /** Worker threads this pipeline runs (excludes the producer). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(stages_.size());
    }

  private:
    /** One published block: copied instructions + annotations. */
    struct Slot
    {
        std::vector<DynInstr> instrs;
        std::vector<PredByte> ann;
    };

    /** One worker stage: a role-restricted analyzer + its cursor. */
    struct Stage
    {
        std::unique_ptr<DpgAnalyzer> analyzer;
        const char *name = "";

        /** Blocks fully processed by this stage (ring cursor). */
        std::uint64_t done = 0;

        /** Wall seconds inside this stage's analyze calls. */
        double seconds = 0.0;

        std::thread thread;
    };

    void publishBlock(std::span<const DynInstr> block);
    void workerLoop(unsigned wi);
    std::uint64_t minDoneLocked() const;

    /** Idempotent drain: flush, publish EOF, join, rethrow errors. */
    void finish();

    const DpgConfig cfg_;
    std::vector<Stage> stages_;

    /** Index of the stage whose DpgStats is the merge base. */
    std::size_t graphStage_ = 0;

    std::mutex m_;
    std::condition_variable workCv_;  ///< Workers: blocks or EOF.
    std::condition_variable spaceCv_; ///< Producer: ring space.
    std::array<Slot, kRingSlots> slots_;
    std::uint64_t head_ = 0; ///< Blocks published so far.
    bool eof_ = false;
    bool abort_ = false; ///< Destructor teardown without drain.
    bool finished_ = false;
    std::exception_ptr error_;

    /** Staging buffer for the onInstr path. */
    std::vector<DynInstr> staged_;
};

} // namespace ppm

#endif // PPM_RUNNER_INTRA_PIPELINE_HH
