/**
 * @file
 * Fused-sweep tests: N predictor cells sharing one (program, input,
 * budget) key run as lanes of a single pass (runner/fused_sink.hh)
 * and must stay byte-identical to the sequential per-cell path. Also
 * pins the coalescing rules — different budgets never coalesce, a
 * RunCache hit on the group's key skips no lane — and the stage-timing
 * attribution (shared stream cost counted once, on lane 0).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/fused_sink.hh"
#include "runner/run_cache.hh"
#include "runner/stage_report.hh"
#include "sim/machine.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

constexpr std::uint64_t kBudget = 60'000;

/** Collapse every counter a run produces into one comparable string. */
std::string
fingerprint(const DpgStats &s)
{
    std::ostringstream os;
    os << toJson(s);
    os << "|seq=" << s.sequences.instructionsInSequences();
    os << "|trees=" << s.trees.generateCount();
    os << "|lazy=" << s.lazyDataNodes << "," << s.inputDataNodes;
    os << "|combo=";
    for (std::uint64_t v : s.paths.perCombo)
        os << v << ",";
    os << "|sat=" << s.paths.saturationEvents;
    return os.str();
}

/** The serial two-pass reference for one workload cell. */
DpgStats
referenceStats(const Workload &w, const ExperimentConfig &config)
{
    const Program prog = assemble(std::string(w.source), w.name);
    return runModel(prog, w.makeInput(kDefaultWorkloadSeed), config);
}

ExperimentConfig
cellConfig(PredictorKind kind, std::uint64_t budget = kBudget)
{
    ExperimentConfig config;
    config.maxInstrs = budget;
    config.dpg.kind = kind;
    return config;
}

const std::vector<PredictorKind> &
allKinds()
{
    static const std::vector<PredictorKind> kinds(
        std::begin(kAllPredictorKinds), std::end(kAllPredictorKinds));
    return kinds;
}

// The sink itself, fed by a live simulation: Machine::run delivers
// one instruction at a time, so this exercises the internal
// 256-instruction staging path. Every lane must match its serial
// reference bit for bit.
TEST(FusedSink, SimulatorFeedsEveryLaneThroughStaging)
{
    const Workload &w = findWorkload("compress");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);

    ExecProfile profile(prog.textSize());
    {
        Machine m(prog, input);
        m.run(&profile, kBudget);
    }

    FusedAnalysisSink sink;
    for (PredictorKind kind : allKinds()) {
        DpgConfig cfg;
        cfg.kind = kind;
        sink.addLane(
            std::make_unique<DpgAnalyzer>(prog, profile, cfg));
    }
    {
        Machine m(prog, input);
        m.run(&sink, kBudget);
    }

    ASSERT_EQ(sink.laneCount(), allKinds().size());
    for (std::size_t i = 0; i < allKinds().size(); ++i) {
        EXPECT_EQ(fingerprint(sink.takeStats(i)),
                  fingerprint(referenceStats(
                      w, cellConfig(allKinds()[i]))))
            << "lane " << i;
    }
}

/** Records a live stream for block-wise feeding. */
class StreamRecorder : public TraceSink
{
  public:
    void onInstr(const DynInstr &di) override { stream.push_back(di); }

    std::vector<DynInstr> stream;
};

// The same sink fed from a recorded stream in producer-sized blocks,
// with single instructions mixed in between (the staged singles must
// drain first): identical output again, and per-lane seconds
// accumulate.
TEST(FusedSink, ReplayFeedsEveryLaneBlockwise)
{
    const Workload &w = findWorkload("gcc");
    const Program prog = assemble(std::string(w.source), w.name);
    const auto input = w.makeInput(kDefaultWorkloadSeed);

    ExecProfile profile(prog.textSize());
    {
        Machine m(prog, input);
        m.run(&profile, kBudget);
    }
    StreamRecorder recorder;
    {
        Machine m(prog, input);
        m.run(&recorder, kBudget);
    }
    ASSERT_EQ(recorder.stream.size(), profile.total());

    FusedAnalysisSink sink;
    for (PredictorKind kind : allKinds()) {
        DpgConfig cfg;
        cfg.kind = kind;
        sink.addLane(
            std::make_unique<DpgAnalyzer>(prog, profile, cfg));
    }
    const std::span<const DynInstr> all(recorder.stream);
    constexpr std::size_t kBlock = 300; // Not a multiple of staging.
    for (std::size_t i = 0; i < all.size();) {
        sink.onInstr(all[i++]);
        const std::size_t n = std::min(kBlock, all.size() - i);
        sink.onBlock(all.subspan(i, n));
        i += n;
    }
    sink.onRunEnd();

    for (std::size_t i = 0; i < allKinds().size(); ++i) {
        EXPECT_GE(sink.laneSeconds(i), 0.0);
        EXPECT_EQ(fingerprint(sink.takeStats(i)),
                  fingerprint(referenceStats(
                      w, cellConfig(allKinds()[i]))))
            << "lane " << i;
    }
}

// End to end: a fused engine and a sequential engine over the same
// matrix produce identical per-cell statistics, and the fused
// outcomes carry lane attribution.
TEST(FusedEngine, MatchesSequentialPerCell)
{
    const std::vector<const char *> names = {"compress", "li",
                                             "m88ksim"};

    auto runWith = [&](bool fused) {
        EngineOptions opts;
        opts.threads = 2;
        opts.fused = fused;
        ExperimentEngine engine(opts);
        std::vector<ExperimentJob> jobs;
        for (const char *name : names)
            for (PredictorKind kind : allKinds())
                jobs.push_back(engine.makeJob(
                    findWorkload(name), cellConfig(kind)));
        return engine.run(jobs);
    };

    const auto fused = runWith(true);
    const auto sequential = runWith(false);
    ASSERT_EQ(fused.size(), sequential.size());

    for (std::size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(fingerprint(fused[i].stats),
                  fingerprint(sequential[i].stats))
            << "cell " << i;
        EXPECT_TRUE(fused[i].timing.fused) << "cell " << i;
        EXPECT_FALSE(sequential[i].timing.fused) << "cell " << i;
        EXPECT_EQ(fused[i].timing.fusedLanes, allKinds().size())
            << "cell " << i;
        EXPECT_EQ(fused[i].timing.laneIndex, i % allKinds().size())
            << "cell " << i;
    }
}

// Coalescing rule: cells with different instruction budgets have
// different CaptureKeys and must never share a fused pass — a lane
// analyzing a longer stream than its budget would be wrong.
TEST(FusedEngine, DifferentBudgetsDoNotCoalesce)
{
    EngineOptions opts;
    opts.threads = 1;
    opts.fused = true;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    const std::vector<std::uint64_t> budgets = {20'000, 30'000,
                                                40'000};
    std::vector<ExperimentJob> jobs;
    for (std::uint64_t b : budgets)
        jobs.push_back(engine.makeJob(
            w, cellConfig(PredictorKind::LastValue, b)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), budgets.size());
    for (std::size_t i = 0; i < budgets.size(); ++i) {
        EXPECT_FALSE(outcomes[i].timing.fused) << "cell " << i;
        EXPECT_FALSE(outcomes[i].timing.captureShared)
            << "cell " << i;
        EXPECT_LE(outcomes[i].stats.dynInstrs, budgets[i])
            << "cell " << i;
        EXPECT_EQ(
            fingerprint(outcomes[i].stats),
            fingerprint(referenceStats(
                w, cellConfig(PredictorKind::LastValue, budgets[i]))))
            << "cell " << i;
    }
    // One capture per distinct budget, no sharing.
    EXPECT_EQ(engine.cache().counters().captureMisses,
              budgets.size());
    EXPECT_EQ(engine.cache().counters().captureHits, 0u);
}

// Mixed batch: same-budget cells coalesce, the odd budget stays a
// pass of its own, and results land in submission order.
TEST(FusedEngine, MixedBudgetsSplitIntoCorrectGroups)
{
    EngineOptions opts;
    opts.threads = 1;
    opts.fused = true;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("li");
    std::vector<ExperimentJob> jobs;
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::LastValue, kBudget)));
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::Context, kBudget)));
    jobs.push_back(engine.makeJob(
        w, cellConfig(PredictorKind::Stride2Delta, 30'000)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].timing.fused);
    EXPECT_TRUE(outcomes[1].timing.fused);
    EXPECT_EQ(outcomes[0].timing.fusedLanes, 2u);
    EXPECT_EQ(outcomes[1].timing.laneIndex, 1u);
    EXPECT_FALSE(outcomes[2].timing.fused);
    EXPECT_EQ(
        fingerprint(outcomes[0].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::LastValue, kBudget))));
    EXPECT_EQ(
        fingerprint(outcomes[1].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::Context, kBudget))));
    EXPECT_EQ(
        fingerprint(outcomes[2].stats),
        fingerprint(referenceStats(
            w, cellConfig(PredictorKind::Stride2Delta, 30'000))));
}

// Coalescing rule: a RunCache hit on the group's key must not skip
// any lane. Pre-warm the pass-1 profile through the cache, then run
// the matrix — the fused pass reuses the profile (one hit, no new
// pass-1 simulation) yet every lane still produces its full
// statistics.
TEST(FusedEngine, RunCacheHitSkipsNoLane)
{
    EngineOptions opts;
    opts.threads = 1;
    opts.fused = true;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : allKinds())
        jobs.push_back(engine.makeJob(w, cellConfig(kind)));

    // Seed the cache with the group's key, exactly as the engine
    // would compute it.
    const ExperimentJob &lead = jobs.front();
    const CaptureKey key{lead.program.get(), hashInput(*lead.input),
                         lead.config.maxInstrs};
    engine.cache().capture(key, [&]() -> CaptureResult {
        CaptureResult r;
        r.profile =
            std::make_unique<ExecProfile>(lead.program->textSize());
        Machine m(*lead.program, *lead.input);
        m.run(r.profile.get(), lead.config.maxInstrs);
        r.dynInstrs = r.profile->total();
        return r;
    });
    ASSERT_EQ(engine.cache().counters().captureMisses, 1u);

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), allKinds().size());
    // The fused pass hit the pre-warmed profile: no second pass 1.
    EXPECT_EQ(engine.cache().counters().captureMisses, 1u);
    EXPECT_EQ(engine.cache().counters().captureHits, 1u);
    EXPECT_TRUE(outcomes[0].timing.captureShared);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_TRUE(outcomes[i].timing.fused) << "cell " << i;
        EXPECT_EQ(fingerprint(outcomes[i].stats),
                  fingerprint(referenceStats(
                      w, cellConfig(allKinds()[i]))))
            << "cell " << i;
    }
}

// Stage-timing attribution: per-lane analyze time is separate from
// the shared stream cost, which lane 0 carries exactly once.
TEST(FusedEngine, SharedStageTimingCountedOnce)
{
    EngineOptions opts;
    opts.threads = 1;
    opts.fused = true;
    ExperimentEngine engine(opts);

    engine.run(engine.workloadMatrix({findWorkload("compress")},
                                     allKinds(),
                                     cellConfig(allKinds()[0])));

    const auto history = engine.history();
    ASSERT_EQ(history.size(), allKinds().size());
    for (std::size_t i = 0; i < history.size(); ++i) {
        const StageTiming &t = history[i].timing;
        EXPECT_TRUE(t.fused) << "cell " << i;
        EXPECT_EQ(t.laneIndex, i) << "cell " << i;
        if (i > 0) {
            EXPECT_EQ(t.dispatchSec, 0.0)
                << "shared cost leaked to lane " << i;
        }
        EXPECT_GE(t.analyzeSec, 0.0);
    }

    std::ostringstream json;
    writeBenchJson(json, engine);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"shared_stages\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"fused_groups\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"fused_lanes\":3"), std::string::npos);
    // One pass-1 simulation for the whole group, not one per lane.
    EXPECT_NE(doc.find("\"simulations\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"fused\":true"), std::string::npos);
}

// PPM_FUSED env knob: respected at engine construction, malformed
// values fail loudly like every other engine knob.
TEST(FusedEngine, EnvKnobControlsDefault)
{
    setenv("PPM_FUSED", "0", 1);
    {
        ExperimentEngine engine{EngineOptions{.threads = 1}};
        EXPECT_FALSE(engine.fusedEnabled());
    }
    setenv("PPM_FUSED", "1", 1);
    {
        ExperimentEngine engine{EngineOptions{.threads = 1}};
        EXPECT_TRUE(engine.fusedEnabled());
    }
    setenv("PPM_FUSED", "maybe", 1);
    EXPECT_THROW(ExperimentEngine{EngineOptions{.threads = 1}},
                 EnvError);
    unsetenv("PPM_FUSED");
    {
        ExperimentEngine engine{EngineOptions{.threads = 1}};
        EXPECT_TRUE(engine.fusedEnabled());
    }
}

} // namespace
} // namespace ppm
