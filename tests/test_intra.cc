/**
 * @file
 * Intra-run pipeline tests: PPM_INTRA_THREADS ∈ {2, 4, 8} must agree
 * byte-for-byte with the serial analyzer on every predictor kind —
 * through the engine's single-cell path and the fused multi-lane
 * pass — including zero-instruction budgets and
 * runs whose final block is partial. Differential verification must
 * keep the serial analyzer (and the pipeline must reject a verify
 * config outright).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/intra_pipeline.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
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
    return os.str();
}

ExperimentConfig
cellConfig(PredictorKind kind, std::uint64_t budget = kBudget)
{
    ExperimentConfig config;
    config.maxInstrs = budget;
    config.dpg.kind = kind;
    return config;
}

/** Serial engine outcome for one cell (the byte-identity baseline). */
std::string
serialFingerprint(const Workload &w, const ExperimentConfig &config)
{
    EngineOptions opts;
    opts.threads = 1;
    opts.intraThreads = 1;
    opts.fused = false;
    ExperimentEngine engine(opts);
    auto outs = engine.run({engine.makeJob(w, config)});
    return fingerprint(outs.at(0).stats);
}

TEST(IntraRun, ByteIdenticalAcrossThreadCounts)
{
    const Workload &w = findWorkload("compress");
    for (PredictorKind kind : kAllPredictorKinds) {
        const std::string serial =
            serialFingerprint(w, cellConfig(kind));
        for (unsigned t : {2u, 4u, 8u}) {
            EngineOptions opts;
            opts.threads = 1;
            opts.intraThreads = t;
            opts.fused = false;
            ExperimentEngine engine(opts);
            auto outs =
                engine.run({engine.makeJob(w, cellConfig(kind))});
            EXPECT_EQ(fingerprint(outs.at(0).stats), serial)
                << "kind=" << predictorName(kind)
                << " intraThreads=" << t;
        }
    }
}

TEST(IntraRun, ByteIdenticalOnResimulationFallback)
{
    // Machine::run feeds the pipeline one instruction at a time, so
    // this exercises its own staging on a larger workload.
    const Workload &w = findWorkload("m88ksim");
    const ExperimentConfig config =
        cellConfig(PredictorKind::Stride2Delta);
    const std::string serial = serialFingerprint(w, config);

    EngineOptions opts;
    opts.threads = 1;
    opts.intraThreads = 4;
    opts.fused = false;
    ExperimentEngine engine(opts);
    auto outs = engine.run({engine.makeJob(w, config)});
    EXPECT_EQ(fingerprint(outs.at(0).stats), serial);
}

TEST(IntraRun, FusedLanesByteIdenticalUnderParallelDispatch)
{
    // A coalesced multi-lane pass with intraThreads > 1 dispatches
    // lanes on the sink's worker pool; every lane must still match
    // the serial per-cell result.
    const Workload &w = findWorkload("li");
    EngineOptions opts;
    opts.threads = 1;
    opts.intraThreads = 4;
    opts.fused = true;
    ExperimentEngine engine(opts);

    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kAllPredictorKinds)
        jobs.push_back(engine.makeJob(w, cellConfig(kind)));
    const auto outs = engine.run(jobs);

    ASSERT_EQ(outs.size(), std::size(kAllPredictorKinds));
    for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_TRUE(outs[i].timing.fused);
        EXPECT_EQ(fingerprint(outs[i].stats),
                  serialFingerprint(
                      w, cellConfig(kAllPredictorKinds[i])))
            << "lane kind=" << predictorName(kAllPredictorKinds[i]);
    }
}

TEST(IntraRun, EdgeBudgetsCompleteAndMatchSerial)
{
    // Zero instructions, a budget smaller than one 256-instruction
    // block, and a budget ending in a partial block.
    const Workload &w = findWorkload("compress");
    for (std::uint64_t budget : {0ull, 7ull, 1000ull}) {
        const ExperimentConfig config =
            cellConfig(PredictorKind::Context, budget);
        const std::string serial = serialFingerprint(w, config);
        EngineOptions opts;
        opts.threads = 1;
        opts.intraThreads = 4;
        opts.fused = false;
        ExperimentEngine engine(opts);
        auto outs = engine.run({engine.makeJob(w, config)});
        EXPECT_EQ(fingerprint(outs.at(0).stats), serial)
            << "budget=" << budget;
    }
}

TEST(IntraRun, VerifyKeepsSerialAnalyzer)
{
    // Differential verification requires the full-role analyzer: the
    // engine must silently fall back to the serial path (and still
    // produce the reference stats), while constructing a pipeline
    // with a verify config is a caller error.
    const Workload &w = findWorkload("compress");
    const ExperimentConfig config =
        cellConfig(PredictorKind::LastValue);
    const std::string serial = serialFingerprint(w, config);

    EngineOptions opts;
    opts.threads = 1;
    opts.intraThreads = 4;
    opts.fused = false;
    opts.verify = true;
    ExperimentEngine engine(opts);
    auto outs = engine.run({engine.makeJob(w, config)});
    EXPECT_EQ(fingerprint(outs.at(0).stats), serial);

    const Program prog = assemble(std::string(w.source), w.name);
    ExecProfile profile(prog.textSize());
    Machine m(prog, w.makeInput(kDefaultWorkloadSeed));
    m.run(&profile, kBudget);
    DpgConfig verifying = config.dpg;
    verifying.verify = true;
    EXPECT_THROW(IntraRunPipeline(prog, profile, verifying, 4),
                 std::invalid_argument);
}

TEST(IntraRun, DirectPipelineMatchesDirectAnalyzer)
{
    // Pipeline fed straight from the simulator (no engine, no cache):
    // stats must equal a serial DpgAnalyzer fed the same stream, for
    // every worker split (T=2 combined .. T=8 with 5 arc shards).
    const Workload &w = findWorkload("go");
    const Program prog = assemble(std::string(w.source), w.name);
    const std::vector<Value> input = w.makeInput(kDefaultWorkloadSeed);
    DpgConfig dpg = cellConfig(PredictorKind::Context).dpg;

    ExecProfile profile(prog.textSize());
    {
        Machine m(prog, input);
        m.run(&profile, kBudget);
    }

    DpgAnalyzer serial(prog, profile, dpg);
    {
        Machine m(prog, input);
        m.run(&serial, kBudget);
    }
    const std::string want = fingerprint(serial.takeStats());

    for (unsigned t : {2u, 3u, 4u, 5u, 8u}) {
        IntraRunPipeline pipeline(prog, profile, dpg, t);
        Machine m(prog, input);
        m.run(&pipeline, kBudget);
        EXPECT_EQ(fingerprint(pipeline.takeStats()), want)
            << "threads=" << t;
    }
}

TEST(IntraRun, EnvKnobResolution)
{
    unsetenv("PPM_INTRA_THREADS");
    EXPECT_EQ(EngineOptions::fromEnv().intraThreads, 1u);

    ASSERT_EQ(setenv("PPM_INTRA_THREADS", "4", 1), 0);
    EXPECT_EQ(EngineOptions::fromEnv().intraThreads, 4u);

    // An explicit override shields even a malformed variable.
    ASSERT_EQ(setenv("PPM_INTRA_THREADS", "garbage", 1), 0);
    EXPECT_THROW(EngineOptions::fromEnv(), EnvError);
    EngineOptions explicitIntra;
    explicitIntra.intraThreads = 2;
    EXPECT_EQ(explicitIntra.withEnvFallback().intraThreads, 2u);

    unsetenv("PPM_INTRA_THREADS");
}

} // namespace
} // namespace ppm
