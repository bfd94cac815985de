/**
 * @file
 * Experiment-engine tests: the parallel engine must be bit-identical
 * to the serial two-pass reference (runModel), pass-1 profiles must
 * be shared across predictor configs, and results must come back in
 * submission order.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/run_cache.hh"
#include "runner/stage_report.hh"
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
cellConfig(PredictorKind kind)
{
    ExperimentConfig config;
    config.maxInstrs = kBudget;
    config.dpg.kind = kind;
    return config;
}

// The determinism contract: parallel scheduling with a shared pass-1
// profile and a re-simulated pass 2 is bit-identical to the serial
// two-pass reference, across workloads (incl. FP) and every predictor
// kind.
TEST(ExperimentEngine, ParallelReplayMatchesSerialReference)
{
    const std::vector<const char *> names = {"compress", "gcc",
                                             "swim"};

    EngineOptions opts;
    opts.threads = 3;
    ExperimentEngine engine(opts);

    std::vector<ExperimentJob> jobs;
    for (const char *name : names)
        for (PredictorKind kind : kAllPredictorKinds)
            jobs.push_back(
                engine.makeJob(findWorkload(name), cellConfig(kind)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), names.size() * 3);

    std::size_t i = 0;
    for (const char *name : names) {
        for (PredictorKind kind : kAllPredictorKinds) {
            const DpgStats ref =
                referenceStats(findWorkload(name), cellConfig(kind));
            EXPECT_EQ(fingerprint(outcomes[i].stats),
                      fingerprint(ref))
                << name << " cell " << i;
            ++i;
        }
    }
}

TEST(ExperimentEngine, CaptureSharedAcrossPredictorConfigs)
{
    EngineOptions opts;
    opts.threads = 1;  // Serialize so hit accounting is exact.
    ExperimentEngine engine(opts);

    const auto outcomes = engine.run(engine.workloadMatrix(
        {findWorkload("compress")},
        {PredictorKind::LastValue, PredictorKind::Stride2Delta,
         PredictorKind::Context},
        cellConfig(PredictorKind::Context)));

    // The three cells coalesce into one 3-lane group: lane 0 runs
    // pass 1, lanes 1..2 share it, and the group looks its key up
    // once.
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].timing.captureShared);
    EXPECT_TRUE(outcomes[1].timing.captureShared);
    EXPECT_TRUE(outcomes[2].timing.captureShared);
    for (const ExperimentOutcome &out : outcomes)
        EXPECT_EQ(out.timing.fusedLanes, 3u);

    const auto counters = engine.cache().counters();
    EXPECT_EQ(counters.captureMisses, 1u);
    EXPECT_EQ(counters.captureHits, 0u);
    // One workload, three cells: assembled exactly once.
    EXPECT_EQ(counters.programMisses, 1u);
    EXPECT_EQ(counters.programHits, 2u);
}

TEST(ExperimentEngine, ResultsComeBackInSubmissionOrder)
{
    EngineOptions opts;
    opts.threads = 4;
    ExperimentEngine engine(opts);

    const std::vector<const char *> names = {"li", "go", "compress",
                                             "m88ksim"};
    std::vector<ExperimentJob> jobs;
    for (const char *name : names)
        jobs.push_back(engine.makeJob(
            findWorkload(name),
            cellConfig(PredictorKind::LastValue)));

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(outcomes[i].stats.workload, names[i]);
}

// Regression for the capture-release bookkeeping: with one distinct
// capture key per job (here, distinct instruction budgets), the old
// per-key hash map could rehash while workers held references into
// it. The vector-of-groups layout must hand every worker a stable
// index no matter how many keys the batch creates — results must
// still be bit-identical to the serial reference and come back in
// submission order.
TEST(ExperimentEngine, ManyDistinctCaptureKeysStayStable)
{
    EngineOptions opts;
    opts.threads = 4;
    ExperimentEngine engine(opts);

    const Workload &w = findWorkload("compress");
    constexpr std::size_t kJobs = 32;
    std::vector<ExperimentJob> jobs;
    std::vector<ExperimentConfig> configs;
    for (std::size_t i = 0; i < kJobs; ++i) {
        ExperimentConfig config =
            cellConfig(PredictorKind::LastValue);
        config.maxInstrs = 2000 + 97 * i;  // Distinct capture key.
        configs.push_back(config);
        jobs.push_back(engine.makeJob(w, config));
    }

    const auto outcomes = engine.run(jobs);
    ASSERT_EQ(outcomes.size(), kJobs);
    // Every key was its own group: no capture sharing anywhere.
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_FALSE(outcomes[i].timing.captureShared)
            << "job " << i;
    // Spot-check full fingerprints at the ends and middle; budgets in
    // between must at least be honored in submission order.
    for (const std::size_t i : {std::size_t{0}, kJobs / 2, kJobs - 1})
        EXPECT_EQ(fingerprint(outcomes[i].stats),
                  fingerprint(referenceStats(w, configs[i])))
            << "job " << i;
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_LE(outcomes[i].stats.dynInstrs, configs[i].maxInstrs)
            << "job " << i;
}

TEST(ExperimentEngine, PpmThreadsEnvOverride)
{
    ASSERT_EQ(setenv("PPM_THREADS", "3", 1), 0);
    {
        ExperimentEngine engine;
        EXPECT_EQ(engine.threads(), 3u);
    }
    unsetenv("PPM_THREADS");

    // Explicit options beat the environment.
    ASSERT_EQ(setenv("PPM_THREADS", "7", 1), 0);
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    EXPECT_EQ(engine.threads(), 2u);
    unsetenv("PPM_THREADS");
}

// Malformed env values used to fall back silently (a typo in
// PPM_THREADS ran the sweep single-threaded with no hint); they must
// abort loudly, naming the offending variable.
TEST(ExperimentEngine, MalformedEnvFailsLoudly)
{
    for (const char *bad : {"garbage", "3x", "-2", ""}) {
        if (*bad == '\0')
            continue;  // Empty means unset: falls back, no error.
        ASSERT_EQ(setenv("PPM_THREADS", bad, 1), 0);
        try {
            ExperimentEngine engine;
            FAIL() << "PPM_THREADS=" << bad << " did not throw";
        } catch (const EnvError &e) {
            EXPECT_NE(std::string(e.what()).find("PPM_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
    unsetenv("PPM_THREADS");

    ASSERT_EQ(setenv("PPM_THREADS", "0", 1), 0);
    EXPECT_THROW(ExperimentEngine{}, EnvError);  // Below min (1).
    unsetenv("PPM_THREADS");
}

TEST(RunCache, HashCollisionReturnsRightProgram)
{
    RunCache cache;
    // Force every source to the same 64-bit key: any second distinct
    // source is now a guaranteed collision for the same name.
    cache.setSourceHashForTesting(
        [](std::string_view) { return std::uint64_t{42}; });

    const auto a = cache.program("w", "li $4, 1\nhalt\n");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->textSize(), 2u);

    // Same name, different source, same hash: before the fix this
    // returned program `a` (2 instructions) for a 3-instruction
    // source.
    const auto b = cache.program("w", "li $4, 1\nnop\nhalt\n");
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(b->textSize(), 3u);

    // A true re-request of the first source still hits.
    const auto a2 = cache.program("w", "li $4, 1\nhalt\n");
    EXPECT_EQ(a.get(), a2.get());

    const auto counters = cache.counters();
    EXPECT_EQ(counters.programMisses, 1u);
    EXPECT_EQ(counters.programCollisions, 1u);
    EXPECT_EQ(counters.programHits, 1u);
}

TEST(ExperimentEngine, StageReportCarriesSchemaAndTotals)
{
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    engine.run(engine.workloadMatrix(
        {findWorkload("compress")},
        {PredictorKind::LastValue, PredictorKind::Context},
        cellConfig(PredictorKind::Context)));

    std::ostringstream json;
    writeBenchJson(json, engine);
    const std::string doc = json.str();
    EXPECT_NE(doc.find("\"schema\":\"ppm-bench-timing-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"workload\":\"compress\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"totals\":{\"runs\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"simulations\":1"), std::string::npos);

    std::ostringstream summary;
    printStageSummary(summary, engine);
    EXPECT_NE(summary.str().find("2 runs"), std::string::npos);
}

TEST(RunCache, HashInputSeparatesStreams)
{
    const Workload &w = findWorkload("compress");
    const auto a = w.makeInput(1);
    const auto b = w.makeInput(2);
    EXPECT_NE(hashInput(a), hashInput(b));
    EXPECT_EQ(hashInput(a), hashInput(w.makeInput(1)));
    EXPECT_NE(hashInput({}), hashInput({0}));
}

} // namespace
} // namespace ppm
