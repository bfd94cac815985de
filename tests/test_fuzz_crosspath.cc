/**
 * @file
 * Cross-path fingerprint parity: the canonical fingerprint JSON of a
 * sampled set of fuzz-farm programs must be byte-identical whether
 * the stats come from the serial two-pass reference, the
 * single-thread engine, the 4-thread profile-sharing engine, or the
 * fused single-pass sweep. This is the corpus-level
 * analog of test_crosspath.cc: if any execution path perturbs a
 * single counter, the fingerprint string diffs.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "asmr/assembler.hh"
#include "runner/engine.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"

namespace ppm {
namespace {

/** The sampled (family, seed) cells; small but family-diverse. */
const std::vector<std::pair<const char *, std::uint64_t>> &
sampleCells()
{
    static const std::vector<std::pair<const char *, std::uint64_t>>
        kCells = {
            {"pointer-chase", 11},
            {"interp-dispatch", 12},
            {"branch-corr", 13},
            {"progen-mix", 14},
        };
    return kCells;
}

/** Path (a): serial two-pass model, no engine. */
std::string
serialFingerprint(const char *familyName, std::uint64_t seed)
{
    const auto &family = verify::findFamily(familyName);
    const Program prog = assemble(family.generate(seed),
                                  family.name);
    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentConfig config;
        config.maxInstrs = family.instrBound;
        config.dpg.kind = kind;
        runs.push_back(runModel(prog, {}, config));
    }
    return verify::fingerprintJson(
        std::string("family:") + familyName, seed, runs);
}

/** Paths (b)-(d): the engine, sequential or fused. */
std::string
engineFingerprint(const char *familyName, std::uint64_t seed,
                  unsigned threads, bool fused)
{
    const auto &family = verify::findFamily(familyName);
    auto program = std::make_shared<const Program>(
        assemble(family.generate(seed), family.name));
    auto input = std::make_shared<const std::vector<Value>>();

    EngineOptions opts;
    opts.threads = threads;
    opts.fused = fused;
    ExperimentEngine engine(opts);

    std::vector<ExperimentJob> jobs;
    for (PredictorKind kind : kAllPredictorKinds) {
        ExperimentJob job;
        job.program = program;
        job.input = input;
        job.config.maxInstrs = family.instrBound;
        job.config.dpg.kind = kind;
        jobs.push_back(std::move(job));
    }
    std::vector<DpgStats> runs;
    for (auto &outcome : engine.run(jobs))
        runs.push_back(std::move(outcome.stats));
    return verify::fingerprintJson(
        std::string("family:") + familyName, seed, runs);
}

TEST(FuzzCrossPath, FingerprintsByteIdenticalAcrossPaths)
{
    for (const auto &[familyName, seed] : sampleCells()) {
        SCOPED_TRACE(::testing::Message()
                     << familyName << " seed " << seed);
        const std::string serial =
            serialFingerprint(familyName, seed);
        EXPECT_EQ(serial,
                  engineFingerprint(familyName, seed, 1, false))
            << "serial vs single-thread engine diverged";
        EXPECT_EQ(serial,
                  engineFingerprint(familyName, seed, 4, false))
            << "serial vs 4-thread engine diverged";
        EXPECT_EQ(serial,
                  engineFingerprint(familyName, seed, 4, true))
            << "serial vs 4-thread fused sweep diverged";
    }
}

} // namespace
} // namespace ppm
