/**
 * @file
 * Cross-path differential test: the serial two-pass reference, the
 * single-thread engine, the multi-thread profile-sharing engine, and
 * the fused single-pass sweep engine (one stream pass driving every
 * predictor lane) must all produce byte-identical figure CSV text for
 * every workload. Any scheduling, profile-sharing, or
 * lane-multiplexing divergence shows up as a text diff.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/figures.hh"
#include "asmr/assembler.hh"
#include "runner/engine.hh"
#include "workloads/workload.hh"

namespace ppm {
namespace {

constexpr std::uint64_t kBudget = 25'000;

/** The figure-CSV text one (workload, predictor) cell contributes. */
void
appendCsvRow(std::ostringstream &out, const std::string &workload,
             PredictorKind kind, const DpgStats &stats)
{
    const Table1Row t = table1Row(stats);
    const Fig5Row f = fig5Row(stats);
    out << workload << ',' << predictorLetter(kind) << ','
        << t.dynInstrs << ',' << t.nodes << ',' << t.arcs << ','
        << std::to_string(t.arcsPerNode) << ','
        << std::to_string(f.nodeGen) << ','
        << std::to_string(f.nodeProp) << ','
        << std::to_string(f.nodeTerm) << ','
        << std::to_string(f.arcGen) << ','
        << std::to_string(f.arcProp) << ','
        << std::to_string(f.arcTerm) << ','
        << std::to_string(stats.gshareAccuracy) << '\n';
}

std::string
csvHeader()
{
    return "workload,predictor,dyn,nodes,arcs,arcs_per_node,"
           "node_gen,node_prop,node_term,arc_gen,arc_prop,arc_term,"
           "gshare\n";
}

/** Path (a): the serial two-pass reference, no engine involved. */
std::string
serialCsv()
{
    std::ostringstream out;
    out << csvHeader();
    for (const Workload &w : allWorkloads()) {
        const Program prog =
            assemble(std::string(w.source), w.name);
        const auto input = w.makeInput(kDefaultWorkloadSeed);
        for (PredictorKind kind : kAllPredictorKinds) {
            ExperimentConfig config;
            config.maxInstrs = kBudget;
            config.dpg.kind = kind;
            appendCsvRow(out, w.name, kind,
                         runModel(prog, input, config));
        }
    }
    return out.str();
}

/** Paths (b)-(i): the engine — sequential, fused, intra. */
std::string
engineCsv(unsigned threads, bool fused, unsigned intraThreads = 1)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.fused = fused;
    opts.intraThreads = intraThreads;
    ExperimentEngine engine(opts);

    ExperimentConfig base;
    base.maxInstrs = kBudget;
    const std::vector<Workload> &all = allWorkloads();
    const std::vector<PredictorKind> kinds(
        std::begin(kAllPredictorKinds), std::end(kAllPredictorKinds));
    const auto jobs = engine.workloadMatrix(all, kinds, base);
    const auto outcomes = engine.run(jobs);

    std::ostringstream out;
    out << csvHeader();
    std::size_t i = 0;
    for (const Workload &w : all) {
        for (PredictorKind kind : kinds) {
            appendCsvRow(out, w.name, kind, outcomes[i].stats);
            ++i;
        }
    }
    return out.str();
}

TEST(CrossPath, AllPathsProduceByteIdenticalFigureCsv)
{
    const std::string serial = serialCsv();
    const std::string seq1 = engineCsv(/*threads=*/1, false);
    const std::string seq4 = engineCsv(/*threads=*/4, false);
    const std::string fused1 = engineCsv(/*threads=*/1, true);
    const std::string fused4 = engineCsv(/*threads=*/4, true);

    // Sanity: one header plus 12 workloads x 3 predictors of rows.
    const auto rows = static_cast<std::size_t>(
        std::count(serial.begin(), serial.end(), '\n'));
    EXPECT_EQ(rows, 1 + allWorkloads().size() * 3);

    EXPECT_EQ(serial, seq1)
        << "serial two-pass vs single-thread engine diverged";
    EXPECT_EQ(serial, seq4)
        << "serial two-pass vs 4-thread profile-sharing engine diverged";
    EXPECT_EQ(serial, fused1)
        << "serial two-pass vs single-thread fused sweep diverged";
    EXPECT_EQ(serial, fused4)
        << "serial two-pass vs 4-thread fused sweep diverged";
}

TEST(CrossPath, IntraRunPipelineProducesByteIdenticalFigureCsv)
{
    // PPM_INTRA_THREADS ∈ {1, 2, 4, 8} over both the per-cell path
    // (fused off: every run goes through the intra-run pipeline) and
    // the fused path (multi-lane groups dispatch lanes in parallel).
    const std::string serial = serialCsv();
    for (unsigned intra : {1u, 2u, 4u, 8u}) {
        EXPECT_EQ(serial, engineCsv(1, /*fused=*/false, intra))
            << "intra-run pipeline diverged at " << intra
            << " threads";
    }
    EXPECT_EQ(serial, engineCsv(1, /*fused=*/true, 4))
        << "fused sweep with parallel lane dispatch diverged";
}

} // namespace
} // namespace ppm
