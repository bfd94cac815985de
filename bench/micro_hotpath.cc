/**
 * @file
 * Analyzer-core hot-path microbenchmark.
 *
 * Measures raw model throughput (dynamic instructions per second
 * through DpgAnalyzer::onBlock) with the simulator taken out of the
 * loop: each workload's budgeted stream is recorded once into a
 * DynInstr vector, then fed through fresh analyzer instances in
 * 256-instruction onBlock spans, reporting the best repetition.
 * This isolates exactly the serving hot path the paged value table,
 * the pending-arc arena, and block dispatch optimize — compare runs
 * via the committed BENCH_hotpath.json trajectory at the repo root.
 *
 * Scenario modes (the "mode" field, schema ppm-hotpath-v3):
 *   "replay"           one predictor cell fed from the recorded stream
 *   "sweep-sequential" the full predictor-bank sweep (every value
 *                      predictor, each lane's bank carrying gshare),
 *                      one pass per cell — the pre-fusion path
 *   "sweep-fused"      the same sweep through FusedAnalysisSink: one
 *                      pass drives every lane
 *   "intra-serial"     one Context cell through the serial analyzer —
 *                      the A side of the within-run scaling pair
 *   "intra-pipeline"   the same cell through IntraRunPipeline
 *                      (PPM_HOTPATH_INTRA_THREADS total threads)
 *   "analyze-full"     one Context cell, simulation-fed two-pass
 *                      analysis of the whole budget — the A side of
 *                      the phase-sampling pair (no recorded stream,
 *                      so it scales to 100M+ budgets)
 *   "sampled"          the same cell through the phase-sampled
 *                      scheduler (runner/sampled_run.hh); throughput
 *                      counts the full budget the estimate stands for
 * Paired modes run interleaved (A/B) per repetition and their
 * per-cell model output is checksummed identically.
 *
 * Environment:
 *   PPM_HOTPATH_INSTRS  dynamic-instruction budget per scenario
 *                       (default 1,000,000)
 *   PPM_HOTPATH_REPS    timed repetitions per scenario (default 5)
 *   PPM_HOTPATH_INTRA_THREADS
 *                       total threads for the intra-pipeline rows
 *                       (default 4, min 2)
 *   PPM_HOTPATH_SAMPLED_ONLY
 *                       nonzero: run only the analyze-full/sampled
 *                       pair (recorded-stream rows hold one 160-byte
 *                       DynInstr per instruction, unaffordable at
 *                       100M budgets)
 *   PPM_HOTPATH_SAMPLE_INTERVAL, PPM_HOTPATH_SAMPLE_WARMUP,
 *   PPM_HOTPATH_SAMPLE_PHASES
 *                       sampling geometry for the sampled rows
 *                       (defaults: budget/20, interval/2, 8)
 *   PPM_HOTPATH_JSON    output path for the "ppm-hotpath-v3" report
 *                       (default: BENCH_hotpath.json in the cwd;
 *                       argv[1] overrides both)
 *
 * The headline number is the Context-predictor row of the largest
 * workload (by dynamic instructions executed), with the default
 * configuration (influence tracking on).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "asmr/assembler.hh"
#include "dpg/dpg_analyzer.hh"
#include "runner/fused_sink.hh"
#include "runner/intra_pipeline.hh"
#include "runner/sampled_run.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "support/env.hh"
#include "workloads/workload.hh"

namespace {

using Clock = std::chrono::steady_clock;
using ppm::Value;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Scenario
{
    std::string workload;
    std::string predictor;
    std::string mode = "replay";
    std::uint64_t dynInstrs = 0;
    unsigned reps = 0;
    double bestSec = 0.0;
    double instrsPerSec = 0.0;
};

/** Pass 1 of one workload: the exec profile plus the recorded stream. */
class StreamRecorder : public ppm::TraceSink
{
  public:
    explicit StreamRecorder(ppm::ExecProfile &profile)
        : profile_(profile)
    {
    }

    void
    onInstr(const ppm::DynInstr &di) override
    {
        profile_.onInstr(di);
        stream.push_back(di);
    }

    std::vector<ppm::DynInstr> stream;

  private:
    ppm::ExecProfile &profile_;
};

/** Feed @p stream to @p sink in 256-instruction onBlock spans. */
void
feed(const std::vector<ppm::DynInstr> &stream, ppm::TraceSink &sink)
{
    constexpr std::size_t kBlock = 256;
    const std::span<const ppm::DynInstr> all(stream);
    for (std::size_t i = 0; i < all.size(); i += kBlock)
        sink.onBlock(all.subspan(i, std::min(kBlock, all.size() - i)));
    sink.onRunEnd();
}

const char *
predictorJsonName(ppm::PredictorKind kind)
{
    switch (kind) {
      case ppm::PredictorKind::LastValue: return "last-value";
      case ppm::PredictorKind::Stride2Delta: return "stride";
      case ppm::PredictorKind::Context: return "context";
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ppm;

    const std::uint64_t budget =
        envUint("PPM_HOTPATH_INSTRS", 1'000'000, /*min=*/1);
    const std::uint64_t reps =
        envUint("PPM_HOTPATH_REPS", 5, /*min=*/1);
    std::string out_path = "BENCH_hotpath.json";
    if (const char *env = std::getenv("PPM_HOTPATH_JSON");
        env && *env)
        out_path = env;
    if (argc > 1)
        out_path = argv[1];

    // The headline workload is the biggest program we model: every
    // workload is capped by the same budget, so pick the one with the
    // largest uncapped footprint (ties broken by name for stability).
    const std::vector<Workload> &all = allWorkloads();
    const Workload *largest = &all.front();
    for (const Workload &w : all) {
        if (w.approxInstrs > largest->approxInstrs ||
            (w.approxInstrs == largest->approxInstrs &&
             w.name < largest->name))
            largest = &w;
    }
    // One mid-size integer workload alongside, as a second data point
    // with different value/branch behavior.
    const Workload &second = findWorkload(
        largest->name == "compress" ? "gcc" : "compress");

    std::vector<Scenario> rows;
    std::uint64_t checksum = 0;

    auto run_workload = [&](const Workload &w, bool all_kinds) {
        const Program prog = assemble(std::string(w.source), w.name);
        const std::vector<Value> input =
            w.makeInput(kDefaultWorkloadSeed);

        // Pass 1 once per workload: profile + record the stream.
        ExecProfile profile(prog.textSize());
        StreamRecorder recorder(profile);
        Machine machine(prog, input);
        machine.run(&recorder, budget);
        const std::vector<DynInstr> &stream = recorder.stream;

        std::vector<PredictorKind> kinds;
        if (all_kinds) {
            kinds.assign(std::begin(kAllPredictorKinds),
                         std::end(kAllPredictorKinds));
        } else {
            kinds.push_back(PredictorKind::Context);
        }

        for (PredictorKind kind : kinds) {
            Scenario row;
            row.workload = w.name;
            row.predictor = predictorJsonName(kind);
            row.dynInstrs = stream.size();
            row.reps = static_cast<unsigned>(reps);
            row.bestSec = 1e300;
            for (std::uint64_t r = 0; r < reps; ++r) {
                DpgConfig cfg;
                cfg.kind = kind;
                DpgAnalyzer analyzer(prog, profile, cfg);
                const auto t0 = Clock::now();
                feed(stream, analyzer);
                const double sec = secondsSince(t0);
                row.bestSec = std::min(row.bestSec, sec);
                // takeStats flushes live values — part of the model's
                // cost, but excluded from the per-instruction figure;
                // folding it into the checksum defeats dead-code
                // elimination either way.
                checksum ^= analyzer.takeStats().totalElements();
            }
            row.instrsPerSec =
                static_cast<double>(row.dynInstrs) / row.bestSec;
            std::cerr << "  " << row.workload << " / "
                      << row.predictor << ": "
                      << static_cast<std::uint64_t>(row.instrsPerSec)
                      << " instrs/sec (best of " << row.reps
                      << ", " << row.dynInstrs << " instrs)\n";
            rows.push_back(row);
        }

        if (!all_kinds)
            return;

        // Fused-sweep A/B: the full predictor-bank sweep (every
        // value-predictor lane, each bank carrying gshare), once with
        // one pass per cell (the pre-fusion engine path) and
        // once through FusedAnalysisSink where a single pass drives
        // every lane. Modes alternate within each repetition so
        // machine drift hits both equally; throughput counts total
        // analyzed instructions (stream length x lanes) so the two
        // modes are directly comparable.
        auto make_sweep = [&](const char *mode) {
            Scenario row;
            row.workload = w.name;
            row.predictor = "all";
            row.mode = mode;
            row.dynInstrs = stream.size();
            row.reps = static_cast<unsigned>(reps);
            row.bestSec = 1e300;
            return row;
        };
        Scenario seq = make_sweep("sweep-sequential");
        Scenario fus = make_sweep("sweep-fused");
        const std::size_t lanes = kinds.size();

        for (std::uint64_t r = 0; r < reps; ++r) {
            {
                std::vector<std::unique_ptr<DpgAnalyzer>> cells;
                for (PredictorKind kind : kinds) {
                    DpgConfig cfg;
                    cfg.kind = kind;
                    cells.push_back(std::make_unique<DpgAnalyzer>(
                        prog, profile, cfg));
                }
                const auto t0 = Clock::now();
                for (auto &cell : cells)
                    feed(stream, *cell);
                seq.bestSec =
                    std::min(seq.bestSec, secondsSince(t0));
                for (auto &cell : cells)
                    checksum ^= cell->takeStats().totalElements();
            }
            {
                FusedAnalysisSink sink;
                for (PredictorKind kind : kinds) {
                    DpgConfig cfg;
                    cfg.kind = kind;
                    sink.addLane(std::make_unique<DpgAnalyzer>(
                        prog, profile, cfg));
                }
                const auto t0 = Clock::now();
                feed(stream, sink);
                fus.bestSec =
                    std::min(fus.bestSec, secondsSince(t0));
                for (std::size_t i = 0; i < lanes; ++i)
                    checksum ^= sink.takeStats(i).totalElements();
            }
        }
        for (Scenario *row : {&seq, &fus}) {
            row->instrsPerSec =
                static_cast<double>(row->dynInstrs) *
                static_cast<double>(lanes) / row->bestSec;
            rows.push_back(*row);
        }
        std::cerr << "  " << w.name << " / all [" << seq.mode
                  << " vs " << fus.mode << "]: "
                  << static_cast<std::uint64_t>(seq.instrsPerSec)
                  << " -> "
                  << static_cast<std::uint64_t>(fus.instrsPerSec)
                  << " instrs/sec (sweep speedup "
                  << (seq.bestSec / fus.bestSec) << "x)\n";

        // Intra-run A/B: ONE Context-predictor cell, serial analyzer
        // vs the staged intra-run pipeline (PPM_HOTPATH_INTRA_THREADS
        // total threads, default 4). Same stream, modes interleaved
        // per repetition, identical checksum fold — this is the
        // within-run scaling row the engine's PPM_INTRA_THREADS knob
        // buys, as opposed to the across-lane fusion above.
        const unsigned intraThreads = static_cast<unsigned>(
            envUint("PPM_HOTPATH_INTRA_THREADS", 4, /*min=*/2));
        Scenario ser = make_sweep("intra-serial");
        Scenario par = make_sweep("intra-pipeline");
        ser.predictor = "context";
        par.predictor = "context";
        for (std::uint64_t r = 0; r < reps; ++r) {
            DpgConfig cfg;
            cfg.kind = PredictorKind::Context;
            {
                DpgAnalyzer analyzer(prog, profile, cfg);
                const auto t0 = Clock::now();
                feed(stream, analyzer);
                ser.bestSec =
                    std::min(ser.bestSec, secondsSince(t0));
                checksum ^= analyzer.takeStats().totalElements();
            }
            {
                IntraRunPipeline pipeline(prog, profile, cfg,
                                          intraThreads);
                const auto t0 = Clock::now();
                feed(stream, pipeline);
                const std::uint64_t elems =
                    pipeline.takeStats().totalElements();
                // takeStats() joins the stages, so the clock stops
                // only after the last worker drains its ring slots.
                par.bestSec =
                    std::min(par.bestSec, secondsSince(t0));
                checksum ^= elems;
            }
        }
        for (Scenario *row : {&ser, &par}) {
            row->instrsPerSec =
                static_cast<double>(row->dynInstrs) / row->bestSec;
            rows.push_back(*row);
        }
        std::cerr << "  " << w.name << " / context [" << ser.mode
                  << " vs " << par.mode << " @" << intraThreads
                  << "t]: "
                  << static_cast<std::uint64_t>(ser.instrsPerSec)
                  << " -> "
                  << static_cast<std::uint64_t>(par.instrsPerSec)
                  << " instrs/sec (intra-run speedup "
                  << (ser.bestSec / par.bestSec) << "x)\n";
    };

    // Sampling A/B: ONE Context cell on the headline workload,
    // simulation-fed full two-pass analysis vs the phase-sampled
    // scheduler at the same budget. Neither side records the stream, so
    // this pair (and PPM_HOTPATH_SAMPLED_ONLY=1) is how the 100M-
    // budget rows in the committed BENCH_hotpath.json are measured.
    auto run_sampled_pair = [&](const Workload &w) {
        const Program prog = assemble(std::string(w.source), w.name);
        const std::vector<Value> input =
            w.makeInput(kDefaultWorkloadSeed);

        SampleOptions sopts;
        sopts.intervalLen = envUint("PPM_HOTPATH_SAMPLE_INTERVAL",
                                    std::max<std::uint64_t>(
                                        budget / 20, 10'000),
                                    /*min=*/1);
        sopts.warmupLen = envUint("PPM_HOTPATH_SAMPLE_WARMUP",
                                  sopts.intervalLen / 2, /*min=*/0);
        sopts.maxPhases = static_cast<unsigned>(
            envUint("PPM_HOTPATH_SAMPLE_PHASES", 8, /*min=*/1));

        Scenario full;
        full.workload = w.name;
        full.predictor = "context";
        full.mode = "analyze-full";
        full.dynInstrs = budget;
        full.reps = static_cast<unsigned>(reps);
        full.bestSec = 1e300;
        Scenario samp = full;
        samp.mode = "sampled";

        DpgConfig cfg;
        cfg.kind = PredictorKind::Context;
        for (std::uint64_t r = 0; r < reps; ++r) {
            {
                const auto t0 = Clock::now();
                ExecProfile profile(prog.textSize());
                Machine pass1(prog, input);
                pass1.run(&profile, budget);
                DpgAnalyzer analyzer(prog, profile, cfg);
                Machine pass2(prog, input);
                pass2.run(&analyzer, budget);
                full.bestSec =
                    std::min(full.bestSec, secondsSince(t0));
                full.dynInstrs = profile.total();
                checksum ^= analyzer.takeStats().totalElements();
            }
            {
                const auto t0 = Clock::now();
                const SampledResult result = runSampledAnalysis(
                    prog, input, budget, {cfg}, sopts,
                    /*intraThreads=*/1);
                samp.bestSec =
                    std::min(samp.bestSec, secondsSince(t0));
                samp.dynInstrs = result.timing.dynInstrs;
                checksum ^= result.stats[0].totalElements();
            }
        }
        for (Scenario *row : {&full, &samp}) {
            row->instrsPerSec =
                static_cast<double>(row->dynInstrs) / row->bestSec;
            rows.push_back(*row);
        }
        std::cerr << "  " << w.name << " / context [" << full.mode
                  << " vs " << samp.mode << " @"
                  << sopts.intervalLen << "," << sopts.warmupLen
                  << "," << sopts.maxPhases << "]: "
                  << static_cast<std::uint64_t>(full.instrsPerSec)
                  << " -> "
                  << static_cast<std::uint64_t>(samp.instrsPerSec)
                  << " effective instrs/sec (sampling speedup "
                  << (full.bestSec / samp.bestSec) << "x)\n";
    };

    const bool sampledOnly =
        envUint("PPM_HOTPATH_SAMPLED_ONLY", 0) != 0;
    std::cerr << "micro_hotpath: budget " << budget
              << " instrs, " << reps << " reps\n";
    if (!sampledOnly) {
        run_workload(*largest, /*all_kinds=*/true);
        run_workload(second, /*all_kinds=*/false);
    }
    run_sampled_pair(*largest);

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "micro_hotpath: cannot write " << out_path
                  << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"ppm-hotpath-v3\",\n"
        << "  \"instr_budget\": " << budget << ",\n"
        << "  \"headline\": {\"workload\": \"" << largest->name
        << "\", \"predictor\": \"context\"},\n"
        << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Scenario &r = rows[i];
        out << "    {\"workload\": \"" << r.workload
            << "\", \"predictor\": \"" << r.predictor
            << "\", \"mode\": \"" << r.mode
            << "\", \"dyn_instrs\": " << r.dynInstrs
            << ", \"reps\": " << r.reps
            << ", \"best_sec\": " << r.bestSec
            << ", \"instrs_per_sec\": "
            << static_cast<std::uint64_t>(r.instrsPerSec) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "micro_hotpath: wrote " << out_path
              << " (checksum " << checksum << ")\n";
    return 0;
}
