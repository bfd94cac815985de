/**
 * @file
 * ppmbench — the benchmark's in-process driver. It runs one iteration
 * of a batch workload through the ppm library's public API and prints
 * one JSON object on stdout. run.py calls it repeatedly and turns the
 * objects into the benchmark's metrics.
 *
 *   ppmbench plain  <workload> --set N   untraced: the engine path a
 *                                        user runs (ExperimentEngine)
 *   ppmbench traced <workload> --set N   the same cells, every layer
 *                                        timed from outside
 *   ppmbench setup  <workload> --set N   assembly + inputs only
 *   ppmbench fullref                     unsampled 100M-instruction
 *                                        reference for sampled_100m
 *
 * Workloads: fig5_sweep, m88k_long, sampled_100m, serve_mix (setup
 * only; the daemon side lives in run.py). --set picks the input set:
 * every workload input is generated from inputSeed(set).
 *
 * The traced run never calls the serial analyzer. Each cell runs as
 * two Machine::run passes: a profile pass into ExecProfile, then an
 * analysis pass whose 256-instruction blocks feed one DpgAnalyzer per
 * DpgRole (predict, graph, arcs) through predictBlock and
 * analyzeAnnotatedBlock. Each call is timed; the parts are merged the
 * way the intra-run pipeline merges them (takeStats + mergePartial),
 * and the merged output must digest to the same bytes as the plain
 * run's.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/figures.hh"
#include "asmr/assembler.hh"
#include "dpg/dpg_analyzer.hh"
#include "report/figure_report.hh"
#include "report/json_emitter.hh"
#include "runner/engine.hh"
#include "runner/sampled_run.hh"
#include "sample/interval_profiler.hh"
#include "sample/phase_cluster.hh"
#include "sim/checkpoint.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "verify/families.hh"
#include "workloads/workload.hh"

using namespace ppm;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload definitions -------------------------------------------

constexpr std::uint64_t kFig5Budget = 4'000'000;
constexpr std::uint64_t kLongBudget = 5'000'000;
constexpr std::uint64_t kSampledBudget = 100'000'000;
constexpr unsigned kFig5Workers = 2;

/** m88ksim guest-run multipliers so the guest outlives the budget. */
constexpr const char *kLongScale = "3";
constexpr const char *kSampledScale = "47";

const SampleOptions kSampleOpts{500'000, 50'000, 2};

/** Input seed of input set @p set (splitmix64 of a tagged index). */
std::uint64_t
inputSeed(std::uint64_t set)
{
    std::uint64_t z = 0x9e3779b97f4a7c15ull * (set + 1) + 0x0be4c5eedull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One program + input, analyzed under one or more predictors. */
struct Group
{
    const Workload *workload = nullptr;
    std::shared_ptr<const Program> program;
    std::shared_ptr<const std::vector<Value>> input;
    std::uint64_t budget = 0;
    std::vector<PredictorKind> kinds;
};

struct Setup
{
    std::vector<Group> groups;
    double assembleSec = 0.0;
    double inputSec = 0.0;
};

Setup
makeSetup(const std::string &name, std::uint64_t set)
{
    const std::uint64_t seed = inputSeed(set);
    Setup s;
    auto add = [&](const Workload &w, std::uint64_t budget,
                   std::vector<PredictorKind> kinds) {
        Group g;
        g.workload = &w;
        auto t0 = Clock::now();
        g.program = std::make_shared<const Program>(
            assemble(std::string(w.source), w.name));
        s.assembleSec += since(t0);
        t0 = Clock::now();
        g.input = std::make_shared<const std::vector<Value>>(
            w.makeInput(seed));
        s.inputSec += since(t0);
        g.budget = budget;
        g.kinds = std::move(kinds);
        s.groups.push_back(std::move(g));
    };
    const std::vector<PredictorKind> all(std::begin(kAllPredictorKinds),
                                         std::end(kAllPredictorKinds));
    if (name == "fig5_sweep") {
        for (const Workload &w : allWorkloads())
            add(w, kFig5Budget, all);
    } else if (name == "m88k_long") {
        add(findWorkload("m88ksim"), kLongBudget,
            {PredictorKind::Context});
    } else if (name == "sampled_100m") {
        add(findWorkload("m88ksim"), kSampledBudget,
            {PredictorKind::Context});
    } else if (name == "serve_mix") {
        // The daemon assembles these itself; timing them here gives
        // the asmr/workloads layers a comparable number.
        for (const char *wl : {"gcc", "compress", "li", "go"})
            add(findWorkload(wl), 0, {});
        for (const verify::ScenarioFamily &f : verify::allFamilies()) {
            const auto t0 = Clock::now();
            const std::string src = f.generate(seed);
            (void)assemble(src, f.name);
            s.assembleSec += since(t0);
        }
    } else {
        throw std::invalid_argument("unknown workload " + name);
    }
    return s;
}

/** The workload scale must be in the environment before the roster
 *  is first built (allWorkloads() is a process-wide static). */
void
setWorkloadScale(const std::string &name)
{
    if (name == "m88k_long")
        ::setenv("PPM_WORKLOAD_SCALE", kLongScale, 1);
    else if (name == "sampled_100m")
        ::setenv("PPM_WORKLOAD_SCALE", kSampledScale, 1);
    else
        ::unsetenv("PPM_WORKLOAD_SCALE");
}

// --- output helpers --------------------------------------------------

std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** A flat JSON object, written in insertion order. */
class JsonObj
{
  public:
    JsonObj &num(const std::string &k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return raw(k, buf);
    }
    JsonObj &u64(const std::string &k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    JsonObj &str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + jsonEscape(v) + "\"");
    }
    JsonObj &raw(const std::string &k, const std::string &v)
    {
        body_ += body_.empty() ? "" : ",";
        body_ += "\"" + k + "\":" + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

/**
 * Render what a user of the fig5 matrix sees (Table 1 and Fig. 5) and
 * the full per-cell statistics, and digest it: the byte-identity
 * check between plain and traced runs and against the recorded
 * references rests on this digest.
 */
struct Emitted
{
    std::string digest;
    double emitSec = 0.0;
};

Emitted
emitReports(const Setup &setup, const std::vector<DpgStats> &cells)
{
    const auto t0 = Clock::now();
    std::vector<RunResult> runs;
    std::size_t c = 0;
    for (const Group &g : setup.groups)
        for (std::size_t k = 0; k < g.kinds.size(); ++k, ++c)
            runs.push_back(RunResult{cells[c], g.workload->isFloat});
    std::ostringstream os;
    printTable1(os, runs);
    printFig5(os, runs);
    for (const DpgStats &s : cells)
        os << toJson(s);
    Emitted e;
    e.digest = hex64(fnv1a(os.str()));
    e.emitSec = since(t0);
    return e;
}

/** Counters a later claim can compare exactly. */
JsonObj
workCounters(const std::vector<DpgStats> &cells)
{
    std::uint64_t instrs = 0, prop = 0, sat = 0, gens = 0;
    for (const DpgStats &s : cells) {
        instrs += s.dynInstrs;
        prop += s.paths.propagateElements;
        sat += s.paths.saturationEvents;
        gens += s.trees.generateCount();
    }
    JsonObj o;
    o.u64("dpg.instrs", instrs)
        .u64("dpg.propagate_elements", prop)
        .u64("dpg.saturation_events", sat)
        .u64("dpg.generates", gens);
    return o;
}

/** Fig. 5 percentages plus output and gshare accuracy (cell 0). */
std::string
headlinePct(const DpgStats &s)
{
    const Fig5Row f = fig5Row(s);
    const std::uint64_t gen = s.nodes.generates();
    const std::uint64_t prop = s.nodes.propagates();
    const std::uint64_t term = s.nodes.terminates();
    const std::uint64_t unp = s.nodes.count(NodeClass::UnpredFlow);
    const std::uint64_t classified = gen + prop + term + unp;
    const double outAcc =
        classified ? 100.0 * double(gen + prop) / double(classified)
                   : 0.0;
    return numList({f.nodeGen, f.nodeProp, f.nodeTerm, f.arcGen,
                    f.arcProp, f.arcTerm, outAcc,
                    100.0 * s.gshareAccuracy});
}

// --- plain run: the engine path --------------------------------------

std::string
runPlain(const std::string &name, const Setup &setup)
{
    EngineOptions opts;
    if (name == "fig5_sweep")
        opts.threads = kFig5Workers;
    if (name == "sampled_100m")
        opts.sample = kSampleOpts;
    ExperimentEngine engine(opts);

    std::vector<ExperimentJob> jobs;
    for (const Group &g : setup.groups) {
        for (PredictorKind kind : g.kinds) {
            ExperimentJob job;
            job.program = g.program;
            job.input = g.input;
            job.config.maxInstrs = g.budget;
            job.config.dpg.kind = kind;
            job.isFloat = g.workload->isFloat;
            jobs.push_back(std::move(job));
        }
    }

    const auto t0 = Clock::now();
    std::vector<RequestHandle> handles = engine.submitAll(jobs);
    std::vector<DpgStats> cells;
    std::vector<double> cellSec;
    double queueSec = 0.0, streamSec = 0.0;
    unsigned replayed = 0, shared = 0;
    for (RequestHandle &h : handles) {
        ExperimentOutcome out = h.wait();
        cellSec.push_back(since(t0));
        const StageTiming &t = out.timing;
        queueSec += t.queueSec;
        streamSec += t.simulateSec + t.dispatchSec + t.checkpointSec +
                     t.fastForwardSec;
        replayed += t.replayed ? 1 : 0;
        shared += t.captureShared ? 1 : 0;
        cells.push_back(std::move(out.stats));
    }
    const Emitted e = emitReports(setup, cells);
    const double wall = since(t0);

    const double n = static_cast<double>(cells.size());
    JsonObj runner;
    runner.num("queue_s", queueSec / n)
        .num("stream_s", streamSec)
        .num("replay_frac", replayed / n)
        .num("capture_hit_frac", shared / n);

    JsonObj o;
    o.num("wall_s", wall)
        .raw("cell_s", numList(cellSec))
        .raw("runner", runner.text())
        .str("digest", e.digest)
        .raw("counters", workCounters(cells).text())
        .raw("headline_pct", headlinePct(cells.front()));
    return o.text();
}

// --- traced run: every layer timed from outside ----------------------

/**
 * Buffers the simulator's instruction-at-a-time stream into blocks
 * and hands each block to @p consume, timing the consumer. Everything
 * the pass spends outside the consumer is the simulator's own time.
 */
class BlockTimer : public TraceSink
{
  public:
    static constexpr std::size_t kBlock = 256;

    template <typename F>
    explicit BlockTimer(F consume) : consume_(std::move(consume))
    {
        buf_.reserve(kBlock);
    }

    void
    onInstr(const DynInstr &di) override
    {
        buf_.push_back(di);
        if (buf_.size() == kBlock)
            flush();
    }

    void onRunEnd() override { flush(); }

    double busySec() const { return busy_; }

  private:
    void
    flush()
    {
        if (buf_.empty())
            return;
        const auto t0 = Clock::now();
        consume_(std::span<const DynInstr>(buf_.data(), buf_.size()));
        busy_ += since(t0);
        buf_.clear();
    }

    std::function<void(std::span<const DynInstr>)> consume_;
    std::vector<DynInstr> buf_;
    double busy_ = 0.0;
};

/** Per-layer totals of one traced worker (summed across workers). */
struct Layers
{
    double simSelf = 0.0, simProfile = 0.0;
    double predict = 0.0, graph = 0.0, arcs = 0.0, finalize = 0.0;
    std::uint64_t simInstrs = 0, arcOps = 0, laneInstrs = 0;

    void
    add(const Layers &o)
    {
        simSelf += o.simSelf;
        simProfile += o.simProfile;
        predict += o.predict;
        graph += o.graph;
        arcs += o.arcs;
        finalize += o.finalize;
        simInstrs += o.simInstrs;
        arcOps += o.arcOps;
        laneInstrs += o.laneInstrs;
    }
};

/** The three role analyzers of one predictor lane. */
struct SplitLane
{
    std::unique_ptr<DpgAnalyzer> predict, graph, arcs;
    std::vector<PredByte> ann;
};

/** Profile pass + role-split analysis pass of one group. */
std::vector<DpgStats>
traceGroup(const Group &g, Layers &L)
{
    const Program &prog = *g.program;
    ExecProfile profile(static_cast<StaticId>(prog.textSize()));
    {
        BlockTimer timer([&](std::span<const DynInstr> b) {
            profile.onBlock(b);
        });
        Machine m(prog, *g.input);
        const auto t0 = Clock::now();
        m.run(&timer, g.budget);
        L.simSelf += since(t0) - timer.busySec();
        L.simProfile += timer.busySec();
        L.simInstrs += m.instrCount();
    }

    std::vector<SplitLane> lanes(g.kinds.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        DpgConfig cfg;
        cfg.kind = g.kinds[i];
        lanes[i].predict = std::make_unique<DpgAnalyzer>(
            prog, profile, cfg, DpgRole{true, false, false, 0, 1});
        lanes[i].graph = std::make_unique<DpgAnalyzer>(
            prog, profile, cfg, DpgRole{false, true, false, 0, 1});
        lanes[i].arcs = std::make_unique<DpgAnalyzer>(
            prog, profile, cfg, DpgRole{false, false, true, 0, 1});
        lanes[i].ann.resize(BlockTimer::kBlock);
    }
    {
        BlockTimer timer([&](std::span<const DynInstr> b) {
            for (SplitLane &lane : lanes) {
                const auto t0 = Clock::now();
                lane.predict->predictBlock(b, lane.ann.data());
                const auto t1 = Clock::now();
                lane.graph->analyzeAnnotatedBlock(b, lane.ann.data());
                const auto t2 = Clock::now();
                lane.arcs->analyzeAnnotatedBlock(b, lane.ann.data());
                const auto t3 = Clock::now();
                L.predict += std::chrono::duration<double>(t1 - t0).count();
                L.graph += std::chrono::duration<double>(t2 - t1).count();
                L.arcs += std::chrono::duration<double>(t3 - t2).count();
            }
        });
        Machine m(prog, *g.input);
        const auto t0 = Clock::now();
        m.run(&timer, g.budget);
        L.simSelf += since(t0) - timer.busySec();
        L.simInstrs += m.instrCount();
        L.laneInstrs += m.instrCount() * lanes.size();
    }

    const auto t0 = Clock::now();
    std::vector<DpgStats> out;
    for (SplitLane &lane : lanes) {
        const DpgStats p = lane.predict->takeStats();
        DpgStats merged = lane.graph->takeStats();
        merged.mergePartial(lane.arcs->takeStats());
        merged.gshareAccuracy = p.gshareAccuracy;
        merged.gshareLookups = p.gshareLookups;
        merged.gshareHits = p.gshareHits;
        L.arcOps += lane.arcs->arcOps();
        out.push_back(std::move(merged));
    }
    L.finalize += since(t0);
    return out;
}

std::string
runTracedSplit(const std::string &name, const Setup &setup)
{
    const unsigned workers = name == "fig5_sweep" ? kFig5Workers : 1;
    std::vector<std::vector<DpgStats>> perGroup(setup.groups.size());
    std::vector<Layers> perWorker(workers);
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex errorMutex;

    const auto t0 = Clock::now();
    auto work = [&](unsigned wi) {
        try {
            for (std::size_t gi; (gi = next.fetch_add(1)) <
                                 setup.groups.size();)
                perGroup[gi] =
                    traceGroup(setup.groups[gi], perWorker[wi]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            error = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> pool;
        for (unsigned wi = 1; wi < workers; ++wi)
            pool.emplace_back(work, wi);
        work(0);
    }
    if (error)
        std::rethrow_exception(error);

    std::vector<DpgStats> cells;
    for (auto &g : perGroup)
        for (DpgStats &s : g)
            cells.push_back(std::move(s));
    const Emitted e = emitReports(setup, cells);
    const double wall = since(t0);

    Layers L;
    for (const Layers &w : perWorker)
        L.add(w);
    const double li = static_cast<double>(L.laneInstrs);
    JsonObj layers;
    layers.num("sim.self_s", L.simSelf)
        .num("sim.profile_s", L.simProfile)
        .u64("sim.instrs", L.simInstrs)
        .num("pred.predict_s", L.predict)
        .num("pred.ns_per_instr", li > 0 ? 1e9 * L.predict / li : 0.0)
        .num("dpg.graph_s", L.graph)
        .num("dpg.arcs_s", L.arcs)
        .u64("dpg.arc_ops", L.arcOps)
        .num("dpg.finalize_s", L.finalize)
        .num("report.emit_s", e.emitSec);

    JsonObj o;
    o.num("wall_s", wall)
        .str("digest", e.digest)
        .raw("counters", workCounters(cells).text())
        .raw("layers", layers.text());
    return o.text();
}

/**
 * sampled_100m traced: the profile pass is re-run from outside —
 * Machine::run driving ExecProfile and IntervalProfiler, with
 * CheckpointStore::capture at interval boundaries — then
 * clusterPhases and the whole runSampledAnalysis call are timed
 * (which repeats the profile pass internally).
 * The outside pass must agree with the one inside (same stream
 * length and phase count) and the sampled result must digest like
 * the plain engine run's.
 */
std::string
runTracedSampled(const Setup &setup)
{
    const Group &g = setup.groups.front();
    const Program &prog = *g.program;
    const std::uint64_t L = kSampleOpts.intervalLen;

    const auto t0 = Clock::now();
    ExecProfile profile(static_cast<StaticId>(prog.textSize()));
    IntervalProfiler iprof(prog.textSize(), L);
    BlockTimer timer([&](std::span<const DynInstr> b) {
        profile.onBlock(b);
        iprof.onBlock(b);
    });
    Machine machine(prog, *g.input);
    machine.memory().setDirtyTracking(true);
    CheckpointStore store;
    double checkpointSec = 0.0;
    for (std::uint64_t left = g.budget; left > 0 && !machine.halted();) {
        const std::uint64_t chunk = std::min(L, left);
        const std::uint64_t before = machine.instrCount();
        machine.run(&timer, chunk);
        const std::uint64_t ran = machine.instrCount() - before;
        left -= ran;
        if (ran == L && !machine.halted()) {
            const auto c0 = Clock::now();
            store.capture(machine);
            checkpointSec += since(c0);
        }
    }
    iprof.finish();
    const double profilePassSec = since(t0);

    const auto c0 = Clock::now();
    const PhasePlan plan =
        clusterPhases(iprof.intervals(), L, kSampleOpts.maxPhases);
    const double clusterSec = since(c0);
    std::uint64_t measured = 0;
    for (const PhaseRep &rep : plan.reps)
        measured += rep.instrs;

    DpgConfig cfg;
    cfg.kind = g.kinds.front();
    const auto s0 = Clock::now();
    SampledResult r = runSampledAnalysis(prog, *g.input, g.budget, {cfg},
                                         kSampleOpts, 1);
    const double sampledSec = since(s0);
    const double wall = since(t0);

    if (r.timing.dynInstrs != profile.total() ||
        r.timing.phases != plan.phases)
        throw std::runtime_error(
            "traced profile pass disagrees with runSampledAnalysis");

    // Pass B (fast-forward, warm-up, measured intervals) runs inside
    // runSampledAnalysis and cannot be wrapped from outside; its own
    // stage timing supplies the split.
    double passB = r.timing.fastForwardSec + r.timing.dispatchSec;
    for (double lane : r.laneSeconds)
        passB += lane;

    const std::vector<DpgStats> cells{r.stats.front()};
    const Emitted e = emitReports(setup, cells);
    const double simSelf =
        profilePassSec - timer.busySec() - checkpointSec;
    JsonObj layers;
    layers.num("sim.self_s", simSelf)
        .num("sim.profile_s", timer.busySec())
        .u64("sim.instrs", machine.instrCount())
        .num("sample.profile_s", profilePassSec)
        .num("sample.checkpoint_s", checkpointSec)
        .num("sample.checkpoint_mb",
             static_cast<double>(store.pageBytes()) / (1 << 20))
        .num("sample.cluster_s", clusterSec)
        .num("sample.measure_s", passB)
        .num("sample.analysis_s", sampledSec)
        .u64("sample.measured_instrs", measured)
        .num("report.emit_s", e.emitSec);

    JsonObj o;
    o.num("wall_s", wall)
        .str("digest", e.digest)
        .raw("counters", workCounters(cells).text())
        .raw("layers", layers.text());
    return o.text();
}

/** Unsampled 100M-instruction run: the reference sampled_100m's
 *  error is measured against. */
std::string
runFullRef()
{
    setWorkloadScale("sampled_100m");
    const Setup setup = makeSetup("sampled_100m", 0);
    const Group &g = setup.groups.front();
    ExperimentConfig config;
    config.maxInstrs = g.budget;
    config.dpg.kind = g.kinds.front();
    const DpgStats s = runModel(*g.program, *g.input, config);
    JsonObj o;
    o.u64("dyn_instrs", s.dynInstrs).raw("headline_pct", headlinePct(s));
    return o.text();
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: ppmbench (plain|traced|setup) <workload> "
                 "--set N\n"
                 "       ppmbench fullref\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::vector<std::string> args(argv + 1, argv + argc);
        if (args.size() == 1 && args[0] == "fullref") {
            std::cout << runFullRef() << std::endl;
            return 0;
        }
        if (args.size() != 4 || args[2] != "--set")
            usage();
        const std::string &mode = args[0];
        const std::string &name = args[1];
        const std::uint64_t set = std::stoull(args[3]);

        setWorkloadScale(name);
        const Setup setup = makeSetup(name, set);

        std::string result;
        if (mode == "plain" && name != "serve_mix")
            result = runPlain(name, setup);
        else if (mode == "traced" && name == "sampled_100m")
            result = runTracedSampled(setup);
        else if (mode == "traced" && name != "serve_mix")
            result = runTracedSplit(name, setup);
        else if (mode != "setup")
            usage();

        JsonObj o;
        o.num("assemble_s", setup.assembleSec)
            .num("input_s", setup.inputSec)
            .num("peak_rss_mb", peakRssMb());
        if (!result.empty())
            o.raw("run", result);
        std::cout << o.text() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "ppmbench: " << e.what() << "\n";
        return 1;
    }
}
