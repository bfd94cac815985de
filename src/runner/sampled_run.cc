#include "runner/sampled_run.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/obs.hh"
#include "runner/fused_sink.hh"
#include "sample/interval_profiler.hh"
#include "sample/phase_cluster.hh"
#include "sim/checkpoint.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "support/env.hh"

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Pass A's sink: the exec-count profile plus interval signatures. */
class ProfileSink : public TraceSink
{
  public:
    ProfileSink(ExecProfile &profile, IntervalProfiler &iprof)
        : profile_(profile), iprof_(iprof)
    {
    }

    void
    onInstr(const DynInstr &di) override
    {
        profile_.onInstr(di);
        iprof_.onInstr(di);
    }

    void
    onRunEnd() override
    {
        profile_.onRunEnd();
        iprof_.onRunEnd();
    }

  private:
    ExecProfile &profile_;
    IntervalProfiler &iprof_;
};

/** One strtoull field of the PPM_SAMPLE triple; throws on garbage. */
std::uint64_t
sampleField(const char *&p, const char *raw)
{
    char *end = nullptr;
    if (*p < '0' || *p > '9') {
        throw EnvError(std::string("PPM_SAMPLE: expected "
                                   "<interval>,<warmup>,<maxphases>"
                                   ", got \"") +
                       raw + "\"");
    }
    const unsigned long long v = std::strtoull(p, &end, 10);
    p = end;
    return v;
}

} // namespace

SampleOptions
SampleOptions::fromEnv()
{
    const char *raw = std::getenv("PPM_SAMPLE");
    if (!raw || !*raw)
        return SampleOptions{};

    const char *p = raw;
    SampleOptions o;
    o.intervalLen = sampleField(p, raw);
    for (int field = 0; field < 2; ++field) {
        if (*p != ',') {
            throw EnvError(std::string("PPM_SAMPLE: expected "
                                       "<interval>,<warmup>,"
                                       "<maxphases>, got \"") +
                           raw + "\"");
        }
        ++p;
        const std::uint64_t v = sampleField(p, raw);
        if (field == 0)
            o.warmupLen = v;
        else
            o.maxPhases = static_cast<unsigned>(
                std::min<std::uint64_t>(v, 1u << 16));
    }
    if (*p != '\0') {
        throw EnvError(std::string("PPM_SAMPLE: trailing characters "
                                   "in \"") +
                       raw + "\"");
    }
    if (o.intervalLen == 0 || o.maxPhases == 0) {
        throw EnvError("PPM_SAMPLE: interval and maxphases must be "
                       ">= 1 (unset the variable to disable "
                       "sampling)");
    }
    return o;
}

SampledResult
runSampledAnalysis(const Program &prog,
                   const std::vector<Value> &input,
                   std::uint64_t maxInstrs,
                   const std::vector<DpgConfig> &configs,
                   const SampleOptions &opts, unsigned intraThreads)
{
    assert(opts.enabled());
    const std::uint64_t L = opts.intervalLen;

    SampledResult r;
    r.stats.resize(configs.size());
    r.laneSeconds.assign(configs.size(), 0.0);

    // --- Pass A: profile + checkpoint the full budget --------------
    //
    // One full-budget simulation with cheap sinks only. Checkpoints
    // are captured at every completed full-interval boundary; the
    // trailing partial interval needs none (no representative ever
    // restores past the last boundary).
    ExecProfile profile(static_cast<StaticId>(prog.textSize()));
    IntervalProfiler iprof(prog.textSize(), L);
    ProfileSink passA(profile, iprof);

    Machine machine(prog, input);
    machine.memory().setDirtyTracking(true);
    CheckpointStore store;

    {
        obs::Span span("sample_profile", "runner");
        const auto t0 = Clock::now();
        std::uint64_t remaining = maxInstrs;
        while (remaining > 0 && !machine.halted()) {
            const std::uint64_t chunk = std::min(L, remaining);
            const std::uint64_t before = machine.instrCount();
            machine.run(&passA, chunk);
            const std::uint64_t ran = machine.instrCount() - before;
            remaining -= ran;
            if (ran == L && !machine.halted()) {
                const auto c0 = Clock::now();
                store.capture(machine);
                r.timing.checkpointSec += secondsSince(c0);
            }
        }
        iprof.finish();
        r.timing.simulateSec =
            secondsSince(t0) - r.timing.checkpointSec;
    }
    machine.memory().setDirtyTracking(false);
    r.timing.dynInstrs = profile.total();
    r.timing.checkpointBytes = store.pageBytes();

    // --- Plan: cluster intervals, pick weighted representatives ----
    const PhasePlan plan =
        clusterPhases(iprof.intervals(), L, opts.maxPhases);
    r.timing.phases = plan.phases;
    assert(plan.weightedInstrs() == profile.total());

    if (plan.reps.empty()) {
        // Empty stream (zero budget / instant halt): finalize fresh
        // analyzers so callers still get well-formed statistics.
        for (std::size_t i = 0; i < configs.size(); ++i) {
            DpgConfig cfg = configs[i];
            cfg.partialStream = true;
            DpgAnalyzer analyzer(prog, profile, cfg);
            r.stats[i] = analyzer.takeStats();
        }
        return r;
    }

    // --- Pass B: fast-forward, warm up, measure, merge -------------
    //
    // Representatives are visited in ascending interval order on a
    // fresh machine (boundary 0), so every checkpoint delta's pages
    // are applied at most once across the whole pass, and the machine
    // position never has to move backward: a warm-up prefix that
    // would start before the current position (adjacent
    // representatives) is clamped — those instructions were just
    // executed and analyzed, shrinking the warm-up is the forward-
    // only discipline's price.
    Machine mb(prog, input);
    std::uint64_t pos = 0;  // mb's stream position, in instructions.
    std::size_t curB = 0;   // Checkpoint boundary at/behind pos.
    bool first = true;

    for (const PhaseRep &rep : plan.reps) {
        obs::Span span("sample_rep", "runner");
        const std::uint64_t repStart = rep.interval * L;
        assert(repStart >= pos);
        std::uint64_t warmStart =
            repStart - std::min(opts.warmupLen, repStart);
        warmStart = std::max(warmStart, pos);
        const std::size_t bound =
            static_cast<std::size_t>(warmStart / L);

        const auto f0 = Clock::now();
        if (bound > curB) {
            store.restoreTo(mb, curB, bound);
            curB = bound;
            pos = static_cast<std::uint64_t>(bound) * L;
        }
        if (warmStart > pos) {
            // Sub-interval gap between the floor boundary and the
            // warm-up start: cheap sink-less simulation.
            mb.run(nullptr, warmStart - pos);
            pos = warmStart;
        }
        r.timing.fastForwardSec += secondsSince(f0);

        FusedAnalysisSink sink(intraThreads);
        for (const DpgConfig &config : configs) {
            DpgConfig cfg = config;
            cfg.partialStream = true;
            sink.addLane(
                std::make_unique<DpgAnalyzer>(prog, profile, cfg));
        }

        const auto m0 = Clock::now();
        if (repStart > pos) {
            sink.setWarmup(true);
            const std::uint64_t before = mb.instrCount();
            mb.run(&sink, repStart - pos);
            pos += mb.instrCount() - before;
        }
        sink.setWarmup(false);
        {
            const std::uint64_t before = mb.instrCount();
            mb.run(&sink, rep.instrs);
            pos += mb.instrCount() - before;
        }
        const double passSec = secondsSince(m0);
        r.timing.sampledInstrs += pos - warmStart;
        curB = static_cast<std::size_t>(pos / L);

        double laneSum = 0.0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double laneSec = sink.laneSeconds(i);
            laneSum += laneSec;
            r.laneSeconds[i] += laneSec;
            DpgStats s = sink.takeStats(i);
            s.scaleBy(rep.weight);
            if (first)
                r.stats[i] = std::move(s);
            else
                r.stats[i].mergeSampled(s);
        }
        first = false;
        r.timing.dispatchSec +=
            passSec > laneSum ? passSec - laneSum : 0.0;
    }

    return r;
}

} // namespace ppm
