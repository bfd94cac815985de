#include "runner/engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/obs.hh"
#include "runner/fused_sink.hh"
#include "runner/intra_pipeline.hh"
#include "runner/stage_report.hh"
#include "sim/machine.hh"
#include "support/env.hh"

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned
defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

CaptureKey
keyOf(const ExperimentJob &job)
{
    return CaptureKey{job.program.get(), hashInput(*job.input),
                      job.config.maxInstrs};
}

} // namespace

namespace detail {

/** Shared state of one submitted request. */
struct RequestState
{
    ExperimentJob job;
    std::uint64_t id = 0;
    RequestStatus status = RequestStatus::Pending;
    ExperimentOutcome outcome;
    std::exception_ptr error;

    /**
     * False for requests admitted through the run() shim, which
     * records its batch's history itself, in submission order.
     */
    bool recordHistory = true;

    Clock::time_point submitTime{};
    Clock::time_point claimTime{};

    /** Issuing engine; requests never outlive it. */
    ExperimentEngine *engine = nullptr;
};

} // namespace detail

using detail::RequestState;

EngineOptions
EngineOptions::fromEnv()
{
    return EngineOptions{}.withEnvFallback();
}

EngineOptions
EngineOptions::withEnvFallback() const
{
    // Env parsing throws EnvError on malformed values (PPM_THREADS=abc
    // must abort loudly, not silently run with a default). Explicit
    // fields skip the parse entirely, so an override also shields a
    // malformed variable.
    EngineOptions o = *this;
    if (o.threads == 0) {
        o.threads = static_cast<unsigned>(
            envUint("PPM_THREADS", defaultThreads(), /*min=*/1));
    }
    if (o.intraThreads == 0) {
        o.intraThreads = static_cast<unsigned>(
            envUint("PPM_INTRA_THREADS", 1, /*min=*/1));
    }
    if (!o.verify.has_value())
        o.verify = envFlag("PPM_VERIFY", false);
    if (!o.fused.has_value())
        o.fused = envFlag("PPM_FUSED", true);
    if (!o.sample.has_value())
        o.sample = SampleOptions::fromEnv();
    return o;
}

// --- RequestHandle ---------------------------------------------------

std::uint64_t
RequestHandle::id() const
{
    return state_ ? state_->id : 0;
}

RequestStatus
RequestHandle::status() const
{
    if (!state_)
        return RequestStatus::Cancelled;
    std::lock_guard<std::mutex> lock(state_->engine->queueMutex_);
    return state_->status;
}

ExperimentOutcome
RequestHandle::wait()
{
    if (!state_)
        throw std::logic_error("wait() on an invalid RequestHandle");
    ExperimentEngine &engine = *state_->engine;
    std::unique_lock<std::mutex> lock(engine.queueMutex_);
    engine.doneCv_.wait(lock, [&] {
        return state_->status != RequestStatus::Pending &&
               state_->status != RequestStatus::Running;
    });
    if (state_->status == RequestStatus::Cancelled)
        throw RequestCancelled();
    if (state_->status == RequestStatus::Failed)
        std::rethrow_exception(state_->error);
    return std::move(state_->outcome);
}

bool
RequestHandle::cancel()
{
    if (!state_)
        return false;
    ExperimentEngine &engine = *state_->engine;
    bool zero = false;
    CaptureKey key;
    {
        std::lock_guard<std::mutex> lock(engine.queueMutex_);
        if (state_->status != RequestStatus::Pending)
            return false;
        auto it = std::find(engine.pending_.begin(),
                            engine.pending_.end(), state_);
        if (it == engine.pending_.end())
            return false;
        engine.pending_.erase(it);
        state_->status = RequestStatus::Cancelled;
        key = keyOf(state_->job);
        auto live = engine.liveKeys_.find(key);
        if (live != engine.liveKeys_.end() &&
            --live->second == 0) {
            engine.liveKeys_.erase(live);
            zero = true;
        }
        if (--engine.inflight_ == 0) {
            std::lock_guard<std::mutex> hlock(engine.historyMutex_);
            engine.totalWallSec_ +=
                secondsSince(engine.activeStart_);
            engine.windowBusySec_ = 0.0;
        }
        if (engine.obsQueueDepth_) {
            engine.obsQueueDepth_->set(
                static_cast<std::int64_t>(engine.pending_.size()));
        }
        if (engine.obsInflight_) {
            engine.obsInflight_->set(
                static_cast<std::int64_t>(engine.inflight_));
        }
        if (engine.obsCancelled_)
            engine.obsCancelled_->add();
    }
    if (zero)
        engine.cache_.release(key);
    engine.doneCv_.notify_all();
    return true;
}

// --- ExperimentEngine ------------------------------------------------

ExperimentEngine::ExperimentEngine(const EngineOptions &opts)
{
    const EngineOptions resolved = opts.withEnvFallback();
    threads_ = resolved.threads;
    intraThreads_ = resolved.intraThreads;
    verify_ = *resolved.verify;
    fused_ = *resolved.fused;
    sample_ = *resolved.sample;

    obsJobs_ = obs::counter("runner.jobs_completed");
    obsBatches_ = obs::counter("runner.batches");
    obsSimulations_ = obs::counter("runner.simulations");
    obsResims_ = obs::counter("runner.resims");
    obsFusedGroups_ = obs::counter("runner.fused_groups");
    obsFusedLanes_ = obs::counter("runner.fused_lanes");
    obsWorkerBusyUs_ = obs::counter("runner.worker_busy_us");
    obsCancelled_ = obs::counter("runner.requests_cancelled");
    obsQueueDepth_ = obs::gauge("runner.queue_depth");
    obsInflight_ = obs::gauge("runner.inflight");
    obsHitRate_ = obs::gauge("runner.cache_hit_rate");
    obsQueueUs_ = obs::histogram("runner.request_queue_us");
    obsLatencyUs_ = obs::histogram("runner.request_latency_us");
    if (obs::Gauge *g = obs::gauge("runner.threads"))
        g->set(static_cast<std::int64_t>(threads_));
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    pool_.clear(); // jthread joins; workers drain pending first.

    if (!reportAtExit_)
        return;
    const char *path = std::getenv("PPM_BENCH_JSON");
    if (!path || !*path)
        return;
    std::ofstream out(path);
    if (!out) {
        std::cerr << "ppm: cannot write PPM_BENCH_JSON=" << path
                  << "\n";
        return;
    }
    writeBenchJson(out, *this);
}

ExperimentJob
ExperimentEngine::makeJob(const Workload &w,
                          const ExperimentConfig &config,
                          std::uint64_t seed)
{
    ExperimentJob job;
    job.program =
        cache_.program(w.name, w.source, &job.assembleSec);
    job.input = std::make_shared<const std::vector<Value>>(
        w.makeInput(seed));
    job.config = config;
    job.isFloat = w.isFloat;
    return job;
}

std::vector<ExperimentJob>
ExperimentEngine::workloadMatrix(
    const std::vector<Workload> &workloads,
    const std::vector<PredictorKind> &kinds,
    const ExperimentConfig &base)
{
    std::vector<ExperimentJob> jobs;
    jobs.reserve(workloads.size() * kinds.size());
    for (const Workload &w : workloads) {
        for (PredictorKind kind : kinds) {
            ExperimentConfig config = base;
            config.dpg.kind = kind;
            jobs.push_back(makeJob(w, config));
        }
    }
    return jobs;
}

RunCache::CaptureRef
ExperimentEngine::captureFor(const ExperimentJob &job)
{
    const Program &prog = *job.program;
    return cache_.capture(keyOf(job), [&]() -> CaptureResult {
        obs::Span span("simulate", "runner");
        if (obsSimulations_)
            obsSimulations_->add();
        CaptureResult r;
        const auto t0 = Clock::now();
        r.profile = std::make_unique<ExecProfile>(prog.textSize());
        Machine m(prog, *job.input);
        m.run(r.profile.get(), job.config.maxInstrs);
        r.dynInstrs = r.profile->total();
        r.simulateSec = secondsSince(t0);
        return r;
    });
}

ExperimentOutcome
ExperimentEngine::runJob(const ExperimentJob &job)
{
    obs::Span job_span("job", "runner");
    const Program &prog = *job.program;

    RunCache::CaptureRef ref = captureFor(job);

    ExperimentOutcome out;
    out.isFloat = job.isFloat;
    out.timing.assembleSec = job.assembleSec;
    out.timing.simulateSec = ref.result->simulateSec;
    out.timing.captureShared = ref.hit;
    out.timing.dynInstrs = ref.result->dynInstrs;

    const auto t1 = Clock::now();
    obs::Span analyze_span("analyze", "runner");
    DpgConfig dpg = job.config.dpg;
    dpg.verify |= verify_;
    // Differential verification audits the full per-instruction state
    // and therefore keeps the serial analyzer regardless of
    // PPM_INTRA_THREADS.
    const bool intra = intraThreads_ > 1 && !dpg.verify;
    auto feed = [&](TraceSink &sink) {
        Machine m(prog, *job.input);
        m.run(&sink, job.config.maxInstrs);
        if (obsResims_)
            obsResims_->add();
    };
    if (intra) {
        IntraRunPipeline pipeline(prog, *ref.result->profile, dpg,
                                  intraThreads_);
        feed(pipeline);
        out.stats = pipeline.takeStats();
    } else {
        DpgAnalyzer analyzer(prog, *ref.result->profile, dpg);
        feed(analyzer);
        out.stats = analyzer.takeStats();
    }
    out.timing.analyzeSec = secondsSince(t1);
    return out;
}

std::vector<ExperimentOutcome>
ExperimentEngine::runFusedJobs(
    const std::vector<const ExperimentJob *> &group)
{
    obs::Span job_span("fused_job", "runner");
    const ExperimentJob &lead = *group.front();
    const Program &prog = *lead.program;

    // All lanes share one CaptureKey, so any member can run pass 1;
    // a cache hit here (an overlapping request profiled this key)
    // must not skip any lane — each still gets its own analyzer.
    RunCache::CaptureRef ref = captureFor(lead);

    FusedAnalysisSink sink(intraThreads_);
    for (const ExperimentJob *job : group) {
        DpgConfig dpg = job->config.dpg;
        dpg.verify |= verify_;
        sink.addLane(std::make_unique<DpgAnalyzer>(
            prog, *ref.result->profile, dpg));
    }

    const auto t1 = Clock::now();
    {
        // One simulation feeds every lane, staging blocks inside the
        // sink.
        obs::Span span("fused_resim", "runner");
        Machine m(prog, *lead.input);
        m.run(&sink, lead.config.maxInstrs);
        if (obsResims_)
            obsResims_->add();
    }
    const double passSec = secondsSince(t1);

    double laneSum = 0.0;
    for (std::size_t i = 0; i < group.size(); ++i)
        laneSum += sink.laneSeconds(i);

    std::vector<ExperimentOutcome> outs(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
        ExperimentOutcome &out = outs[i];
        out.isFloat = group[i]->isFloat;
        out.stats = sink.takeStats(i);
        out.timing.assembleSec = group[i]->assembleSec;
        out.timing.simulateSec = ref.result->simulateSec;
        // Lane 0 stands for the cell that would have run pass 1;
        // the rest are sharers, mirroring the sequential accounting.
        out.timing.captureShared = i == 0 ? ref.hit : true;
        out.timing.dynInstrs = ref.result->dynInstrs;
        out.timing.analyzeSec = sink.laneSeconds(i);
        out.timing.fused = true;
        out.timing.fusedLanes = static_cast<unsigned>(group.size());
        out.timing.laneIndex = static_cast<unsigned>(i);
        if (i == 0) {
            out.timing.dispatchSec =
                passSec > laneSum ? passSec - laneSum : 0.0;
        }
    }

    if (obsFusedGroups_)
        obsFusedGroups_->add();
    if (obsFusedLanes_)
        obsFusedLanes_->add(group.size());
    return outs;
}

std::vector<ExperimentOutcome>
ExperimentEngine::runSampledJobs(
    const std::vector<const ExperimentJob *> &group)
{
    obs::Span job_span("sampled_job", "runner");
    const ExperimentJob &lead = *group.front();

    // No RunCache entry: the profiling pass streams into checkpoints
    // and interval signatures directly, and the measurement pass
    // re-produces only the sampled sub-streams. runClaimed's
    // unconditional key release is a no-op for never-cached keys.
    std::vector<DpgConfig> configs;
    configs.reserve(group.size());
    for (const ExperimentJob *job : group)
        configs.push_back(job->config.dpg);

    if (obsSimulations_)
        obsSimulations_->add();
    SampledResult res =
        runSampledAnalysis(*lead.program, *lead.input,
                           lead.config.maxInstrs, configs, sample_,
                           intraThreads_);

    std::vector<ExperimentOutcome> outs(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
        ExperimentOutcome &out = outs[i];
        out.isFloat = group[i]->isFloat;
        out.stats = std::move(res.stats[i]);
        out.timing.assembleSec = group[i]->assembleSec;
        out.timing.simulateSec = res.timing.simulateSec;
        out.timing.captureShared = i != 0;
        out.timing.dynInstrs = res.timing.dynInstrs;
        out.timing.analyzeSec = res.laneSeconds[i];
        out.timing.sampled = true;
        out.timing.phases = res.timing.phases;
        out.timing.sampledInstrs = res.timing.sampledInstrs;
        if (group.size() > 1) {
            out.timing.fused = true;
            out.timing.fusedLanes =
                static_cast<unsigned>(group.size());
            out.timing.laneIndex = static_cast<unsigned>(i);
        }
        if (i == 0) {
            // Shared per-group costs live on lane 0, mirroring the
            // fused accounting (see StageTiming::dispatchSec).
            out.timing.checkpointSec = res.timing.checkpointSec;
            out.timing.fastForwardSec = res.timing.fastForwardSec;
            out.timing.dispatchSec = res.timing.dispatchSec;
        }
    }

    if (group.size() > 1) {
        if (obsFusedGroups_)
            obsFusedGroups_->add();
        if (obsFusedLanes_)
            obsFusedLanes_->add(group.size());
    }
    return outs;
}

// --- request queue ---------------------------------------------------

void
ExperimentEngine::ensureWorkersLocked()
{
    if (poolStarted_)
        return;
    poolStarted_ = true;
    pool_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
        pool_.emplace_back(&ExperimentEngine::workerLoop, this, t);
}

ExperimentEngine::StatePtr
ExperimentEngine::enqueueLocked(ExperimentJob job, bool recordHistory)
{
    auto state = std::make_shared<RequestState>();
    state->job = std::move(job);
    state->id = nextRequestId_++;
    state->recordHistory = recordHistory;
    state->submitTime = Clock::now();
    state->engine = this;
    if (inflight_++ == 0)
        activeStart_ = state->submitTime;
    ++liveKeys_[keyOf(state->job)];
    pending_.push_back(state);
    if (obsQueueDepth_) {
        obsQueueDepth_->set(
            static_cast<std::int64_t>(pending_.size()));
    }
    if (obsInflight_)
        obsInflight_->set(static_cast<std::int64_t>(inflight_));
    return state;
}

RequestHandle
ExperimentEngine::submit(ExperimentRequest request)
{
    StatePtr state;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        ensureWorkersLocked();
        state = enqueueLocked(std::move(request.job),
                              /*recordHistory=*/true);
    }
    workCv_.notify_one();
    return RequestHandle(state);
}

std::vector<RequestHandle>
ExperimentEngine::submitAll(const std::vector<ExperimentJob> &jobs)
{
    return submitAllInternal(jobs, /*recordHistory=*/true);
}

std::vector<RequestHandle>
ExperimentEngine::submitAllInternal(
    const std::vector<ExperimentJob> &jobs, bool recordHistory)
{
    std::vector<RequestHandle> handles;
    handles.reserve(jobs.size());
    {
        // One critical section for the whole batch: every job is
        // pending before any worker can claim, so same-key cells
        // coalesce exactly as the old batch engine grouped them.
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (!jobs.empty())
            ensureWorkersLocked();
        for (const ExperimentJob &job : jobs) {
            handles.push_back(
                RequestHandle(enqueueLocked(job, recordHistory)));
        }
    }
    workCv_.notify_all();
    return handles;
}

std::vector<ExperimentEngine::StatePtr>
ExperimentEngine::claimLocked()
{
    std::vector<StatePtr> group;
    group.push_back(pending_.front());
    pending_.pop_front();
    if (fused_) {
        // The coalescing window: every still-pending request with the
        // lead's CaptureKey joins this pass, in submission order.
        const CaptureKey key = keyOf(group.front()->job);
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (keyOf((*it)->job) == key) {
                group.push_back(*it);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }
    const auto now = Clock::now();
    for (const StatePtr &state : group) {
        state->status = RequestStatus::Running;
        state->claimTime = now;
    }
    if (obsQueueDepth_) {
        obsQueueDepth_->set(
            static_cast<std::int64_t>(pending_.size()));
    }
    return group;
}

void
ExperimentEngine::runClaimed(const std::vector<StatePtr> &group)
{
    const auto t0 = Clock::now();
    std::vector<ExperimentOutcome> outs;
    std::exception_ptr error;
    // Per-job verify requests (not just PPM_VERIFY) also force the
    // full path: differential verification needs the whole stream.
    const bool anyVerify = std::any_of(
        group.begin(), group.end(), [](const StatePtr &state) {
            return state->job.config.dpg.verify;
        });
    try {
        if (samplingEnabled() && !anyVerify) {
            std::vector<const ExperimentJob *> jobs;
            jobs.reserve(group.size());
            for (const StatePtr &state : group)
                jobs.push_back(&state->job);
            outs = runSampledJobs(jobs);
        } else if (group.size() == 1) {
            outs.push_back(runJob(group.front()->job));
        } else {
            std::vector<const ExperimentJob *> jobs;
            jobs.reserve(group.size());
            for (const StatePtr &state : group)
                jobs.push_back(&state->job);
            outs = runFusedJobs(jobs);
        }
    } catch (...) {
        // A fused pass fails as a unit: every lane's cell reports the
        // same exception.
        error = std::current_exception();
    }
    const double busySec = secondsSince(t0);
    const auto doneAt = Clock::now();

    std::vector<TimedRun> historyRows;
    bool zero = false;
    CaptureKey key = keyOf(group.front()->job);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        for (std::size_t i = 0; i < group.size(); ++i) {
            RequestState &state = *group[i];
            if (error) {
                state.error = error;
                state.status = RequestStatus::Failed;
            } else {
                state.outcome = std::move(outs[i]);
                state.outcome.timing.queueSec =
                    std::chrono::duration<double>(state.claimTime -
                                                  state.submitTime)
                        .count();
                state.status = RequestStatus::Done;
                if (state.recordHistory) {
                    historyRows.push_back(
                        TimedRun{state.outcome.stats.workload,
                                 state.outcome.stats.kind,
                                 state.outcome.timing});
                }
            }
            if (obsQueueUs_) {
                obsQueueUs_->observe(static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::micro>(
                        state.claimTime - state.submitTime)
                        .count()));
            }
            if (obsLatencyUs_) {
                obsLatencyUs_->observe(static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::micro>(
                        doneAt - state.submitTime)
                        .count()));
            }
        }
        auto live = liveKeys_.find(key);
        if (live != liveKeys_.end()) {
            live->second -= static_cast<unsigned>(group.size());
            if (live->second == 0) {
                liveKeys_.erase(live);
                zero = true;
            }
        }
        windowBusySec_ += busySec;
        inflight_ -= static_cast<unsigned>(group.size());
        if (obsInflight_)
            obsInflight_->set(static_cast<std::int64_t>(inflight_));
        if (inflight_ == 0) {
            const double wall = secondsSince(activeStart_);
            if (obs::Gauge *g =
                    obs::gauge("runner.utilization_pct")) {
                if (wall > 0.0) {
                    g->set(static_cast<std::int64_t>(
                        100.0 * windowBusySec_ /
                        (wall * threads_)));
                }
            }
            std::lock_guard<std::mutex> hlock(historyMutex_);
            totalWallSec_ += wall;
            windowBusySec_ = 0.0;
        }
    }
    if (zero)
        cache_.release(key);

    if (!historyRows.empty()) {
        std::lock_guard<std::mutex> hlock(historyMutex_);
        for (TimedRun &row : historyRows)
            history_.push_back(std::move(row));
    }

    if (obsJobs_)
        obsJobs_->add(group.size());
    if (obsWorkerBusyUs_) {
        obsWorkerBusyUs_->add(
            static_cast<std::uint64_t>(busySec * 1e6));
    }
    if (obsHitRate_) {
        const RunCache::Counters c = cache_.counters();
        const std::uint64_t lookups = c.captureHits + c.captureMisses;
        if (lookups > 0) {
            obsHitRate_->set(static_cast<std::int64_t>(
                100 * c.captureHits / lookups));
        }
    }
    doneCv_.notify_all();
}

void
ExperimentEngine::workerLoop(unsigned wi)
{
    if (obs::tracer()) {
        obs::tracer()->setThreadName("worker-" +
                                     std::to_string(wi));
    }
    std::unique_lock<std::mutex> lock(queueMutex_);
    for (;;) {
        workCv_.wait(lock,
                     [&] { return stopping_ || !pending_.empty(); });
        if (pending_.empty()) {
            if (stopping_)
                return; // Drained: every admitted request resolved.
            continue;
        }
        const std::vector<StatePtr> group = claimLocked();
        lock.unlock();
        runClaimed(group);
        lock.lock();
    }
}

std::vector<ExperimentOutcome>
ExperimentEngine::run(const std::vector<ExperimentJob> &jobs)
{
    std::vector<ExperimentOutcome> results(jobs.size());
    if (jobs.empty())
        return results;

    obs::Span batch_span("run_batch", "runner");
    if (obsBatches_)
        obsBatches_->add();

    std::vector<RequestHandle> handles =
        submitAllInternal(jobs, /*recordHistory=*/false);

    // Wait in submission order; the first failure (in that order) is
    // rethrown only after every cell of the batch has drained.
    std::exception_ptr first;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        try {
            results[i] = handles[i].wait();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);

    {
        std::lock_guard<std::mutex> lock(historyMutex_);
        for (const ExperimentOutcome &out : results) {
            history_.push_back(TimedRun{out.stats.workload,
                                        out.stats.kind,
                                        out.timing});
        }
    }
    return results;
}

unsigned
ExperimentEngine::inflight() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return inflight_;
}

std::size_t
ExperimentEngine::queueDepth() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return pending_.size();
}

std::vector<ExperimentEngine::TimedRun>
ExperimentEngine::history() const
{
    std::lock_guard<std::mutex> lock(historyMutex_);
    return history_;
}

double
ExperimentEngine::totalWallSec() const
{
    std::lock_guard<std::mutex> lock(historyMutex_);
    return totalWallSec_;
}

ExperimentEngine &
ExperimentEngine::shared()
{
    static ExperimentEngine engine;
    engine.reportAtExit_ = true;
    return engine;
}

} // namespace ppm
