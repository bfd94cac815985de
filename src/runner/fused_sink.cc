#include "runner/fused_sink.hh"

#include <algorithm>
#include <chrono>

#include "runner/intra_pipeline.hh"

namespace ppm {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

FusedAnalysisSink::FusedAnalysisSink(unsigned dispatchThreads)
    : dispatchThreads_(dispatchThreads == 0 ? 1 : dispatchThreads)
{
    staged_.reserve(kStageBlock);
}

FusedAnalysisSink::~FusedAnalysisSink()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

std::size_t
FusedAnalysisSink::addLane(std::unique_ptr<DpgAnalyzer> analyzer)
{
    lanes_.push_back(Lane{std::move(analyzer), 0.0});
    return lanes_.size() - 1;
}

void
FusedAnalysisSink::setWarmup(bool on)
{
    {
        // Dispatch is synchronous (the per-block barrier drains every
        // lane before dispatch returns), so no worker is mid-block
        // here; the lock still publishes the flag to the pool.
        std::lock_guard<std::mutex> lock(m_);
        warmup_ = on;
    }
    if (!on) {
        for (Lane &lane : lanes_)
            lane.analyzer->markWarmupEnd();
    }
}

void
FusedAnalysisSink::dispatch(std::span<const DynInstr> block)
{
    if (dispatchThreads_ > 1 && lanes_.size() > 1) {
        dispatchParallel(block);
        return;
    }
    // Two clock reads per lane per 256-instruction block (< 0.1 % of
    // a lane's analyze cost) buy exact per-lane stage attribution.
    for (Lane &lane : lanes_) {
        const auto t0 = Clock::now();
        if (warmup_) [[unlikely]]
            lane.analyzer->warmupBlock(block);
        else
            lane.analyzer->onBlock(block);
        lane.seconds += secondsSince(t0);
    }
}

void
FusedAnalysisSink::ensureWorkers()
{
    if (!workers_.empty())
        return;
    const std::size_t n =
        std::min<std::size_t>(dispatchThreads_, lanes_.size());
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
FusedAnalysisSink::dispatchParallel(std::span<const DynInstr> block)
{
    ensureWorkers();
    std::unique_lock<std::mutex> lock(m_);
    current_ = block;
    lanesDone_ = 0;
    nextLane_.store(0, std::memory_order_relaxed);
    ++generation_;
    workCv_.notify_all();
    // The barrier per block is what keeps lanes lock-free inside
    // onBlock: no lane is ever touched by two threads concurrently,
    // and the next block is not produced until every lane consumed
    // this one. Waiting for busy_ == 0 (not just the lane count)
    // closes the straggler window — a worker that woke for this
    // block but lost every claim still holds the stale span until it
    // re-enters the wait.
    doneCv_.wait(lock, [&] {
        return lanesDone_ == lanes_.size() && busy_ == 0;
    });
}

void
FusedAnalysisSink::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    std::uint64_t seen = 0;
    for (;;) {
        workCv_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        const std::span<const DynInstr> block = current_;
        // Copy the mode under the lock: setWarmup only flips between
        // blocks, but workers must not read the member unlocked.
        const bool warm = warmup_;
        ++busy_;
        lock.unlock();
        std::size_t processed = 0;
        for (;;) {
            const std::size_t i =
                nextLane_.fetch_add(1, std::memory_order_relaxed);
            if (i >= lanes_.size())
                break;
            Lane &lane = lanes_[i];
            const auto t0 = Clock::now();
            if (warm) [[unlikely]]
                lane.analyzer->warmupBlock(block);
            else
                lane.analyzer->onBlock(block);
            lane.seconds += secondsSince(t0);
            ++processed;
        }
        lock.lock();
        lanesDone_ += processed;
        --busy_;
        if (lanesDone_ == lanes_.size() && busy_ == 0)
            doneCv_.notify_one();
    }
}

void
FusedAnalysisSink::onInstr(const DynInstr &di)
{
    staged_.push_back(di);
    if (staged_.size() >= kStageBlock) {
        dispatch(std::span<const DynInstr>(staged_));
        staged_.clear();
    }
}

void
FusedAnalysisSink::onBlock(std::span<const DynInstr> block)
{
    // Mixed delivery keeps program order: drain any staged singles
    // before the producer's block goes out.
    if (!staged_.empty()) {
        dispatch(std::span<const DynInstr>(staged_));
        staged_.clear();
    }
    dispatch(block);
}

void
FusedAnalysisSink::onRunEnd()
{
    if (!staged_.empty()) {
        dispatch(std::span<const DynInstr>(staged_));
        staged_.clear();
    }
    for (Lane &lane : lanes_) {
        const auto t0 = Clock::now();
        lane.analyzer->onRunEnd();
        lane.seconds += secondsSince(t0);
    }
}

LaneResults
analyzeLanes(const Program &prog, const ExecProfile &profile,
             const std::vector<DpgConfig> &lanes, unsigned intraThreads,
             const std::function<void(TraceSink &)> &produce)
{
    LaneResults out;
    const auto t0 = Clock::now();
    if (lanes.size() == 1) {
        // A single lane is its own sink: a 1-lane FusedAnalysisSink
        // would only add a staging copy (3.10 s against 2.71 s median
        // m88k_long wall in a 5-pair A/B on a shared 4-core VM).
        // Differential verification audits the full per-instruction
        // state, so it keeps the serial analyzer.
        if (intraThreads > 1 && !lanes[0].verify) {
            IntraRunPipeline pipeline(prog, profile, lanes[0],
                                      intraThreads);
            produce(pipeline);
            out.stats.push_back(pipeline.takeStats());
        } else {
            DpgAnalyzer analyzer(prog, profile, lanes[0]);
            produce(analyzer);
            out.stats.push_back(analyzer.takeStats());
        }
        out.passSec = secondsSince(t0);
        out.laneSeconds.push_back(out.passSec);
        return out;
    }

    FusedAnalysisSink sink(intraThreads);
    for (const DpgConfig &cfg : lanes)
        sink.addLane(std::make_unique<DpgAnalyzer>(prog, profile, cfg));
    produce(sink);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const auto t1 = Clock::now();
        out.stats.push_back(sink.takeStats(i));
        out.laneSeconds.push_back(sink.laneSeconds(i) +
                                  secondsSince(t1));
    }
    out.passSec = secondsSince(t0);
    return out;
}

} // namespace ppm
