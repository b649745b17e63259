/**
 * @file
 * The `ingest` workload: a closed loop straight into engine::Engine,
 * no sockets. 32 sessions replay calibrated streams encoded at set-up
 * in 512-event frames. Each session is a caller with exactly one
 * frame in flight: the completion callback that delivers a frame's
 * answer submits the session's next frame with Engine::submitShared.
 * Wire decode, Session::apply and the shard-ring handoff do almost
 * all the work, and nothing outside the engine's workers sits in the
 * loop, so a stalled benchmark thread cannot starve them. Sessions
 * cycle through their frames until the run's time is up.
 */

#include <sys/prctl.h>
#include <time.h>

#include <atomic>
#include <cstdio>

#include "bench.hh"
#include "engine/engine.hh"
#include "telemetry/span.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kSessions = 32;
constexpr std::uint32_t kFrameEvents = 512;
constexpr std::size_t kWorkers = 2;
constexpr int kSetups = 3;
/** Traced run: engine stage spans and benchmark spans on 1 frame in
 *  this many per session. */
constexpr std::uint64_t kSpanEvery = 64;
/** Frames per session per second to reserve record space for, so the
 *  callbacks do not reallocate while timed. */
constexpr double kReserveFramesPerSecond = 4000;
/** The main thread's nap while the loop runs; its wake-up gaps are
 *  the run's host-interference record. */
constexpr long kNapNs = 250'000;

engine::EngineConfig
engineConfig(bool traced)
{
    // Serving defaults (tau 50, uncapped fragment cache, Block
    // policy, 16 shards) with 2 workers.
    engine::EngineConfig config;
    config.workerThreads = kWorkers;
    config.sessions.shardCount = 16;
    config.spanSampleEvery = traced ? kSpanEvery : 0;
    return config;
}

/** One session's side of the loop. After the first submit it is
 *  touched only by the completion callbacks of its frames, which run
 *  one at a time on the worker that owns the session's shard. */
struct alignas(64) Caller
{
    std::vector<FrameRecord> records;
    std::uint64_t submitted = 0;
    /** Written by one worker, read at slice boundaries. */
    std::atomic<std::uint64_t> eventsAnswered{0};
    /** Traced runs: time inside submitShared, and sampled spans. */
    std::int64_t submitNs = 0;
    std::vector<Span> spans;
};

/** One set-up: inputs, callers and a running engine. The engine is
 *  declared last, so it stops before the callers it calls back. */
struct Stack
{
    StreamSet streams;
    std::unique_ptr<Caller[]> callers;
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> looping{0};
    bool traced = false;
    std::unique_ptr<engine::Engine> engine;
    std::int64_t setupNs = 0;

    static std::uint64_t
    traceId(std::size_t s, std::uint64_t frame)
    {
        return (static_cast<std::uint64_t>(s) << 40) | frame;
    }

    /**
     * Submit session `s`'s next frame; ends its loop on a refusal.
     * Only submits made from the session's own completion callback
     * (`timed`) record the submit span: after the main thread's first
     * submit, the worker may already be answering the frame.
     */
    void
    submitNext(std::size_t s, bool timed)
    {
        Caller &caller = callers[s];
        const SessionStream &stream = streams.sessions[s];
        const std::uint64_t n = caller.submitted++;
        const std::size_t f = n % stream.frames();
        const std::int64_t due = nowNs();
        caller.records.push_back(
            {static_cast<std::uint32_t>(s), due, -1, 0});
        const bool ok = engine->submitShared(
            stream.bytes, stream.offsets[f], stream.lengths[f], s);
        if (traced && timed) {
            const std::int64_t end = nowNs();
            caller.submitNs += end - due;
            if (n % kSpanEvery == 0)
                caller.spans.push_back({"engine.submit_shared",
                                        traceId(s, n), "ingest.frame",
                                        due, end});
        }
        if (!ok)
            looping.fetch_sub(1, std::memory_order_release);
    }

    /** The completion callback: record the answer, then either
     *  submit the next frame or leave the loop. */
    void
    answered(const engine::FrameOutcome &outcome)
    {
        const std::size_t s = outcome.tag;
        Caller &caller = callers[s];
        FrameRecord &r = caller.records.back();
        const std::int64_t now = nowNs();
        if (outcome.applied) {
            r.latencyNs = now - r.dueNs;
            r.digest =
                digest(outcome.predictions, outcome.predictionCount);
            caller.eventsAnswered.store(
                caller.eventsAnswered.load(std::memory_order_relaxed) +
                    outcome.events,
                std::memory_order_relaxed);
        }
        const std::uint64_t n = caller.submitted - 1;
        if (traced && n % kSpanEvery == 0)
            caller.spans.push_back(
                {"ingest.frame", traceId(s, n), "", r.dueNs, now});
        if (stop.load(std::memory_order_relaxed))
            looping.fetch_sub(1, std::memory_order_release);
        else
            submitNext(s, true);
    }
};

std::unique_ptr<Stack>
setUp(std::uint64_t seed, double seconds, bool traced)
{
    const std::int64_t start = nowNs();
    auto stack = std::make_unique<Stack>();
    stack->streams = buildStreams(seed, kSessions, kFrameEvents);
    stack->callers = std::make_unique<Caller[]>(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s)
        stack->callers[s].records.reserve(static_cast<std::size_t>(
            (seconds + kWarmupNs / 1e9) * kReserveFramesPerSecond));
    stack->traced = traced;
    stack->engine =
        std::make_unique<engine::Engine>(engineConfig(traced));
    stack->engine->setFrameCallback(
        [raw = stack.get()](const engine::FrameOutcome &outcome) {
            raw->answered(outcome);
        });
    stack->setupNs = nowNs() - start;
    return stack;
}

/** What one timed run measured. */
struct Phase
{
    std::vector<FrameRecord> records;
    HostRecord host;
    Slices slices{0, 1.0};
    double peakRssMb = 0;
    std::int64_t wallNs = 0;
    std::int64_t programCpuNs = 0;
    std::uint64_t eventsAnswered = 0;
    /** Time inside submitShared (traced runs only). */
    std::int64_t submitNs = 0;
    std::int64_t drainNs = 0;
    engine::EngineStats stats;
};

Phase
drive(Stack &stack, double seconds, SpanLog *spans)
{
    Phase phase;
    prctl(PR_SET_TIMERSLACK, 1UL);
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = processCpuNs();
    const std::int64_t mainStart = threadCpuNs();
    phase.slices = Slices(start + kWarmupNs, seconds);
    const auto answeredEvents = [&stack] {
        std::uint64_t events = 0;
        for (std::size_t s = 0; s < kSessions; ++s)
            events += stack.callers[s].eventsAnswered.load(
                std::memory_order_relaxed);
        return events;
    };

    stack.looping.store(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s)
        stack.submitNext(s, false);
    const timespec nap{0, kNapNs};
    for (std::int64_t now = nowNs(); !phase.slices.complete();
         now = nowNs()) {
        phase.host.turn(now);
        if (phase.slices.due(now))
            phase.slices.read(
                {now, processCpuNs() - threadCpuNs(), answeredEvents()});
        nanosleep(&nap, nullptr);
    }
    phase.peakRssMb = peakRssMb();
    stack.stop.store(true, std::memory_order_relaxed);
    while (stack.looping.load(std::memory_order_acquire) != 0)
        nanosleep(&nap, nullptr);
    const std::int64_t drainStart = nowNs();
    stack.engine->drain();
    const std::int64_t end = nowNs();
    phase.drainNs = end - drainStart;

    phase.wallNs = end - start;
    phase.programCpuNs =
        (processCpuNs() - cpuStart) - (threadCpuNs() - mainStart);
    phase.host.threads = liveThreads();
    phase.stats = stack.engine->stats();
    for (std::size_t s = 0; s < kSessions; ++s) {
        const Caller &caller = stack.callers[s];
        phase.records.insert(phase.records.end(), caller.records.begin(),
                             caller.records.end());
        phase.eventsAnswered += caller.eventsAnswered.load();
        phase.submitNs += caller.submitNs;
        if (spans)
            for (const Span &span : caller.spans)
                spans->add(span.name, span.trace, span.parent,
                           span.startNs, span.endNs);
    }
    if (spans)
        spans->add("engine.drain", 0, "", drainStart, end);
    return phase;
}

/** The oracle, the self-test and the engine's conservation ledger
 *  at drain; returns the tally. */
Score
check(const Stack &stack, const Phase &phase, Result &result)
{
    const Score tally = checkAnswers(stack.streams, phase.records,
                                     engineConfig(false).sessions.session,
                                     result);
    const engine::EngineStats &es = phase.stats;
    const std::uint64_t absorbed = es.framesRejected +
                                   es.fault.injectedDrops +
                                   es.fault.shedFrames + es.framesDecoded;
    if (es.framesSubmitted != phase.records.size() ||
        es.framesSubmitted != absorbed)
        result.fail("engine ledger: submitted != rejected + dropped + "
                    "shed + decoded");
    if (es.framesDecoded != es.fault.framesApplied +
                                es.fault.backoffDroppedFrames +
                                es.fault.allocDroppedFrames)
        result.fail("engine ledger: decoded != applied + dropped");
    return tally;
}

void
printPhase(const char *label, const Phase &phase, const Score &tally)
{
    std::printf("%s: %llu frames, %llu events in %.3f s (with warm-up); "
                "%.1f program CPU ns/event; ok %llu, within 1 ms %llu\n",
                label, static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(phase.eventsAnswered),
                static_cast<double>(phase.wallNs) / 1e9,
                static_cast<double>(phase.programCpuNs) /
                    static_cast<double>(phase.eventsAnswered),
                static_cast<unsigned long long>(tally.ok),
                static_cast<unsigned long long>(tally.within));
    printRun(label, phase.records, phase.slices, phase.host);
}

} // namespace

Result
runIngest(const Options &options)
{
    Result result;
    if (!options.trace) {
        // Measure on the process's first set-up, so peak RSS does not
        // depend on the heap the extra set-ups leave behind; time the
        // extra set-ups afterwards.
        std::unique_ptr<Stack> stack =
            setUp(options.seed, options.seconds, false);
        std::vector<double> setups{static_cast<double>(stack->setupNs) /
                                   1e9};
        const Phase phase = drive(*stack, options.seconds, nullptr);
        const Score tally = check(*stack, phase, result);
        printPhase("ingest", phase, tally);
        stack.reset();
        for (int i = 1; i < kSetups; ++i)
            setups.push_back(
                static_cast<double>(
                    setUp(options.seed, options.seconds, false)->setupNs) /
                1e9);
        result.attempted = tally.attempted;
        result.failed = tally.attempted - tally.ok;
        result.metrics = endToEndMetrics(setups, phase.peakRssMb, tally,
                                         phase.slices, phase.records);
        return result;
    }

    // Traced run: an untraced phase for the overhead baseline, then
    // the same phase with engine stage spans and benchmark spans.
    double untracedCpu = 0;
    {
        std::unique_ptr<Stack> stack =
            setUp(options.seed, options.seconds, false);
        const Phase phase = drive(*stack, options.seconds, nullptr);
        printPhase("ingest untraced", phase, check(*stack, phase, result));
        untracedCpu = phase.slices.cpuNsPerEvent();
    }
    SpanLog spans;
    std::unique_ptr<Stack> stack =
        setUp(options.seed, options.seconds, true);
    const Phase phase = drive(*stack, options.seconds, &spans);
    const Score tally = check(*stack, phase, result);
    printPhase("ingest traced", phase, tally);
    if (!options.spansOut.empty() && !spans.write(options.spansOut))
        result.fail("could not write spans to " + options.spansOut);

    using hotpath::telemetry::Stage;
    const hotpath::telemetry::SpanRecorder *recorder =
        stack->engine->spanRecorder();
    const auto stageUs = [recorder](Stage stage) {
        const hotpath::telemetry::StageTotals t = recorder->totals(stage);
        return t.count ? static_cast<double>(t.sumNs) / t.count / 1000.0
                       : 0.0;
    };
    std::uint64_t busy = 0;
    std::uint64_t idle = 0;
    for (std::size_t w = 0; w < phase.stats.workerBusyNs.size(); ++w) {
        busy += phase.stats.workerBusyNs[w];
        idle += phase.stats.workerIdleNs[w];
    }

    LayerFigures f;
    measureWireAndSession(stack->streams,
                          engineConfig(false).sessions.session, f);
    f.submitBlockedShare =
        busy ? static_cast<double>(phase.submitNs) / busy : 0.0;
    f.backpressureWaits = static_cast<double>(phase.stats.backpressureWaits);
    f.drainMs = static_cast<double>(phase.drainNs) / 1e6;
    f.workerBusyShare =
        busy + idle ? static_cast<double>(busy) / (busy + idle) : 0.0;
    f.queueWaitUs = stageUs(Stage::QueueWait);
    f.predictUs = stageUs(Stage::Predict);
    f.stallsOver1ms = static_cast<double>(phase.host.stallsOver1ms);
    f.generatorThreads = static_cast<double>(phase.host.generatorThreads);
    const double tracedCpu = phase.slices.cpuNsPerEvent();
    f.traceOverheadPct =
        untracedCpu > 0 ? 100.0 * (tracedCpu - untracedCpu) / untracedCpu
                        : 0.0;

    const double frameUs = spans.meanUs("ingest.frame");
    const double submitUs = spans.meanUs("engine.submit_shared");
    const double decodeUs = stageUs(Stage::Decode);
    std::printf("ingest budget (sampled frames, mean us): frame %.1f = "
                "submit %.2f + queue_wait %.1f + decode %.1f + predict "
                "%.1f + callbacks and rest %.1f\n",
                frameUs, submitUs, f.queueWaitUs, decodeUs, f.predictUs,
                frameUs - submitUs - f.queueWaitUs - decodeUs -
                    f.predictUs);

    result.attempted = tally.attempted;
    result.failed = tally.attempted - tally.ok;
    result.metrics = layerMetrics(f);
    return result;
}

} // namespace perfbench
