/**
 * @file
 * Micro overhead benches (experiment X1): the runtime cost of each
 * profiling scheme's operations, backing the paper's Section 4
 * overhead arguments with measured numbers.
 *
 * Two families:
 *  - PathEvent-level predictor costs: one NET head-counter update vs
 *    bit tracing's per-branch shifts plus per-path table update;
 *  - CFG-level profiler costs: block profiling, edge profiling,
 *    Ball-Larus (chord probes), bit tracing, Young-Smith k-bounded
 *    windows and the NET trace builder, all attached to the same
 *    recorded execution trace (replay-only is the baseline to
 *    subtract).
 *
 * Beside them sit the serving layers' rows: stream synthesis, wire
 * encode (one frame, and a whole stream), wire decode and
 * Session::consume.
 *
 * Counter space is reported as a benchmark counter next to the time.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"

#include "engine/session.hh"
#include "engine/wire_format.hh"
#include "metrics/oracle.hh"
#include "metrics/parallel_sweep.hh"
#include "metrics/sweep.hh"
#include "paths/ball_larus.hh"
#include "paths/registry.hh"
#include "paths/splitter.hh"
#include "paths/young_smith.hh"
#include "predict/net_predictor.hh"
#include "predict/net_trace_builder.hh"
#include "predict/path_profile_predictor.hh"
#include "profile/block_profile.hh"
#include "profile/counter_table.hh"
#include "profile/edge_profile.hh"
#include "profile/ephemeral_profile.hh"
#include "profile/path_table.hh"
#include "progen/generator.hh"
#include "sim/machine.hh"
#include "sim/trace_log.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

/** --seed=<u64> (default 42), captured in main() before the shared
 * workload/trace statics below are first touched. */
std::uint64_t gSeed = 42;

/** The shared stream's workload (perl-like: many paths). */
CalibratedWorkload
sharedWorkload()
{
    WorkloadConfig config;
    config.flowScale = 1e-4;
    config.seed = gSeed;
    return CalibratedWorkload(specTarget("perl"), config);
}

/** Shared event stream. */
const std::vector<PathEvent> &
sharedStream()
{
    static const std::vector<PathEvent> stream =
        sharedWorkload().materializeStream();
    return stream;
}

/** Shared recorded CFG trace. */
struct SharedTrace
{
    SharedTrace()
    {
        ProgenConfig config;
        config.seed = gSeed + 35; // historic default 77
        synth = std::make_unique<SyntheticProgram>(config);
        Machine machine(synth->program(), synth->behavior(),
                        {.seed = 1});
        machine.addListener(&log);
        machine.run(200000);
    }

    std::unique_ptr<SyntheticProgram> synth;
    TraceLog log;
};

SharedTrace &
sharedTrace()
{
    static SharedTrace trace;
    return trace;
}

} // namespace

// PathEvent-level scheme costs ---------------------------------------

static void
BM_NetPredictorObserve(benchmark::State &state)
{
    const auto &stream = sharedStream();
    NetPredictor predictor(~0ull);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(predictor.observe(stream[i]));
        i = (i + 1) % stream.size();
    }
    state.counters["counters"] =
        static_cast<double>(predictor.countersAllocated());
    state.counters["events"] = static_cast<double>(stream.size());
    state.counters["ops_per_event"] = benchmark::Counter(
        static_cast<double>(predictor.cost().total()),
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetPredictorObserve);

static void
BM_PathProfilePredictorObserve(benchmark::State &state)
{
    const auto &stream = sharedStream();
    PathProfilePredictor predictor(~0ull);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(predictor.observe(stream[i]));
        i = (i + 1) % stream.size();
    }
    state.counters["counters"] =
        static_cast<double>(predictor.countersAllocated());
    state.counters["events"] = static_cast<double>(stream.size());
    state.counters["ops_per_event"] = benchmark::Counter(
        static_cast<double>(predictor.cost().total()),
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathProfilePredictorObserve);

static void
BM_CounterTableIncrement(benchmark::State &state)
{
    CounterTable table;
    std::uint64_t key = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.increment(key));
        key = key % 4096 + 1;
    }
    // Mean probe-chain length per increment: a hashing or tombstone
    // regression moves this counter even when the wall clock hides it
    // in noise, so compare_bench.py watches it.
    state.counters["probes_per_op"] =
        benchmark::Counter(static_cast<double>(table.probes()),
                           benchmark::Counter::kAvgIterations);
    state.counters["counters"] =
        static_cast<double>(table.size());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterTableIncrement);

static void
BM_SignatureShift(benchmark::State &state)
{
    PathSignature signature(0x1000);
    std::uint64_t i = 0;
    for (auto _ : state) {
        signature.pushOutcome(i & 1);
        if (++i % 64 == 0)
            signature.reset(0x1000);
        benchmark::DoNotOptimize(signature);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureShift);

static void
BM_WireEncode(benchmark::State &state)
{
    const auto &stream = sharedStream();
    constexpr std::size_t kFrameEvents = 256;
    std::vector<std::uint8_t> frame;
    std::size_t i = 0;
    std::uint64_t sequence = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        if (i + kFrameEvents > stream.size())
            i = 0;
        // clear() keeps capacity: after the first frame the encoder's
        // up-front reserve never reallocates, which is the steady
        // state a streaming producer sees.
        frame.clear();
        wire::appendEventFrame(frame, 1, sequence++,
                               stream.data() + i, kFrameEvents);
        benchmark::DoNotOptimize(frame.data());
        bytes += frame.size();
        i += kFrameEvents;
    }
    state.counters["frame_bytes"] = benchmark::Counter(
        static_cast<double>(bytes), benchmark::Counter::kAvgIterations);
    state.counters["events"] = static_cast<double>(kFrameEvents);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kFrameEvents));
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WireEncode);

// Set-up and wire layer rows: the kernels that turn a calibrated
// workload into wire frames, and the decode every ingested frame
// pays. Items are events.

static void
BM_MaterializeStream(benchmark::State &state)
{
    const CalibratedWorkload workload = sharedWorkload();
    std::size_t events = 0;
    for (auto _ : state) {
        const std::vector<PathEvent> stream =
            workload.materializeStream();
        benchmark::DoNotOptimize(stream.data());
        benchmark::ClobberMemory();
        events = stream.size();
    }
    state.counters["events"] = static_cast<double>(events);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * events));
}
BENCHMARK(BM_MaterializeStream)->Unit(benchmark::kMillisecond);

/** A whole-stream encode, 512-event frames. */
static void
BM_WireEncodeStream(benchmark::State &state)
{
    const auto &stream = sharedStream();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::vector<std::uint8_t> encoded =
            wire::encodeEventStream(stream, 1, 512);
        benchmark::DoNotOptimize(encoded.data());
        benchmark::ClobberMemory();
        bytes = encoded.size();
    }
    state.counters["events"] = static_cast<double>(stream.size());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * stream.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_WireEncodeStream)->Unit(benchmark::kMillisecond);

/** decodeFrame over the same 512-event frames, one frame per
 *  iteration, into one reused DecodedFrame (the engine's scratch). */
static void
BM_WireDecode(benchmark::State &state)
{
    const std::vector<std::uint8_t> bytes =
        wire::encodeEventStream(sharedStream(), 1, 512);
    wire::DecodedFrame frame;
    std::size_t offset = 0;
    std::size_t events = 0;
    for (auto _ : state) {
        if (offset == bytes.size())
            offset = 0;
        if (wire::decodeFrame(bytes.data(), bytes.size(), offset,
                              frame) != wire::DecodeStatus::Ok) {
            state.SkipWithError("decode failed");
            break;
        }
        benchmark::DoNotOptimize(frame.events.data());
        events += frame.events.size();
    }
    state.counters["events"] = 512;
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WireDecode);

/** Session::consume on 32 serving-default sessions fed the shared
 *  stream interleaved 512 events at a time, as a shard worker meets
 *  its sessions' frames: one 512-event chunk per iteration. Each
 *  session has seen the whole stream once before timing starts, so
 *  the row measures the serving steady state, where nearly every
 *  event is a fragment-cache hit. */
static void
BM_SessionConsume(benchmark::State &state)
{
    constexpr std::size_t kSessions = 32;
    constexpr std::size_t kChunk = 512;
    const auto &stream = sharedStream();
    std::vector<std::unique_ptr<engine::Session>> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.push_back(
            std::make_unique<engine::Session>(s, engine::SessionConfig{}));
        for (const PathEvent &event : stream)
            sessions.back()->consume(event);
    }
    std::size_t offset = 0;
    std::size_t next = 0;
    std::size_t events = 0;
    for (auto _ : state) {
        engine::Session &session = *sessions[next];
        const std::size_t end = std::min(offset + kChunk, stream.size());
        for (std::size_t i = offset; i < end; ++i)
            benchmark::DoNotOptimize(session.consume(stream[i]));
        events += end - offset;
        if (++next == kSessions) {
            next = 0;
            offset = end == stream.size() ? 0 : end;
        }
    }
    state.counters["events"] = static_cast<double>(stream.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SessionConsume);

// CFG-level profiler costs (per executed block) ----------------------

static void
BM_ReplayOnly(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state)
        shared.log.replay(shared.synth->program(), {});
    state.counters["events"] =
        static_cast<double>(shared.log.size());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_ReplayOnly);

static void
BM_BlockProfilerReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        BlockProfiler profiler;
        shared.log.replay(shared.synth->program(), {&profiler});
        benchmark::DoNotOptimize(profiler.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_BlockProfilerReplay);

static void
BM_EphemeralProfilerReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        EphemeralBlockProfiler profiler(50);
        shared.log.replay(shared.synth->program(), {&profiler});
        benchmark::DoNotOptimize(profiler.probesRetired());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_EphemeralProfilerReplay);

static void
BM_EdgeProfilerReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        EdgeProfiler profiler;
        shared.log.replay(shared.synth->program(), {&profiler});
        benchmark::DoNotOptimize(profiler.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_EdgeProfilerReplay);

static void
BM_BallLarusReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        BallLarusProfiler profiler(shared.synth->program());
        shared.log.replay(shared.synth->program(), {&profiler});
        benchmark::DoNotOptimize(profiler.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_BallLarusReplay);

static void
BM_BitTracingReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        BitTracingProfiler table;
        PathSplitter splitter(table);
        shared.log.replay(shared.synth->program(), {&splitter});
        splitter.flush();
        benchmark::DoNotOptimize(table.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_BitTracingReplay);

static void
BM_YoungSmithReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        YoungSmithProfiler profiler(
            static_cast<std::size_t>(state.range(0)));
        shared.log.replay(shared.synth->program(), {&profiler});
        benchmark::DoNotOptimize(profiler.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_YoungSmithReplay)->Arg(4)->Arg(8);

namespace
{

/** Discards traces (sink for the NET builder bench). */
struct NullTraceSink : NetTraceSink
{
    void onTrace(const NetTrace &) override {}
};

} // namespace

static void
BM_NetTraceBuilderReplay(benchmark::State &state)
{
    SharedTrace &shared = sharedTrace();
    for (auto _ : state) {
        NullTraceSink sink;
        NetTraceBuilderConfig config;
        config.hotThreshold = 50;
        NetTraceBuilder builder(sink, config);
        shared.log.replay(shared.synth->program(), {&builder});
        benchmark::DoNotOptimize(builder.countersAllocated());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                shared.log.size()));
}
BENCHMARK(BM_NetTraceBuilderReplay);

// Delay-sweep wall clock ---------------------------------------------

namespace
{

/** --jobs=<n> for the parallel sweep bench (default: hardware). */
std::size_t gJobs = 1;

/** The sweep inputs, derived once from the shared stream. */
struct SweepInputs
{
    SweepInputs()
    {
        const std::vector<PathEvent> &stream = sharedStream();
        for (std::uint64_t t = 0; t < stream.size(); ++t)
            oracle.onPathEvent(stream[t], t);
        delays = defaultDelaySchedule(
            std::min<std::uint64_t>(100000, stream.size()));
    }

    OracleProfile oracle;
    std::vector<std::uint64_t> delays;
};

SweepInputs &
sweepInputs()
{
    static SweepInputs inputs;
    return inputs;
}

PredictorFactory
netFactory()
{
    return [](std::uint64_t delay) {
        return std::make_unique<NetPredictor>(delay);
    };
}

void
recordSweepCounters(benchmark::State &state,
                    const std::vector<SweepPoint> &points)
{
    const SweepInputs &inputs = sweepInputs();
    state.counters["points"] = static_cast<double>(points.size());
    state.counters["events"] =
        static_cast<double>(sharedStream().size());
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(sharedStream().size() *
                                  inputs.delays.size()));
}

} // namespace

/** One full serial delay ladder: the perf-smoke "sweep wall-clock". */
static void
BM_DelaySweep(benchmark::State &state)
{
    const std::vector<PathEvent> &stream = sharedStream();
    SweepInputs &inputs = sweepInputs();
    std::vector<SweepPoint> points;
    for (auto _ : state) {
        points = delaySweep(stream, inputs.oracle, netFactory(),
                            inputs.delays, 0.001);
        benchmark::DoNotOptimize(points.data());
    }
    recordSweepCounters(state, points);
}
BENCHMARK(BM_DelaySweep)->Unit(benchmark::kMillisecond)->UseRealTime();

/** The same ladder through the pool at --jobs workers. */
static void
BM_DelaySweepParallel(benchmark::State &state)
{
    const std::vector<PathEvent> &stream = sharedStream();
    SweepInputs &inputs = sweepInputs();
    ThreadPool pool(hotpath::bench::jobsPoolConfig(gJobs));
    std::vector<SweepPoint> points;
    for (auto _ : state) {
        points = delaySweepParallel(stream, inputs.oracle,
                                    netFactory(), inputs.delays, pool,
                                    0.001);
        benchmark::DoNotOptimize(points.data());
    }
    recordSweepCounters(state, points);
    state.counters["jobs"] = static_cast<double>(gJobs);
}
BENCHMARK(BM_DelaySweepParallel)->Unit(benchmark::kMillisecond)->UseRealTime();

int
main(int argc, char **argv)
{
    gSeed = hotpath::bench::seedFlag(argc, argv, 42);
    gJobs = hotpath::bench::jobsFlag(argc, argv);

    // Strip --seed/--jobs before handing argv to google-benchmark,
    // which rejects flags it does not know.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("--seed=", 0) != 0 &&
            arg.rfind("--jobs=", 0) != 0)
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    ::benchmark::Initialize(&bench_argc, args.data());
    if (::benchmark::ReportUnrecognizedArguments(bench_argc,
                                                 args.data()))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
