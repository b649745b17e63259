/**
 * @file
 * Streaming-engine throughput bench: events/second ingested through
 * the full wire path (encode once up front; then per configuration:
 * route, queue, decode, CRC-check, predict) for a ladder of worker
 * counts, against the serial fallback as baseline.
 *
 * Frames are pre-encoded so the measured region is the engine, not
 * the producer's encoder. Each session's frames are concatenated into
 * one immutable shared buffer and submitted by offset/length through
 * Engine::submitShared - zero copies on the producer side, exactly
 * like the network server's ingest path. Sessions are interleaved
 * round-robin the way a real front-end would see concurrent clients.
 *
 * Flags (all optional):
 *   --seed=<u64>      workload synthesis seed (default 42)
 *   --sessions=<n>    concurrent client sessions (default 32)
 *   --frame=<n>       events per frame (default 512)
 *   --producers=<n>   submitter threads (default 1). Sessions are
 *                     partitioned across producers (a session is
 *                     always submitted by one thread, preserving its
 *                     frame order); the serial row (workers=0) always
 *                     runs single-producer so it stays the in-line
 *                     baseline.
 *   --threads=<list>  not a list flag; the ladder is 0 (serial),
 *                     1, 2, 4, 8 workers
 *   --spans=<n>       stage-span sampling stride for an extra paired
 *                     overhead measurement (default 0 = skip): runs
 *                     the same workload best-of-3 with spans off and
 *                     with 1-in-n sampling at --span-workers workers,
 *                     reports the throughput delta plus a per-stage
 *                     latency table, and asserts the sampled and
 *                     unsampled runs processed identical events and
 *                     predictions. The worker ladder above always
 *                     runs spans-off so its counters stay exact.
 *   --span-workers=<n> worker count for the paired runs (default 2)
 *   --json=<path>     machine-readable results (the perf-smoke CI
 *                     job feeds this to compare_bench.py)
 *   --telemetry-out=<path>  RunReport with engine.* metrics
 *
 * Scaling is reported honestly against the detected hardware
 * concurrency (recorded in the JSON as hardware_concurrency): on a
 * single-core host the >1-worker rows measure queueing overhead, not
 * parallel speedup, and compare_bench.py's scaling gate stands down.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "support/table.hh"
#include "telemetry/percentiles.hh"
#include "telemetry/span.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

/** One session's frames, pre-encoded into a single shared buffer. */
struct SessionFrames
{
    std::uint64_t id = 0;
    /** All frames back to back; submitted by slice, never copied. */
    std::shared_ptr<const std::vector<std::uint8_t>> buffer;
    /** Frame i = buffer[offsets[i] .. offsets[i] + lengths[i]). */
    std::vector<std::size_t> offsets;
    std::vector<std::size_t> lengths;
    std::uint64_t events = 0;
};

std::vector<SessionFrames>
encodeSessions(std::uint64_t seed, std::size_t sessions,
               std::size_t events_per_frame)
{
    // Each session replays one calibrated benchmark's stream; cycle
    // through the nine benchmarks so sessions differ in path mix.
    const std::vector<SpecTarget> &targets = specTargets();

    std::vector<SessionFrames> out;
    out.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
        WorkloadConfig config;
        config.flowScale = 1e-4;
        config.seed = seed + s;
        CalibratedWorkload workload(targets[s % targets.size()],
                                    config);
        const std::vector<PathEvent> stream =
            workload.materializeStream();

        SessionFrames sf;
        sf.id = 1 + s;
        sf.events = stream.size();
        std::vector<std::uint8_t> concat;
        std::uint64_t sequence = 0;
        for (std::size_t i = 0; i < stream.size();
             i += events_per_frame) {
            const std::size_t n =
                std::min(events_per_frame, stream.size() - i);
            sf.offsets.push_back(concat.size());
            wire::appendEventFrame(concat, sf.id, sequence++,
                                   stream.data() + i, n);
            sf.lengths.push_back(concat.size() - sf.offsets.back());
        }
        sf.buffer =
            std::make_shared<const std::vector<std::uint8_t>>(
                std::move(concat));
        out.push_back(std::move(sf));
    }
    return out;
}

struct RunResult
{
    double seconds = 0.0;
    std::size_t producers = 1;
    std::uint64_t events = 0;
    std::uint64_t predictions = 0;
    std::uint64_t backpressureWaits = 0;

    /** Stage-span data (only filled when the run sampled spans). */
    std::uint64_t spanSampled = 0;
    std::array<telemetry::StageTotals, telemetry::kStageCount>
        stageTotals{};
    std::array<telemetry::HistogramSnapshot, telemetry::kStageCount>
        stageHists{};

    double
    eventsPerSecond() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/** Submit frame i of every owned session before frame i+1 of any -
 *  the arrival pattern of concurrent clients. `stride` partitions
 *  sessions across producer threads; a session always belongs to
 *  exactly one producer, so its frames stay in order. */
void
submitInterleaved(engine::Engine &eng,
                  const std::vector<SessionFrames> &sessions,
                  std::size_t first, std::size_t stride)
{
    std::size_t max_frames = 0;
    for (std::size_t s = first; s < sessions.size(); s += stride)
        max_frames =
            std::max(max_frames, sessions[s].offsets.size());

    for (std::size_t i = 0; i < max_frames; ++i) {
        for (std::size_t s = first; s < sessions.size();
             s += stride) {
            const SessionFrames &sf = sessions[s];
            if (i < sf.offsets.size())
                eng.submitShared(sf.buffer, sf.offsets[i],
                                 sf.lengths[i]);
        }
    }
}

RunResult
runOnce(const std::vector<SessionFrames> &sessions,
        std::size_t workers, std::size_t producers,
        std::uint64_t span_every = 0)
{
    engine::EngineConfig config;
    config.workerThreads = workers;
    config.sessions.shardCount = 16;
    config.spanSampleEvery = span_every;
    engine::Engine eng(config);

    // The serial row processes in-line on the submitting thread; it
    // stays single-producer so it remains the one-thread baseline.
    if (workers == 0 || producers == 0)
        producers = 1;

    const auto start = std::chrono::steady_clock::now();
    if (producers == 1) {
        submitInterleaved(eng, sessions, 0, 1);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(producers);
        for (std::size_t p = 0; p < producers; ++p)
            threads.emplace_back([&, p] {
                submitInterleaved(eng, sessions, p, producers);
            });
        for (std::thread &t : threads)
            t.join();
    }
    eng.drain();
    const auto end = std::chrono::steady_clock::now();
    eng.shutdown();

    const engine::EngineStats stats = eng.stats();
    RunResult result;
    result.seconds =
        std::chrono::duration<double>(end - start).count();
    result.producers = producers;
    result.events = stats.eventsProcessed;
    result.predictions = stats.predictions;
    result.backpressureWaits = stats.backpressureWaits;
    if (const telemetry::SpanRecorder *spans = eng.spanRecorder()) {
        result.spanSampled = spans->sampledFrames();
        for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
            const auto stage = static_cast<telemetry::Stage>(s);
            result.stageTotals[s] = spans->totals(stage);
            result.stageHists[s] = spans->stageSnapshot(stage);
        }
    }
    return result;
}

/** Lowest wall clock of three identical runs - the standard noise
 *  dampener for the paired overhead comparison. */
RunResult
bestOfThree(const std::vector<SessionFrames> &sessions,
            std::size_t workers, std::size_t producers,
            std::uint64_t span_every)
{
    RunResult best;
    for (int round = 0; round < 3; ++round) {
        RunResult run =
            runOnce(sessions, workers, producers, span_every);
        if (best.seconds == 0.0 || run.seconds < best.seconds)
            best = run;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::TelemetryScope telemetry(argc, argv, "engine_throughput");

    const std::uint64_t seed = bench::seedFlag(argc, argv, 42);
    const std::size_t num_sessions = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "sessions", 32));
    const std::size_t events_per_frame = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "frame", 512));
    const std::size_t producers = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "producers", 1));
    const std::uint64_t span_every =
        bench::flagU64(argc, argv, "spans", 0);
    const std::size_t span_workers = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "span-workers", 2));
    const std::string json_path =
        bench::flagValue(argc, argv, "json");

    std::cout << "Engine throughput: wire-format ingestion into "
                 "per-session NET predictors\n\n";

    const std::vector<SessionFrames> sessions =
        encodeSessions(seed, num_sessions, events_per_frame);
    std::uint64_t total_events = 0;
    std::uint64_t total_frames = 0;
    std::uint64_t total_bytes = 0;
    for (const SessionFrames &sf : sessions) {
        total_events += sf.events;
        total_frames += sf.offsets.size();
        total_bytes += sf.buffer->size();
    }
    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << num_sessions << " sessions, " << total_events
              << " events in " << total_frames << " frames ("
              << total_bytes / 1024 << " KiB encoded, "
              << events_per_frame << " events/frame), seed " << seed
              << ", " << producers << " producer(s)\n";
    std::cout << "Hardware concurrency: " << hw
              << " (scaling beyond it measures queueing overhead, "
                 "not parallelism)\n\n";

    // Warm the allocator and page cache once before timing.
    runOnce(sessions, 0, 1);

    const std::size_t worker_ladder[] = {0u, 1u, 2u, 4u, 8u};
    std::vector<RunResult> results;
    for (std::size_t workers : worker_ladder)
        results.push_back(runOnce(sessions, workers, producers));
    const double serial_eps = results[0].eventsPerSecond();

    TextTable table;
    table.setHeader({"Workers", "Producers", "Seconds", "Events/sec",
                     "Speedup", "Predictions",
                     "Backpressure waits"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &result = results[i];
        table.beginRow();
        table.addCell(worker_ladder[i] == 0
                          ? std::string("0 (serial)")
                          : std::to_string(worker_ladder[i]));
        table.addCell(result.producers);
        table.addCell(result.seconds, 3);
        table.addCell(result.eventsPerSecond(), 0);
        table.addCell(serial_eps > 0.0
                          ? result.eventsPerSecond() / serial_eps
                          : 0.0,
                      2);
        table.addCell(result.predictions);
        table.addCell(result.backpressureWaits);
    }
    table.print(std::cout);

    std::cout << "\nEvery session's predictions are identical across "
                 "all rows (asserted by tests/engine_test.cc); the "
                 "rows differ only in wall clock.\n";

    // Paired self-profiling overhead measurement: the same workload,
    // best-of-3, with spans off and with 1-in-N sampling. The CI
    // perf-smoke job gates overhead_pct at 5%.
    RunResult spanOff;
    RunResult spanOn;
    bool spanEventsMatch = true;
    double spanOverheadPct = 0.0;
    if (span_every > 0) {
        spanOff = bestOfThree(sessions, span_workers, producers, 0);
        spanOn = bestOfThree(sessions, span_workers, producers,
                             span_every);
        spanEventsMatch = spanOff.events == spanOn.events &&
                          spanOff.predictions == spanOn.predictions;
        const double eps_off = spanOff.eventsPerSecond();
        spanOverheadPct =
            eps_off > 0.0
                ? 100.0 * (eps_off - spanOn.eventsPerSecond()) /
                      eps_off
                : 0.0;

        std::cout << "\nStage-span overhead (1/" << span_every
                  << " sampling, " << span_workers
                  << " workers, best of 3): "
                  << static_cast<std::uint64_t>(eps_off)
                  << " events/s off vs "
                  << static_cast<std::uint64_t>(
                         spanOn.eventsPerSecond())
                  << " events/s on = " << spanOverheadPct
                  << "% overhead; outputs "
                  << (spanEventsMatch ? "identical" : "DIVERGED")
                  << "\n\n";

        TextTable stageTable;
        stageTable.setHeader({"Stage", "Samples", "p50 (us)",
                              "p99 (us)", "Mean (us)"});
        for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
            const telemetry::StageTotals &totals =
                spanOn.stageTotals[s];
            if (totals.count == 0)
                continue; // engine-only runs never see net stages
            stageTable.beginRow();
            stageTable.addCell(telemetry::stageName(
                static_cast<telemetry::Stage>(s)));
            stageTable.addCell(totals.count);
            stageTable.addCell(
                static_cast<double>(telemetry::percentileFromHistogram(
                    spanOn.stageHists[s], 0.50)) /
                1000.0);
            stageTable.addCell(
                static_cast<double>(telemetry::percentileFromHistogram(
                    spanOn.stageHists[s], 0.99)) /
                1000.0);
            stageTable.addCell(static_cast<double>(totals.sumNs) /
                               static_cast<double>(totals.count) /
                               1000.0);
        }
        stageTable.print(std::cout);
        std::cout << "(" << spanOn.spanSampled
                  << " frames sampled; read/encode/write-flush are "
                     "server-side stages and do not occur here)\n";
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"seed\": " << seed << ",\n"
            << "  \"sessions\": " << num_sessions << ",\n"
            << "  \"events_per_frame\": " << events_per_frame << ",\n"
            << "  \"producers\": " << producers << ",\n"
            << "  \"hardware_concurrency\": " << hw << ",\n"
            << "  \"total_events\": " << total_events << ",\n"
            << "  \"rows\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunResult &result = results[i];
            out << "    {\"workers\": " << worker_ladder[i]
                << ", \"producers\": " << result.producers
                << ", \"seconds\": " << result.seconds
                << ", \"events_per_second\": "
                << result.eventsPerSecond()
                << ", \"events\": " << result.events
                << ", \"predictions\": " << result.predictions
                << ", \"backpressure_waits\": "
                << result.backpressureWaits << "}"
                << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ]";
        if (span_every > 0) {
            out << ",\n  \"span_overhead\": {"
                << "\"sample_every\": " << span_every
                << ", \"workers\": " << span_workers
                << ", \"eps_off\": " << spanOff.eventsPerSecond()
                << ", \"eps_on\": " << spanOn.eventsPerSecond()
                << ", \"overhead_pct\": " << spanOverheadPct
                << ", \"events_match\": "
                << (spanEventsMatch ? "true" : "false")
                << ", \"sampled_frames\": " << spanOn.spanSampled
                << ", \"stages\": [";
            bool first = true;
            for (std::size_t s = 0; s < telemetry::kStageCount;
                 ++s) {
                const telemetry::StageTotals &totals =
                    spanOn.stageTotals[s];
                if (totals.count == 0)
                    continue;
                out << (first ? "" : ", ") << "{\"stage\": \""
                    << telemetry::stageName(
                           static_cast<telemetry::Stage>(s))
                    << "\", \"count\": " << totals.count
                    << ", \"sum_ns\": " << totals.sumNs
                    << ", \"p50_ns\": "
                    << telemetry::percentileFromHistogram(
                           spanOn.stageHists[s], 0.50)
                    << ", \"p99_ns\": "
                    << telemetry::percentileFromHistogram(
                           spanOn.stageHists[s], 0.99)
                    << "}";
                first = false;
            }
            out << "]}";
        }
        out << "\n}\n";
    }
    return spanEventsMatch ? 0 : 1;
}
