/**
 * @file
 * Clocks, inputs, the serial oracle, scoring and reporting shared by
 * the workloads (see bench.hh).
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "workload/spec_profile.hh"
#include "workload/synthesis.hh"

namespace perfbench
{

namespace
{

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

hotpath::WorkloadConfig
streamConfig(std::uint64_t stream_seed)
{
    // 1e-4 of the paper's flow: 60k-400k events per session.
    hotpath::WorkloadConfig config;
    config.flowScale = 1e-4;
    config.seed = stream_seed;
    return config;
}

/** The same events again: the oracle must not trust the wire
 *  decoder. */
std::vector<PathEvent>
regenerate(const SessionStream &stream)
{
    const hotpath::CalibratedWorkload workload(
        hotpath::specTargets()[stream.benchmark],
        streamConfig(stream.streamSeed));
    return workload.materializeStream();
}

/** Frame `f` of `stream`, built from the original events (not from
 *  the wire bytes). */
void
fillFrame(const SessionStream &stream,
          const std::vector<PathEvent> &events, std::size_t f,
          wire::DecodedFrame &frame)
{
    const std::size_t first = f * stream.frameEvents;
    frame.header.session = stream.id;
    frame.header.sequence = f;
    frame.header.kind = wire::FrameKind::PathEvents;
    frame.events.assign(events.begin() + first,
                        events.begin() + first + stream.eventsIn(f));
}

} // namespace

std::int64_t nowNs() { return clockNs(CLOCK_MONOTONIC); }
std::int64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::size_t
liveThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoul(line.substr(8));
    return 0;
}

unsigned
processors()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

int
pinToOneProcessor()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return -1;
    int cpu = CPU_SETSIZE - 1;
    while (cpu >= 0 && !CPU_ISSET(cpu, &set))
        --cpu;
    if (cpu < 0)
        return -1;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::uint32_t
SessionStream::eventsIn(std::size_t f) const
{
    const std::uint64_t first = f * std::uint64_t{frameEvents};
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(frameEvents, events - first));
}

StreamSet
buildStreams(std::uint64_t seed, std::size_t sessions,
             std::uint32_t frame_events)
{
    const std::vector<hotpath::SpecTarget> &targets =
        hotpath::specTargets();
    StreamSet set;
    set.sessions.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
        SessionStream stream;
        stream.id = s + 1;
        stream.benchmark = s % targets.size();
        stream.streamSeed = seed * 1'000'003 + s;
        stream.frameEvents = frame_events;
        const std::vector<PathEvent> events = regenerate(stream);
        stream.events = events.size();

        const std::int64_t start = nowNs();
        std::vector<std::uint8_t> bytes =
            wire::encodeEventStream(events, stream.id, frame_events);
        set.encodeNs += nowNs() - start;

        std::size_t off = 0;
        while (off < bytes.size()) {
            wire::FrameHeader header;
            std::size_t end = 0;
            if (wire::peekFrameHeader(bytes.data(), bytes.size(), off,
                                      header, end) !=
                wire::DecodeStatus::Ok)
                break;
            stream.offsets.push_back(static_cast<std::uint32_t>(off));
            stream.lengths.push_back(
                static_cast<std::uint32_t>(end - off));
            off = end;
        }
        set.events += stream.events;
        set.bytes += bytes.size();
        stream.bytes =
            std::make_shared<const std::vector<std::uint8_t>>(
                std::move(bytes));
        set.sessions.push_back(std::move(stream));
    }
    return set;
}

std::uint64_t
digest(const wire::PredictionRecord *records, std::size_t count)
{
    // FNV-1a over (count, head, path...).
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(count);
    for (std::size_t i = 0; i < count; ++i) {
        mix(records[i].head);
        mix(records[i].path);
    }
    return h;
}

std::int64_t
quantile(std::vector<std::int64_t> &samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    return samples[rank];
}

namespace
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

void
printTail(const char *label, std::vector<std::int64_t> samples)
{
    const std::size_t n = samples.size();
    if (n < 11) {
        std::cout << label << ": " << n
                  << " samples, too few for a tail percentile\n";
        return;
    }
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
        return static_cast<double>(
                   samples[static_cast<std::size_t>(q * (n - 1))]) /
               1000.0;
    };
    std::printf("%s: p10 %.1f, p50 %.1f, p90 %.1f, p99 %.1f us\n", label,
                at(0.1), at(0.5), at(0.9), at(0.99));
    // The sample at index n - 11 has exactly ten samples beyond it.
    const double pct = 100.0 * static_cast<double>(n - 10) / n;
    std::printf("%s: p%.3f = %.1f us (%zu samples, 10 beyond)\n", label,
                pct, static_cast<double>(samples[n - 11]) / 1000.0, n);
}

/** Serial answers: digests[s][j] is what a serial Session predicts
 *  for the j-th frame session s was sent (frames cycle through the
 *  stream, so frame j carries stream frame j % frames()). */
struct Reference
{
    std::vector<std::vector<std::uint64_t>> digests;
    /** One frame with predictions, kept so the self-test can alter
     *  a real answer. */
    std::uint32_t sampleSession = 0;
    std::uint64_t sampleFrame = 0;
    std::vector<wire::PredictionRecord> samplePredictions;
};

/** Replay `sent[s]` frames of every session through a fresh serial
 *  engine::Session per session. */
Reference
buildReference(const StreamSet &streams,
               const std::vector<std::uint64_t> &sent,
               const engine::SessionConfig &config)
{
    const std::size_t n = streams.sessions.size();
    Reference ref;
    ref.digests.resize(n);
    std::vector<std::vector<wire::PredictionRecord>> samples(n);
    std::vector<std::uint64_t> sampleFrames(n, ~std::uint64_t{0});

    const auto replay = [&](std::size_t s) {
        const SessionStream &stream = streams.sessions[s];
        const std::vector<PathEvent> events = regenerate(stream);
        engine::Session session(stream.id, config);
        wire::DecodedFrame frame;
        std::vector<wire::PredictionRecord> preds;
        std::vector<std::uint64_t> &out = ref.digests[s];
        out.reserve(sent[s]);
        for (std::uint64_t j = 0; j < sent[s]; ++j) {
            fillFrame(stream, events, j % stream.frames(), frame);
            preds.clear();
            session.apply(frame, &preds);
            out.push_back(digest(preds.data(), preds.size()));
            if (!preds.empty() && samples[s].empty()) {
                samples[s] = preds;
                sampleFrames[s] = j;
            }
        }
    };

    // Sessions are independent: replay them on a few threads.
    const std::size_t threads =
        std::min<std::size_t>(n, std::max(1u, processors()));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t s = t; s < n; s += threads)
                replay(s);
        });
    for (std::thread &thread : pool)
        thread.join();

    for (std::size_t s = 0; s < n; ++s)
        if (!samples[s].empty()) {
            ref.sampleSession = static_cast<std::uint32_t>(s);
            ref.sampleFrame = sampleFrames[s];
            ref.samplePredictions = samples[s];
            break;
        }
    return ref;
}

std::vector<std::uint64_t>
framesPerSession(const std::vector<FrameRecord> &records,
                 std::size_t sessions)
{
    std::vector<std::uint64_t> sent(sessions, 0);
    for (const FrameRecord &r : records)
        ++sent[r.session];
    return sent;
}

Score
score(const std::vector<FrameRecord> &records,
      const Reference &reference)
{
    Score tally;
    std::vector<std::uint64_t> seen(reference.digests.size(), 0);
    for (const FrameRecord &r : records) {
        ++tally.attempted;
        const std::uint64_t j = seen[r.session]++;
        const std::vector<std::uint64_t> &want =
            reference.digests[r.session];
        const bool ok = r.latencyNs >= 0 && j < want.size() &&
                        r.digest == want[j];
        std::uint8_t verdict = 0;
        if (ok) {
            ++tally.ok;
            verdict = 1;
            if (r.latencyNs <= kLimitNs) {
                ++tally.within;
                verdict = 2;
            }
        }
        tally.verdicts.push_back(verdict);
    }
    return tally;
}

/**
 * Prove the scorer can fail: a reply with one prediction changed
 * and an unanswered frame must each cost exactly one ok frame, and a
 * reply later than the limit exactly one within-limit frame.
 * Returns "" on success, else what went wrong.
 */
std::string
selfTest(const std::vector<FrameRecord> &records,
         const Reference &reference)
{
    if (reference.samplePredictions.empty())
        return "no reference frame carries a prediction";

    // The sample frame is the sampleFrame-th frame of its session;
    // every tampering below is applied to it.
    std::size_t sample = records.size();
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < records.size() && sample == records.size();
         ++i)
        if (records[i].session == reference.sampleSession &&
            seen++ == reference.sampleFrame)
            sample = i;
    if (sample == records.size() || records[sample].latencyNs < 0 ||
        records[sample].digest !=
            digest(reference.samplePredictions.data(),
                   reference.samplePredictions.size()))
        return "the sample frame was not answered correctly";

    // Answered just inside the limit, the sample is an in-limit ok
    // frame; each tampering must cost exactly that one frame.
    std::vector<FrameRecord> base = records;
    base[sample].latencyNs = kLimitNs;
    const Score before = score(base, reference);

    std::vector<FrameRecord> changed = base;
    std::vector<wire::PredictionRecord> altered =
        reference.samplePredictions;
    altered.front().path ^= 1;
    changed[sample].digest = digest(altered.data(), altered.size());
    if (score(changed, reference).ok != before.ok - 1)
        return "a changed prediction did not cost exactly one frame";

    std::vector<FrameRecord> unanswered = base;
    unanswered[sample].latencyNs = -1;
    if (score(unanswered, reference).ok != before.ok - 1)
        return "an unanswered frame did not cost exactly one frame";

    std::vector<FrameRecord> late = base;
    late[sample].latencyNs = kLimitNs + 1;
    const Score after = score(late, reference);
    if (after.within != before.within - 1 || after.ok != before.ok)
        return "a late reply did not cost exactly one in-limit frame";
    return "";
}

} // namespace

Slices::Slices(std::int64_t first_ns, double seconds)
    : first(first_ns),
      count(std::max<std::size_t>(1, static_cast<std::size_t>(
                                         std::llround(seconds)))),
      width(static_cast<std::int64_t>(seconds * 1e9) /
            static_cast<std::int64_t>(count))
{
}

std::size_t
Slices::sliceOf(std::int64_t due_ns) const
{
    if (due_ns < first || due_ns >= endNs())
        return count;
    return static_cast<std::size_t>((due_ns - first) / width);
}

double
Slices::eventsPerSecond() const
{
    std::vector<double> perSlice;
    for (std::size_t i = 1; i < readings.size(); ++i)
        perSlice.push_back(
            static_cast<double>(readings[i].events - readings[i - 1].events) *
            1e9 /
            static_cast<double>(readings[i].wallNs - readings[i - 1].wallNs));
    return median(perSlice);
}

double
Slices::cpuNsPerEvent() const
{
    std::vector<double> perSlice;
    for (std::size_t i = 1; i < readings.size(); ++i) {
        const std::uint64_t events =
            readings[i].events - readings[i - 1].events;
        if (events)
            perSlice.push_back(static_cast<double>(
                                   readings[i].programCpuNs -
                                   readings[i - 1].programCpuNs) /
                               static_cast<double>(events));
    }
    return median(perSlice);
}

std::vector<std::vector<std::int64_t>>
Slices::latenciesBySlice(const std::vector<FrameRecord> &records) const
{
    std::vector<std::vector<std::int64_t>> bySlice(count);
    for (const FrameRecord &r : records) {
        const std::size_t i = sliceOf(r.dueNs);
        if (i < count && r.latencyNs >= 0)
            bySlice[i].push_back(r.latencyNs);
    }
    return bySlice;
}

double
Slices::latencyP50Us(const std::vector<FrameRecord> &records) const
{
    std::vector<double> perSlice;
    for (std::vector<std::int64_t> &latencies : latenciesBySlice(records))
        if (!latencies.empty())
            perSlice.push_back(
                static_cast<double>(quantile(latencies, 0.5)) / 1000.0);
    return median(perSlice);
}

void
Slices::print(const std::vector<FrameRecord> &records) const
{
    std::printf("slices p50_us:");
    for (std::vector<std::int64_t> &latencies : latenciesBySlice(records))
        std::printf(" %.0f",
                    static_cast<double>(quantile(latencies, 0.5)) / 1000.0);
    std::printf("\nslices cpu_ns_per_event:");
    for (std::size_t i = 1; i < readings.size(); ++i) {
        const std::uint64_t events =
            readings[i].events - readings[i - 1].events;
        std::printf(" %.0f", events ? static_cast<double>(
                                          readings[i].programCpuNs -
                                          readings[i - 1].programCpuNs) /
                                          static_cast<double>(events)
                                    : 0.0);
    }
    std::printf("\n");
}

double
Slices::withinShare(const std::vector<FrameRecord> &records,
                    const Score &tally) const
{
    std::vector<std::uint64_t> due(count, 0);
    std::vector<std::uint64_t> within(count, 0);
    for (std::size_t k = 0; k < records.size(); ++k) {
        const std::size_t i = sliceOf(records[k].dueNs);
        if (i < count) {
            ++due[i];
            within[i] += tally.verdicts[k] == 2;
        }
    }
    std::vector<double> perSlice;
    for (std::size_t i = 0; i < count; ++i)
        if (due[i])
            perSlice.push_back(static_cast<double>(within[i]) /
                               static_cast<double>(due[i]));
    return median(perSlice);
}

Score
checkAnswers(const StreamSet &streams,
             const std::vector<FrameRecord> &records,
             const engine::SessionConfig &config, Result &result)
{
    const Reference reference = buildReference(
        streams, framesPerSession(records, streams.sessions.size()),
        config);
    Score tally = score(records, reference);
    if (tally.ok != tally.attempted)
        result.fail(std::to_string(tally.attempted - tally.ok) +
                    " frames unanswered or answered differently from "
                    "the serial reference");
    const std::string why = selfTest(records, reference);
    if (!why.empty())
        result.fail("self-test: " + why);
    return tally;
}

void
measureWireAndSession(const StreamSet &streams,
                      const engine::SessionConfig &config,
                      LayerFigures &figures)
{
    const double events = static_cast<double>(streams.events);
    figures.encodeNsPerEvent = static_cast<double>(streams.encodeNs) / events;
    figures.bytesPerEvent = static_cast<double>(streams.bytes) / events;

    wire::DecodedFrame frame;
    std::int64_t decodeNs = 0;
    std::uint64_t decoded = 0;
    for (const SessionStream &stream : streams.sessions) {
        const std::uint8_t *data = stream.bytes->data();
        const std::size_t size = stream.bytes->size();
        const std::int64_t start = nowNs();
        for (std::size_t off = 0; off < size;) {
            if (wire::decodeFrame(data, size, off, frame) !=
                wire::DecodeStatus::Ok)
                break;
            decoded += frame.events.size();
        }
        decodeNs += nowNs() - start;
    }
    figures.decodeNsPerEvent =
        decoded ? static_cast<double>(decodeNs) / decoded : 0.0;

    std::int64_t applyNs = 0;
    std::uint64_t applied = 0;
    std::uint64_t predictions = 0;
    for (const SessionStream &stream : streams.sessions) {
        engine::Session session(stream.id, config);
        for (int pass = 0; pass < 2; ++pass) {
            std::size_t off = 0;
            for (std::size_t f = 0; f < stream.frames(); ++f) {
                if (wire::decodeFrame(stream.bytes->data(),
                                      stream.bytes->size(), off,
                                      frame) != wire::DecodeStatus::Ok)
                    break;
                const std::int64_t start = nowNs();
                predictions += session.apply(frame);
                applyNs += nowNs() - start;
                applied += frame.events.size();
            }
        }
    }
    figures.applyNsPerEvent =
        applied ? static_cast<double>(applyNs) / applied : 0.0;
    figures.predictionsPerKevent =
        applied ? 1000.0 * static_cast<double>(predictions) / applied
                : 0.0;
}

std::vector<Metric>
layerMetrics(const LayerFigures &f)
{
    return {
        {"wire.encode_ns_per_event", f.encodeNsPerEvent, "ns"},
        {"wire.decode_ns_per_event", f.decodeNsPerEvent, "ns"},
        {"wire.bytes_per_event", f.bytesPerEvent, "B"},
        {"session.apply_ns_per_event", f.applyNsPerEvent, "ns"},
        {"session.predictions_per_kevent", f.predictionsPerKevent, "count"},
        {"engine.submit_blocked_share", f.submitBlockedShare, "share"},
        {"engine.backpressure_waits", f.backpressureWaits, "count"},
        {"engine.drain_ms", f.drainMs, "ms"},
        {"engine.worker_busy_share", f.workerBusyShare, "share"},
        {"engine.queue_wait_us", f.queueWaitUs, "us"},
        {"engine.predict_us", f.predictUs, "us"},
        {"net.server.read_us", f.serverReadUs, "us"},
        {"net.server.decode_us", f.serverDecodeUs, "us"},
        {"net.server.encode_us", f.serverEncodeUs, "us"},
        {"net.server.write_flush_us", f.serverWriteFlushUs, "us"},
        {"net.server.read_pauses", f.readPauses, "count"},
        {"net.server.responses_dropped", f.responsesDropped, "count"},
        {"net.client.send_us", f.clientSendUs, "us"},
        {"net.client.reply_decode_us", f.clientReplyDecodeUs, "us"},
        {"net.client.unattributed_us", f.unattributedUs, "us"},
        {"cluster.router.hop_us", f.routerHopUs, "us"},
        {"cluster.router.frames_replayed", f.framesReplayed, "count"},
        {"cluster.router.responses_synthesized", f.responsesSynthesized,
         "count"},
        {"cluster.router.backend_skew", f.backendSkew, "share"},
        {"loadgen.late_us_p50", f.lateUsP50, "us"},
        {"loadgen.late_us_max", f.lateUsMax, "us"},
        {"loadgen.stalls_over_1ms", f.stallsOver1ms, "count"},
        {"loadgen.threads", f.generatorThreads, "count"},
        {"trace.overhead_pct", f.traceOverheadPct, "%"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<double> &setups, double peak_rss_mb,
                const Score &tally, const Slices &slices,
                const std::vector<FrameRecord> &records)
{
    return {
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_share",
         static_cast<double>(tally.ok) / static_cast<double>(tally.attempted),
         "share"},
        {"cpu_ns_per_event", slices.cpuNsPerEvent(), "ns"},
        {"events_per_s", slices.eventsPerSecond(), "1/s"},
        {"latency_p50_us", slices.latencyP50Us(records), "us"},
        {"within_limit_share", slices.withinShare(records, tally), "share"},
    };
}

void
printRun(const char *label, const std::vector<FrameRecord> &records,
         const Slices &slices, const HostRecord &host)
{
    std::vector<std::int64_t> latencies;
    latencies.reserve(records.size());
    for (const FrameRecord &r : records)
        if (r.latencyNs >= 0)
            latencies.push_back(r.latencyNs);
    printTail("latency", latencies);
    slices.print(records);
    host.print(label);
}

void
HostRecord::print(const char *label) const
{
    std::vector<std::int64_t> late = lateNs;
    const double p50 = static_cast<double>(quantile(late, 0.5)) / 1000.0;
    const double max =
        late.empty() ? 0.0 : static_cast<double>(late.back()) / 1000.0;
    std::printf("host[%s]: nproc=%ld cpus=%u threads=%zu "
                "generator_threads=%zu late_us_p50=%.1f late_us_max=%.1f "
                "stalls_over_1ms=%llu max_gap_us=%.1f\n",
                label, sysconf(_SC_NPROCESSORS_ONLN), processors(), threads,
                generatorThreads, p50, max,
                static_cast<unsigned long long>(stallsOver1ms),
                static_cast<double>(maxGapNs) / 1000.0);
}

double
SpanLog::meanUs(const char *name) const
{
    double sum = 0;
    std::uint64_t n = 0;
    for (const Span &span : spans)
        if (std::string_view(span.name) == name) {
            sum += static_cast<double>(span.endNs - span.startNs);
            ++n;
        }
    return n ? sum / n / 1000.0 : 0.0;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &span : spans)
        out << "{\"name\":\"" << span.name << "\",\"trace\":"
            << span.trace << ",\"parent\":\"" << span.parent
            << "\",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    return static_cast<bool>(out);
}

void
printResult(const Result &result)
{
    for (const std::string &why : result.problems)
        std::cout << "CHECK FAILED: " << why << "\n";
    std::ostringstream line;
    line.precision(17);
    line << "{\"correct\": " << (result.correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        line << (i ? ", " : "") << "\"" << m.name
             << "\": {\"value\": " << m.value << ", \"unit\": \""
             << m.unit << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

} // namespace perfbench
