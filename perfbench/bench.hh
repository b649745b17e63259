/**
 * @file
 * Shared pieces of the serving benchmark: clocks, workload inputs,
 * the serial answer oracle, scoring, the host-interference record,
 * in-memory spans and the result line.
 *
 * The benchmark drives the library only through its public API
 * (wire::*, engine::Session, engine::Engine, net::Server/Client,
 * cluster::Router). Every timed run checks each answer against a
 * serial engine::Session fed the same frames in the same order.
 */

#ifndef HOTPATH_PERFBENCH_BENCH_HH
#define HOTPATH_PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.hh"
#include "engine/wire_format.hh"

namespace perfbench
{

using hotpath::PathEvent;
namespace wire = hotpath::wire;
namespace engine = hotpath::engine;

/** A frame answered later than this misses the latency limit. It
 *  sits below the engine's 2 ms park-timeout backstop, so a frame
 *  that waited for the backstop counts as a miss. */
constexpr std::int64_t kLimitNs = 1'000'000;

/** Monotonic wall clock in nanoseconds. */
std::int64_t nowNs();
/** CPU time of the whole process in nanoseconds. */
std::int64_t processCpuNs();
/** CPU time of the calling thread in nanoseconds. */
std::int64_t threadCpuNs();
/** Peak resident set of the process in MiB. */
double peakRssMb();
/** Threads the process is running right now. */
std::size_t liveThreads();
/** Processors the calling thread may run on. */
unsigned processors();
/** Restrict the calling thread, and every thread it starts from now
 *  on, to one of the processors it may run on. Returns that
 *  processor, or -1 when the affinity cannot be set. */
int pinToOneProcessor();

/** Command-line options shared by all workloads. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a workload reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Why `correct` is false. */
    std::vector<std::string> problems;

    void
    fail(std::string why)
    {
        correct = false;
        problems.push_back(std::move(why));
    }
};

/** One session's event stream, generated and encoded at set-up. */
struct SessionStream
{
    /** Wire session id. */
    std::uint64_t id = 0;
    /** Calibrated benchmark (index into specTargets()). */
    std::size_t benchmark = 0;
    /** Synthesis seed of the stream. */
    std::uint64_t streamSeed = 0;
    /** Events in the stream. */
    std::uint64_t events = 0;
    /** Events per frame (the last frame may hold fewer). */
    std::uint32_t frameEvents = 0;
    /** All frames back to back, as wire::encodeEventStream made
     *  them; frame i carries sequence i. */
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
    /** Frame i = bytes[offsets[i], offsets[i] + lengths[i]). */
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> lengths;

    std::size_t frames() const { return offsets.size(); }
    /** Events carried by frame `f`. */
    std::uint32_t eventsIn(std::size_t f) const;
};

/** The workload's inputs. */
struct StreamSet
{
    std::vector<SessionStream> sessions;
    /** Time spent inside wire::encodeEventStream. */
    std::int64_t encodeNs = 0;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
};

/**
 * Build `sessions` calibrated SPEC-like streams (cycling through the
 * nine Table 1 benchmarks, so sessions differ in length and path
 * count) and encode each with wire::encodeEventStream into frames of
 * `frame_events` events. Session ids are 1..sessions.
 */
StreamSet buildStreams(std::uint64_t seed, std::size_t sessions,
                       std::uint32_t frame_events);

/** Order-sensitive digest of one reply's predictions. */
std::uint64_t digest(const wire::PredictionRecord *records,
                     std::size_t count);

/** What one run saw for one attempted frame. */
struct FrameRecord
{
    /** Index into StreamSet::sessions. */
    std::uint32_t session = 0;
    /** When the frame was due: its scheduled send time (open loop)
     *  or its submit time (closed loop). */
    std::int64_t dueNs = 0;
    /** Due time to decoded answer; -1 = never answered (or refused,
     *  rejected, not applied). */
    std::int64_t latencyNs = -1;
    /** digest() of the answer's predictions. */
    std::uint64_t digest = 0;
};

/** Answer tally against the reference. */
struct Score
{
    std::uint64_t attempted = 0;
    /** Answered with the serial reference's exact predictions. */
    std::uint64_t ok = 0;
    /** Ok and answered within kLimitNs of being due. */
    std::uint64_t within = 0;
    /** Per record: 0 failed, 1 ok, 2 ok and within the limit. */
    std::vector<std::uint8_t> verdicts;
};

/** Unmeasured warm-up before the measured window: the host's
 *  processors take about a second to come up to speed. */
constexpr std::int64_t kWarmupNs = 1'000'000'000;

/** Cumulative counters read at one slice boundary. */
struct SliceReading
{
    std::int64_t wallNs = 0;
    /** Process CPU minus the generator thread's own CPU clock. */
    std::int64_t programCpuNs = 0;
    /** Events answered so far. */
    std::uint64_t events = 0;
};

/**
 * The measured window, cut into slices of about a second.
 * Throughput and CPU figures come from counter readings at the slice
 * boundaries, latency figures from the frames due in each slice. The
 * run reports the median over slices, so a host stall that spoils a
 * slice or two cannot move the result.
 */
class Slices
{
  public:
    /** A window of `seconds` starting at `first_ns`. */
    Slices(std::int64_t first_ns, double seconds);

    /** True while a boundary reading is owed at `now`. */
    bool
    due(std::int64_t now) const
    {
        return readings.size() <= count &&
               now >= first + static_cast<std::int64_t>(readings.size()) *
                                  width;
    }

    void read(const SliceReading &reading) { readings.push_back(reading); }

    /** True once every boundary has been read. */
    bool complete() const { return readings.size() > count; }

    /** End of the measured window. */
    std::int64_t
    endNs() const
    {
        return first + static_cast<std::int64_t>(count) * width;
    }

    double eventsPerSecond() const;
    double cpuNsPerEvent() const;
    /** Median over slices of the p50 latency of frames due in them. */
    double latencyP50Us(const std::vector<FrameRecord> &records) const;
    /** Median over slices of the share of frames due in them that
     *  were answered correctly within the limit. */
    double withinShare(const std::vector<FrameRecord> &records,
                       const Score &tally) const;

    /** One line per figure with every slice's value, for a triager
     *  telling a host stall from a program regression. */
    void print(const std::vector<FrameRecord> &records) const;

  private:
    /** Slice holding `due_ns`, or count when outside the window. */
    std::size_t sliceOf(std::int64_t due_ns) const;
    /** Latencies of the answered frames due in each slice. */
    std::vector<std::vector<std::int64_t>>
    latenciesBySlice(const std::vector<FrameRecord> &records) const;

    std::int64_t first = 0;
    std::size_t count = 1;
    std::int64_t width = 1;
    std::vector<SliceReading> readings;
};

/** Run the oracle over a run's records and the scorer's self-test;
 *  every failure is added to `result`. Returns the tally. */
Score checkAnswers(const StreamSet &streams,
                   const std::vector<FrameRecord> &records,
                   const engine::SessionConfig &config, Result &result);

/** The per-layer figures of a traced run, in BENCHMARK.json order; a
 *  layer the workload does not run stays 0. */
struct LayerFigures
{
    double encodeNsPerEvent = 0;
    double decodeNsPerEvent = 0;
    double bytesPerEvent = 0;
    double applyNsPerEvent = 0;
    double predictionsPerKevent = 0;
    double submitBlockedShare = 0;
    double backpressureWaits = 0;
    double drainMs = 0;
    double workerBusyShare = 0;
    double queueWaitUs = 0;
    double predictUs = 0;
    double serverReadUs = 0;
    double serverDecodeUs = 0;
    double serverEncodeUs = 0;
    double serverWriteFlushUs = 0;
    double readPauses = 0;
    double responsesDropped = 0;
    double clientSendUs = 0;
    double clientReplyDecodeUs = 0;
    double unattributedUs = 0;
    double routerHopUs = 0;
    double framesReplayed = 0;
    double responsesSynthesized = 0;
    double backendSkew = 0;
    double lateUsP50 = 0;
    double lateUsMax = 0;
    double stallsOver1ms = 0;
    double generatorThreads = 0;
    double traceOverheadPct = 0;
};

/**
 * Fill the wire and session figures: encode cost and size from the
 * set-up, then single-thread costs over the workload's own frames -
 * every frame decoded once, then every session's frames applied
 * twice (a cold and a warm pass) to a fresh Session.
 */
void measureWireAndSession(const StreamSet &streams,
                           const engine::SessionConfig &config,
                           LayerFigures &figures);

std::vector<Metric> layerMetrics(const LayerFigures &figures);

/** What the load generator saw of the host while it ran. */
struct HostRecord
{
    /** Generator lateness per frame (actual - scheduled send). */
    std::vector<std::int64_t> lateNs;
    /** Gaps over 1 ms between consecutive generator loop turns. */
    std::uint64_t stallsOver1ms = 0;
    std::int64_t maxGapNs = 0;
    std::int64_t lastTurnNs = 0;
    std::size_t generatorThreads = 1;
    std::size_t threads = 0;

    /** Account one generator loop turn at `now`. */
    void
    turn(std::int64_t now)
    {
        if (lastTurnNs != 0) {
            const std::int64_t gap = now - lastTurnNs;
            if (gap > 1'000'000)
                ++stallsOver1ms;
            if (gap > maxGapNs)
                maxGapNs = gap;
        }
        lastTurnNs = now;
    }

    /** One line for a triager: host stall or program regression. */
    void print(const char *label) const;
};

/** Quantile of `samples` (sorted in place), nearest rank. */
std::int64_t quantile(std::vector<std::int64_t> &samples, double q);

/** One span the benchmark recorded around a call into a layer. */
struct Span
{
    const char *name = "";
    /** Spans of one frame share this id. */
    std::uint64_t trace = 0;
    /** The span that caused this one ("" = root). */
    const char *parent = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Spans kept in memory during the traced run, written at the end. */
class SpanLog
{
  public:
    void
    add(const char *name, std::uint64_t trace, const char *parent,
        std::int64_t start, std::int64_t end)
    {
        spans.push_back({name, trace, parent, start, end});
    }

    /** Mean duration in microseconds of spans named `name`. */
    double meanUs(const char *name) const;

    /** Write one JSON object per span; false when the file cannot
     *  be written. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
};

/** Print the problems and the one-line JSON result (last line of
 *  standard output). */
void printResult(const Result &result);

/** The end-to-end metrics of a measured run, in BENCHMARK.json
 *  order. */
std::vector<Metric> endToEndMetrics(const std::vector<double> &setups,
                                    double peak_rss_mb, const Score &tally,
                                    const Slices &slices,
                                    const std::vector<FrameRecord> &records);

/** Print the latency percentiles, the slices and the host record. */
void printRun(const char *label, const std::vector<FrameRecord> &records,
              const Slices &slices, const HostRecord &host);

/** Run the named workloads; defined in ingest.cpp / serving.cpp. */
Result runIngest(const Options &options);
Result runServing(const Options &options, bool routed);

} // namespace perfbench

#endif // HOTPATH_PERFBENCH_BENCH_HH
