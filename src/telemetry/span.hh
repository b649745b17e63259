/**
 * @file
 * Sampled pipeline stage spans: the serving stack profiling itself.
 *
 * A SpanRecorder applies the paper's "less is more" thesis to our own
 * pipeline: instead of timestamping every frame, it samples 1-in-N
 * frames at the ingest boundary and timestamps each pipeline stage
 * the sampled frame passes through - read, decode, queue-wait,
 * predict, encode, write-flush. Sampled durations feed internal
 * per-stage log2 bucket accumulators (always, so conservation checks
 * and /stats work without a registry), mirrored into `net.stage.*`
 * registry histograms when telemetry is attached.
 *
 * Cost model: with sampling disabled (sampleEvery == 0) the whole
 * apparatus is one branch in sampleFrame() and nothing else - no
 * clock reads, no atomics. At 1-in-N sampling each sampled stage
 * costs a handful of relaxed atomics plus the clock reads the caller
 * already made; the perf-smoke CI gate holds 1/64 sampling to <= 5%
 * engine-throughput overhead.
 *
 * Sampling is a deterministic frame counter, not a random draw: a
 * fixed frame sequence always selects the identical sampled set
 * (frames 0, N, 2N, ...), which keeps test assertions and
 * conservation checks exact.
 *
 * Thread safety: every mutation is a relaxed atomic; sampleFrame()
 * and recordStage() may be called from any thread.
 */

#ifndef HOTPATH_TELEMETRY_SPAN_HH
#define HOTPATH_TELEMETRY_SPAN_HH

#include <array>
#include <atomic>
#include <cstdint>

#include "telemetry/instruments.hh"

namespace hotpath::telemetry
{

/** Pipeline stages a sampled frame is timed through, in data-flow
 *  order. */
enum class Stage : std::uint8_t
{
    /** Socket readable to frame extracted from the reassembly
     *  buffer. */
    Read,
    /** Wire decode + CRC check on the owning worker. */
    Decode,
    /** Enqueue on the shard queue to dequeue by the worker. */
    QueueWait,
    /** Session lookup + Session::apply (the NET predictor). */
    Predict,
    /** Prediction reply encoding in the completion callback. */
    Encode,
    /** Reply appended to the connection's write buffer until the
     *  last byte hit the socket. */
    WriteFlush,
};

/** Number of Stage enumerators. */
constexpr std::size_t kStageCount = 6;

/** Stable wire name for a stage ("read", "queue_wait", ...). */
const char *stageName(Stage stage);

/** SpanRecorder parameters. */
struct SpanConfig
{
    /** Sample every Nth frame; 0 disables sampling entirely (the
     *  disabled path is a single branch). */
    std::uint64_t sampleEvery = 0;
};

/** One stage's aggregate over all sampled frames so far. */
struct StageTotals
{
    std::uint64_t count = 0;
    std::uint64_t sumNs = 0;
};

/** Deterministic 1-in-N frame sampler + per-stage accumulators; see
 *  the file comment. */
class SpanRecorder
{
  public:
    /** Build a recorder; registers the `net.stage.*` histograms
     *  eagerly when sampling is enabled and a registry is attached
     *  (attach telemetry BEFORE constructing the recorder). */
    explicit SpanRecorder(SpanConfig config);

    /** True when sampling is configured (sampleEvery != 0). */
    bool enabled() const { return cfg.sampleEvery != 0; }

    /** The configured sampling stride (0 = disabled). */
    std::uint64_t sampleEvery() const { return cfg.sampleEvery; }

    /**
     * Count one frame at the ingest boundary and decide whether it
     * is sampled. Deterministic: the k-th call returns true iff
     * k % sampleEvery == 0 (counting from 0). With sampling disabled
     * this is one branch and no atomics.
     */
    bool
    sampleFrame()
    {
        if (cfg.sampleEvery == 0)
            return false;
        const std::uint64_t n =
            frameCounter.fetch_add(1, std::memory_order_relaxed);
        if (n % cfg.sampleEvery != 0)
            return false;
        sampledFramesCount.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    /** Record one sampled stage duration in nanoseconds. */
    void recordStage(Stage stage, std::uint64_t ns);

    /** Frames counted by sampleFrame() so far. */
    std::uint64_t
    framesSeen() const
    {
        return frameCounter.load(std::memory_order_relaxed);
    }

    /** Frames selected by sampleFrame() so far. */
    std::uint64_t
    sampledFrames() const
    {
        return sampledFramesCount.load(std::memory_order_relaxed);
    }

    /** One stage's count and sum (internal accumulators; available
     *  with or without a registry). */
    StageTotals totals(Stage stage) const;

    /** One stage's full log2 distribution, as a HistogramSnapshot
     *  ready for percentileFromHistogram(). */
    HistogramSnapshot stageSnapshot(Stage stage) const;

  private:
    /** Internal per-stage accumulator (log2 buckets, like
     *  telemetry::Histogram, but registry-independent). */
    struct StageSlot
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sumNs{0};
        std::atomic<std::uint64_t> minNs{~std::uint64_t{0}};
        std::atomic<std::uint64_t> maxNs{0};
        std::array<std::atomic<std::uint64_t>, Histogram::kNumBuckets>
            buckets{};
    };

    SpanConfig cfg;
    std::atomic<std::uint64_t> frameCounter{0};
    std::atomic<std::uint64_t> sampledFramesCount{0};
    std::array<StageSlot, kStageCount> slots;
    /** Registry mirrors; nullptr when telemetry was not attached at
     *  construction (or sampling is disabled). */
    std::array<Histogram *, kStageCount> registryHists{};
};

} // namespace hotpath::telemetry

#endif // HOTPATH_TELEMETRY_SPAN_HH
