/**
 * @file
 * Structured run tracing: typed event records and the sink interface.
 *
 * Components emit TraceRecords for the events the paper's analysis
 * cares about - machine run start/stop, predictions, fragment cache
 * inserts/evictions/flushes, bail-outs, phase changes - with
 * monotonic timestamps. A sink turns the stream into something
 * durable; two implementations ship:
 *
 *  - NullTraceSink: discards everything (the default when no sink is
 *    attached the emission path is a single null check);
 *  - JsonlTraceSink: one JSON object per line, machine-readable by
 *    any log tooling, safe to write from multiple threads.
 */

#ifndef HOTPATH_TELEMETRY_TRACE_HH
#define HOTPATH_TELEMETRY_TRACE_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>

namespace hotpath::telemetry
{

/** What happened. One enumerator per traced event type. */
enum class TraceEventKind : std::uint8_t
{
    RunStart,       // a Machine::run() call began
    RunStop,        // ... and finished
    Prediction,     // a predictor selected a hot path
    FragmentInsert, // fragment entered the cache
    FragmentEvict,  // LRU eviction removed a fragment
    CacheFlush,     // wholesale cache flush (capacity or phase)
    BailOut,        // Dynamo handed control back to native code
    PhaseChange,    // the prediction-rate monitor fired
    Log,            // a warn()/inform() message (captured)
};

/** Stable wire name for a kind ("fragment_insert", ...). */
const char *traceEventName(TraceEventKind kind);

/** One named numeric payload on a record. */
struct TraceField
{
    const char *key = "";
    std::uint64_t value = 0;
};

/** One traced event. */
struct TraceRecord
{
    TraceEventKind kind = TraceEventKind::Log;
    /** Monotonic nanoseconds since the process telemetry epoch. */
    std::uint64_t timeNs = 0;
    /** Emitting component ("sim", "dynamo", "predict.net", ...). */
    const char *component = "";
    /** Kind-specific numeric payloads. */
    std::array<TraceField, 4> fields{};
    std::size_t fieldCount = 0;
    /** Free-form text (log message, scheme name); may be empty. */
    std::string detail;
};

/** Receives trace records in emission order. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void record(const TraceRecord &rec) = 0;

    /** Push buffered output to its destination. */
    virtual void flush() {}
};

/** Discards every record. */
class NullTraceSink final : public TraceSink
{
  public:
    void record(const TraceRecord &) override {}
};

/** Writes one JSON object per record, newline-delimited (JSONL). */
class JsonlTraceSink final : public TraceSink
{
  public:
    /** Write to a borrowed stream (kept open by the caller). */
    explicit JsonlTraceSink(std::ostream &os);

    /** Write to a file, truncating it. fatal() on open failure. */
    explicit JsonlTraceSink(const std::string &path);

    void record(const TraceRecord &rec) override;
    void flush() override;

    std::uint64_t recordsWritten() const { return written; }

  private:
    std::ofstream ownedFile;
    std::ostream *out;
    std::mutex mu;
    std::uint64_t written = 0;
};

} // namespace hotpath::telemetry

#endif // HOTPATH_TELEMETRY_TRACE_HH
