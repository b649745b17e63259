/**
 * @file
 * The binary wire format for branch-event batches (the engine's
 * ingestion currency).
 *
 * A *frame* carries one batch of events for one session:
 *
 *   magic      2 bytes   'H' 'F'
 *   kind       1 byte    1 = path events, 2 = block trace,
 *                        3 = prediction replies, 4 = session state
 *   session    varint    client/session identifier
 *   sequence   varint    per-session frame sequence number
 *   count      varint    events in the payload
 *   payloadLen varint    payload size in bytes
 *   payload    bytes     delta-encoded events (see below)
 *   crc        4 bytes   CRC-32 (little endian) over kind..payload
 *
 * Integers are LEB128 varints; deltas are zigzag-mapped so small
 * negative jumps stay small on the wire. Path-event payloads encode
 * each field as a delta against the previous event in the frame
 * (loop bursts repeat the same path, so a burst costs 5 bytes per
 * event); block-trace payloads encode consecutive block ids as
 * deltas - the software analogue of PC-delta branch-trace formats.
 *
 * Decoding is defensive, not trusting: every malformed input maps to
 * a DecodeStatus instead of a panic, because frames arrive from
 * outside the process. The CRC covers the header fields after the
 * magic as well as the payload, so any single corrupted byte in a
 * frame is detected.
 */

#ifndef HOTPATH_ENGINE_WIRE_FORMAT_HH
#define HOTPATH_ENGINE_WIRE_FORMAT_HH

#include <cstdint>
#include <vector>

#include "cfg/types.hh"
#include "paths/path_event.hh"

namespace hotpath
{

class TraceLog;

/** The CRC-framed varint wire format; see the file comment. */
namespace wire
{

/** What a frame's payload contains. */
enum class FrameKind : std::uint8_t
{
    /** Delta-encoded PathEvent batch. */
    PathEvents = 1,
    /** Delta-encoded basic-block id trace. */
    BlockTrace = 2,
    /** Delta-encoded prediction records (server -> client replies). */
    Predictions = 3,
    /** Serialized per-session predictor state (migration traffic). */
    SessionState = 4,
};

/**
 * One hot-path prediction as it travels back to the client: the path
 * head whose counter crossed the delay threshold and the predicted
 * tail fragment (dense path id) promoted into the fragment cache.
 */
struct PredictionRecord
{
    /** Head block whose execution triggered the prediction. */
    HeadIndex head = 0;
    /** Predicted hot path (tail fragment) id. */
    PathIndex path = 0;
};

/** One NET-predictor counter as it travels in a SessionState frame. */
struct SessionCounterEntry
{
    /** Counter-table key (head index biased by one; see NetPredictor). */
    std::uint64_t key = 0;
    /** Observed execution count for that key. */
    std::uint64_t count = 0;
};

/** One cached fragment as it travels in a SessionState frame. */
struct SessionFragmentEntry
{
    /** Promoted hot-path (fragment) id. */
    PathIndex path = 0;
    /** Fragment size in instructions (occupancy accounting). */
    std::uint32_t instructions = 0;
    /** Times the cached fragment has been executed. */
    std::uint64_t executions = 0;
    /** LRU clock stamp of the fragment's last touch. */
    std::uint64_t lastUse = 0;
};

/**
 * The wire-serializable snapshot of one Session: every byte of state
 * that influences future predictions (NET counter table, retired
 * heads, fragment cache with exact LRU stamps, sequence tracking)
 * plus the session's lifetime statistics. Importing a snapshot into a
 * fresh Session continues the event stream bit-identically - same
 * predictions, same cache hits, same eviction order - which is what
 * makes live migration between backends lossless.
 *
 * A frame whose `request` flag is set carries no state: it asks the
 * receiving engine to export the named session and reply with a
 * populated SessionState frame (the router's migration handshake).
 */
struct SessionState
{
    /** True for an export request, false for a state snapshot. */
    bool request = false;
    /** NET prediction delay the exporter ran with (sanity echo). */
    std::uint64_t predictionDelay = 0;
    /** Last applied frame sequence number. */
    std::uint64_t lastSequence = 0;
    /** Whether any frame was ever applied (lastSequence is valid). */
    bool sawFrame = false;
    /** Fragment-cache LRU clock at export time. */
    std::uint64_t cacheClock = 0;
    /** Live NET counters, strictly ascending by key. */
    std::vector<SessionCounterEntry> counters;
    /** Retired (given-up) head indices, strictly ascending. */
    std::vector<std::uint32_t> retired;
    /** Cached fragments, strictly ascending by path id. */
    std::vector<SessionFragmentEntry> fragments;
    /** Lifetime frames applied. */
    std::uint64_t framesApplied = 0;
    /** Lifetime events consumed. */
    std::uint64_t eventsProcessed = 0;
    /** Lifetime events served from the fragment cache. */
    std::uint64_t cachedEvents = 0;
    /** Lifetime events interpreted (profiled). */
    std::uint64_t interpretedEvents = 0;
    /** Lifetime predictions made. */
    std::uint64_t predictions = 0;
    /** Lifetime sequence gaps observed. */
    std::uint64_t sequenceGaps = 0;
    /** Lifetime decode errors attributed to this session. */
    std::uint64_t decodeErrors = 0;
};

/** Frame metadata (everything before the payload). */
struct FrameHeader
{
    /** Client/session identifier. */
    std::uint64_t session = 0;
    /** Per-session frame sequence number. */
    std::uint64_t sequence = 0;
    /** Payload encoding. */
    FrameKind kind = FrameKind::PathEvents;
};

/** Outcome of decoding one frame. */
enum class DecodeStatus
{
    /** Frame decoded and CRC-verified. */
    Ok,
    /** Buffer ends before the frame does (stream cut short). */
    Truncated,
    /** Missing the 'H''F' frame magic. */
    BadMagic,
    /** Unknown FrameKind byte. */
    BadKind,
    /** count/payloadLen exceed the sanity caps. */
    BadLength,
    /** CRC-32 mismatch (corruption in flight). */
    BadCrc,
    /** Payload does not decode to exactly `count` in-range events. */
    BadPayload,
};

/** Stable name for reports and tests. */
const char *decodeStatusName(DecodeStatus status);

/** One decoded frame; exactly one payload vector is populated. */
struct DecodedFrame
{
    /** The frame's metadata. */
    FrameHeader header;
    /** Payload for FrameKind::PathEvents. */
    std::vector<PathEvent> events;
    /** Payload for FrameKind::BlockTrace. */
    std::vector<BlockId> blocks;
    /** Payload for FrameKind::Predictions. */
    std::vector<PredictionRecord> predictions;
    /** Payload for FrameKind::SessionState. */
    SessionState state;
};

/** Decoder sanity cap on events per frame. */
constexpr std::size_t kMaxFrameEvents = std::size_t{1} << 20;
/** Decoder sanity cap on payload bytes per frame. */
constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;

// Primitive encodings (exposed for the property tests) -------------

/** Append a LEB128 varint. */
void appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v);

/**
 * Read a LEB128 varint at `offset`, advancing it. Returns false on
 * truncation or a varint longer than 10 bytes.
 */
bool readVarint(const std::uint8_t *data, std::size_t size,
                std::size_t &offset, std::uint64_t &v);

/** Zigzag map signed -> unsigned (small magnitudes stay small). */
std::uint64_t zigzagEncode(std::int64_t v);
/** Inverse of zigzagEncode. */
std::int64_t zigzagDecode(std::uint64_t v);

/** CRC-32 (IEEE 802.3 polynomial, bit-reflected). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

// Frame encoding ---------------------------------------------------

/** Append one path-event frame for `session` to `out`. */
void appendEventFrame(std::vector<std::uint8_t> &out,
                      std::uint64_t session, std::uint64_t sequence,
                      const PathEvent *events, std::size_t count);

/** Vector convenience overload of appendEventFrame. */
void appendEventFrame(std::vector<std::uint8_t> &out,
                      std::uint64_t session, std::uint64_t sequence,
                      const std::vector<PathEvent> &events);

/** Append one block-trace frame for `session` to `out`. */
void appendBlockFrame(std::vector<std::uint8_t> &out,
                      std::uint64_t session, std::uint64_t sequence,
                      const BlockId *blocks, std::size_t count);

/**
 * Append one prediction-reply frame for `session` to `out`. The
 * sequence echoes the event frame the predictions came from, so a
 * pipelined client can match replies to its in-flight submissions.
 */
void appendPredictionFrame(std::vector<std::uint8_t> &out,
                           std::uint64_t session,
                           std::uint64_t sequence,
                           const PredictionRecord *records,
                           std::size_t count);

/**
 * Append one session-state frame for `session` to `out`. When
 * `state.request` is true the payload is the one-byte export-request
 * marker; otherwise the full snapshot is delta-encoded (counter keys,
 * retired heads, and fragment paths must be strictly ascending -
 * Session::exportState emits them sorted, which also makes the
 * encoded bytes deterministic regardless of hash-table iteration
 * order).
 */
void appendSessionStateFrame(std::vector<std::uint8_t> &out,
                             std::uint64_t session,
                             std::uint64_t sequence,
                             const SessionState &state);

/**
 * Encode a whole event stream as consecutive frames (sequence 0..n)
 * of at most `frame_events` events each. This is the one on-disk /
 * on-wire event encoding; workload/stream_io delegates to it. The
 * buffer is sized exactly once, so encoding is linear in the stream.
 */
std::vector<std::uint8_t>
encodeEventStream(const std::vector<PathEvent> &stream,
                  std::uint64_t session,
                  std::size_t frame_events = 4096);

// Frame decoding ---------------------------------------------------

/**
 * Parse only the header of the frame at `offset` (no payload walk,
 * no CRC). `frame_end` receives the offset one past the frame's CRC.
 * This is what the engine's ingest path uses to route a frame to its
 * shard without paying for a full decode.
 */
DecodeStatus peekFrameHeader(const std::uint8_t *data,
                             std::size_t size, std::size_t offset,
                             FrameHeader &header,
                             std::size_t &frame_end);

/**
 * Fully decode (and CRC-check) the frame at `offset`. On Ok,
 * `offset` advances past the frame and `out` holds the events.
 * On any error `offset` is untouched.
 */
DecodeStatus decodeFrame(const std::uint8_t *data, std::size_t size,
                         std::size_t &offset, DecodedFrame &out);

// Corruption recovery ----------------------------------------------

/**
 * Scan forward from `from` for the next offset at which a complete,
 * CRC-valid frame begins (magic, parseable header, matching CRC).
 * Returns `size` when no such frame exists. This is the resync
 * primitive: after a corrupt frame, skip to the next trustworthy
 * frame boundary instead of abandoning the rest of the buffer. A
 * candidate magic inside a corrupt region is rejected unless the
 * whole frame it claims checks out, so resync cannot fabricate
 * events from garbage.
 */
std::size_t findNextFrame(const std::uint8_t *data, std::size_t size,
                          std::size_t from);

/**
 * Streaming variant of findNextFrame for socket reassembly buffers,
 * where the last frame is usually still arriving. Scans forward from
 * `from` for the next offset holding either a complete CRC-valid
 * frame (`*complete = true`) or a plausible frame cut short by the
 * end of the buffer (`*complete = false`: keep those bytes and retry
 * after the next read). Returns `size` with `*complete = false` when
 * everything up to the end is garbage and can be discarded.
 */
std::size_t findFrameBoundary(const std::uint8_t *data,
                              std::size_t size, std::size_t from,
                              bool *complete);

/** What a resilient multi-frame decode survived. */
struct ResyncStats
{
    /** Frames decoded and delivered. */
    std::uint64_t framesDecoded = 0;
    /** Corrupt frames quarantined (skipped after a failed decode). */
    std::uint64_t framesQuarantined = 0;
    /** Bytes discarded while scanning for the next valid frame. */
    std::uint64_t bytesSkipped = 0;
};

// sim::TraceLog round trip -----------------------------------------

/**
 * Encode a recorded execution trace as block-trace frames (the
 * "export a native run, serve it later" path).
 */
std::vector<std::uint8_t> encodeTraceLog(const TraceLog &log,
                                         std::uint64_t session,
                                         std::size_t frame_events = 4096);

/**
 * Decode consecutive block-trace frames back into `out` (appending,
 * in frame order). Stops at the first malformed frame and returns
 * its status; Ok means the whole buffer decoded.
 */
DecodeStatus decodeTraceLog(const std::uint8_t *data,
                            std::size_t size, TraceLog &out);

/**
 * Like decodeTraceLog, but a malformed frame is quarantined and the
 * decode resyncs at the next CRC-valid frame boundary
 * (findNextFrame) instead of stopping. Appends every decodable
 * frame's blocks to `out` in buffer order; `stats` (optional)
 * receives the damage accounting. Returns the number of frames
 * delivered.
 */
std::uint64_t decodeTraceLogResilient(const std::uint8_t *data,
                                      std::size_t size, TraceLog &out,
                                      ResyncStats *stats = nullptr);

} // namespace wire
} // namespace hotpath

#endif // HOTPATH_ENGINE_WIRE_FORMAT_HH
