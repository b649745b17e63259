/**
 * @file
 * The binary wire format for branch-event batches (the engine's
 * ingestion currency).
 *
 * A *frame* carries one batch of events for one session:
 *
 *   magic      2 bytes   'H' 'F'
 *   kind       1 byte    1 = path events, 3 = prediction replies,
 *                        4 = session state (every other value is
 *                        rejected as BadKind)
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
 * event).
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

#include "paths/path_event.hh"

namespace hotpath
{

/** The CRC-framed varint wire format; see the file comment. */
namespace wire
{

/** What a frame's payload contains. */
enum class FrameKind : std::uint8_t
{
    /** Delta-encoded PathEvent batch. */
    PathEvents = 1,
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
 * of at most `frame_events` events each, with the same bytes
 * appendEventFrame() writes frame by frame. The buffer is sized
 * exactly once, so encoding is linear in the stream.
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
 * The resync primitive, for buffers whose last frame may still be
 * arriving (socket reassembly). Scans forward from `from` for the
 * next offset holding either a complete CRC-valid frame (magic,
 * parseable header, matching CRC; `*complete = true`) or a plausible
 * frame cut short by the end of the buffer (`*complete = false`:
 * keep those bytes and retry after the next read). Returns `size`
 * with `*complete = false` when everything up to the end is garbage
 * and can be discarded. A candidate magic inside a corrupt region is
 * rejected unless the whole frame it claims checks out, so resync
 * cannot fabricate events from garbage.
 */
std::size_t findFrameBoundary(const std::uint8_t *data,
                              std::size_t size, std::size_t from,
                              bool *complete);

} // namespace wire
} // namespace hotpath

#endif // HOTPATH_ENGINE_WIRE_FORMAT_HH
