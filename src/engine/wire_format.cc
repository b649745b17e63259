#include "engine/wire_format.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "support/logging.hh"

namespace hotpath::wire
{

namespace
{

constexpr std::uint8_t kMagic0 = 'H';
constexpr std::uint8_t kMagic1 = 'F';
constexpr std::size_t kCrcBytes = 4;

/** CRC-32 lookup table (IEEE polynomial, reflected: 0xEDB88320). */
std::array<std::uint32_t, 256>
buildCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

const std::array<std::uint32_t, 256> kCrcTable = buildCrcTable();

/** One byte of the table-driven CRC-32 (the caller inverts the
 *  register before the first byte and after the last). */
inline std::uint32_t
crcStep(std::uint32_t crc, std::uint8_t byte)
{
    return kCrcTable[(crc ^ byte) & 0xFF] ^ (crc >> 8);
}

std::uint32_t
readU32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** The zigzagged step from `prev` to `cur`: what a delta field
 *  carries on the wire. */
std::uint64_t
zigzagDelta(std::uint64_t prev, std::uint64_t cur)
{
    return zigzagEncode(static_cast<std::int64_t>(cur) -
                        static_cast<std::int64_t>(prev));
}

/**
 * Read one zigzag delta from the cursor `p` and apply it to `prev`;
 * returns false when the varint is malformed or the result leaves
 * [0, 2^32). This is the payload hot loop (five calls per event for
 * a PathEvents frame), so the overwhelmingly common case - a
 * single-byte varint, i.e. a delta in [-64, 63] - is decoded with a
 * fused zigzag+add before falling back to the general loop.
 */
inline bool
readDelta32(const std::uint8_t *&p, const std::uint8_t *end,
            std::uint32_t &prev)
{
    std::int64_t delta;
    if (p < end && *p < 0x80) {
        const std::uint8_t byte = *p++;
        delta = static_cast<std::int64_t>(byte >> 1) ^
                -static_cast<std::int64_t>(byte & 1);
    } else {
        std::uint64_t raw = 0;
        unsigned shift = 0;
        for (;;) {
            if (p >= end || shift >= 70)
                return false;
            const std::uint8_t byte = *p++;
            raw |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                break;
            shift += 7;
        }
        delta = zigzagDecode(raw);
    }
    const std::int64_t next = static_cast<std::int64_t>(prev) + delta;
    if (next < 0 || next > static_cast<std::int64_t>(~std::uint32_t{0}))
        return false;
    prev = static_cast<std::uint32_t>(next);
    return true;
}

/** Bytes appendVarint() writes for `v`. */
std::size_t
varintBytes(std::uint64_t v)
{
    return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/** Encoded size of a whole frame around a `payload_len`-byte
 *  payload: magic, kind, four header varints, payload, CRC. */
std::size_t
frameBytes(std::uint64_t session, std::uint64_t sequence,
           std::uint64_t count, std::size_t payload_len)
{
    return 3 + varintBytes(session) + varintBytes(sequence) +
           varintBytes(count) + varintBytes(payload_len) +
           payload_len + kCrcBytes;
}

/**
 * Writes frame bytes through a cursor into space the caller already
 * sized, folding each byte from `kind` on into the CRC as it stores
 * it, so a frame is written in one pass with no staging copy.
 */
class FrameWriter
{
  public:
    explicit FrameWriter(std::uint8_t *at) : cur(at) {}

    /** One byte covered by the CRC. */
    void
    byte(std::uint8_t b)
    {
        *cur++ = b;
        crc = crcStep(crc, b);
    }

    /** A LEB128 varint covered by the CRC (appendVarint's bytes). */
    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            byte(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        byte(static_cast<std::uint8_t>(v));
    }

    /** Store the CRC so far, little endian, outside the CRC. */
    void
    finish()
    {
        const std::uint32_t v = ~crc;
        for (int i = 0; i < 4; ++i)
            *cur++ = static_cast<std::uint8_t>(v >> (8 * i));
    }

    const std::uint8_t *at() const { return cur; }

  private:
    std::uint8_t *cur;
    std::uint32_t crc = ~std::uint32_t{0};
};

/** Payload bytes of the varints `values(sink)` hands to its sink. */
template <typename Values>
std::size_t
payloadBytes(Values &&values)
{
    std::size_t bytes = 0;
    values([&bytes](std::uint64_t v) { bytes += varintBytes(v); });
    return bytes;
}

/**
 * The one frame writer: appends a frame whose payload is the varints
 * `values(sink)` hands to its sink, in order, writing each byte in
 * place. The header states the payload size before the payload, so
 * the caller passes it (`payload_len`, from payloadBytes() over the
 * same values). `out` grows at most once per frame, and then to at
 * least twice its capacity, so appending frame after frame stays
 * linear; a caller that sized `out` for all its frames never regrows.
 */
template <typename Values>
void
appendFrame(std::vector<std::uint8_t> &out, FrameKind kind,
            std::uint64_t session, std::uint64_t sequence,
            std::uint64_t count, std::size_t payload_len,
            Values &&values)
{
    const std::size_t begin = out.size();
    const std::size_t end =
        begin + frameBytes(session, sequence, count, payload_len);
    if (end > out.capacity())
        out.reserve(std::max(end, 2 * out.capacity()));
    out.resize(end);
    std::uint8_t *const frame = out.data() + begin;
    frame[0] = kMagic0;
    frame[1] = kMagic1;
    FrameWriter w(frame + 2);
    w.byte(static_cast<std::uint8_t>(kind));
    w.varint(session);
    w.varint(sequence);
    w.varint(count);
    w.varint(payload_len);
    const std::uint8_t *const payload_end = w.at() + payload_len;
    values([&w](std::uint64_t v) { w.varint(v); });
    HOTPATH_ASSERT(w.at() == payload_end,
                   "frame payload does not match its size");
    w.finish();
}

/**
 * The payload varints of a PathEvents frame, in wire order: the
 * zigzag deltas of path, head, blocks, branches and instructions,
 * each against the previous event (the first against zeros).
 */
auto
eventDeltas(const PathEvent *events, std::size_t count)
{
    return [events, count](auto &&sink) {
        PathEvent prev;
        prev.path = 0;
        prev.head = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const PathEvent &e = events[i];
            sink(zigzagDelta(prev.path, e.path));
            sink(zigzagDelta(prev.head, e.head));
            sink(zigzagDelta(prev.blocks, e.blocks));
            sink(zigzagDelta(prev.branches, e.branches));
            sink(zigzagDelta(prev.instructions, e.instructions));
            prev = e;
        }
    };
}

/**
 * Parse the header fields at `offset` (which must point at the
 * magic). Fills the header plus the payload/CRC geometry.
 */
DecodeStatus
parseHeader(const std::uint8_t *data, std::size_t size,
            std::size_t offset, FrameHeader &header,
            std::size_t &crc_begin, std::size_t &payload_begin,
            std::size_t &payload_len, std::uint64_t &count,
            std::size_t &frame_end)
{
    if (size - offset < 2)
        return DecodeStatus::Truncated;
    if (data[offset] != kMagic0 || data[offset + 1] != kMagic1)
        return DecodeStatus::BadMagic;
    std::size_t cur = offset + 2;
    crc_begin = cur;

    if (cur >= size)
        return DecodeStatus::Truncated;
    const std::uint8_t kind = data[cur++];
    if (kind != static_cast<std::uint8_t>(FrameKind::PathEvents) &&
        kind != static_cast<std::uint8_t>(FrameKind::Predictions) &&
        kind != static_cast<std::uint8_t>(FrameKind::SessionState))
        return DecodeStatus::BadKind;
    header.kind = static_cast<FrameKind>(kind);

    std::uint64_t payload_bytes = 0;
    if (!readVarint(data, size, cur, header.session) ||
        !readVarint(data, size, cur, header.sequence) ||
        !readVarint(data, size, cur, count) ||
        !readVarint(data, size, cur, payload_bytes))
        return DecodeStatus::Truncated;
    if (count > kMaxFrameEvents || payload_bytes > kMaxPayloadBytes)
        return DecodeStatus::BadLength;

    payload_begin = cur;
    payload_len = static_cast<std::size_t>(payload_bytes);
    if (size - cur < payload_len ||
        size - cur - payload_len < kCrcBytes)
        return DecodeStatus::Truncated;
    frame_end = payload_begin + payload_len + kCrcBytes;
    return DecodeStatus::Ok;
}

/**
 * Decode a SessionState payload in [cur, payload_end). `count` is
 * the frame-header entry count, which must equal counters + retired
 * + fragments. Leaves `cur` at payload_end on success.
 */
bool
decodeSessionState(const std::uint8_t *data, std::size_t payload_end,
                   std::size_t &cur, std::uint64_t count,
                   SessionState &state)
{
    std::uint64_t flags = 0;
    if (!readVarint(data, payload_end, cur, flags) || flags > 1)
        return false;
    state.request = flags == 1;
    if (state.request)
        return count == 0;

    std::uint64_t saw = 0;
    if (!readVarint(data, payload_end, cur, state.predictionDelay) ||
        !readVarint(data, payload_end, cur, state.lastSequence) ||
        !readVarint(data, payload_end, cur, saw) || saw > 1 ||
        !readVarint(data, payload_end, cur, state.cacheClock))
        return false;
    state.sawFrame = saw == 1;

    std::uint64_t n = 0;
    if (!readVarint(data, payload_end, cur, n) ||
        n > kMaxFrameEvents)
        return false;
    state.counters.reserve(n);
    std::uint64_t key = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0;
        SessionCounterEntry entry;
        if (!readVarint(data, payload_end, cur, delta) ||
            !readVarint(data, payload_end, cur, entry.count) ||
            key > ~std::uint64_t{0} - delta)
            return false;
        key += delta;
        entry.key = key;
        state.counters.push_back(entry);
    }

    if (!readVarint(data, payload_end, cur, n) ||
        n > kMaxFrameEvents)
        return false;
    state.retired.reserve(n);
    std::uint64_t head = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0;
        if (!readVarint(data, payload_end, cur, delta))
            return false;
        head += delta;
        if (head > ~std::uint32_t{0})
            return false;
        state.retired.push_back(static_cast<std::uint32_t>(head));
    }

    if (!readVarint(data, payload_end, cur, n) ||
        n > kMaxFrameEvents)
        return false;
    state.fragments.reserve(n);
    std::uint64_t path = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t delta = 0;
        std::uint64_t instructions = 0;
        SessionFragmentEntry entry;
        if (!readVarint(data, payload_end, cur, delta) ||
            !readVarint(data, payload_end, cur, instructions) ||
            !readVarint(data, payload_end, cur, entry.executions) ||
            !readVarint(data, payload_end, cur, entry.lastUse))
            return false;
        path += delta;
        if (path > ~std::uint32_t{0} ||
            instructions > ~std::uint32_t{0})
            return false;
        entry.path = static_cast<PathIndex>(path);
        entry.instructions =
            static_cast<std::uint32_t>(instructions);
        state.fragments.push_back(entry);
    }

    if (!readVarint(data, payload_end, cur, state.framesApplied) ||
        !readVarint(data, payload_end, cur, state.eventsProcessed) ||
        !readVarint(data, payload_end, cur, state.cachedEvents) ||
        !readVarint(data, payload_end, cur,
                    state.interpretedEvents) ||
        !readVarint(data, payload_end, cur, state.predictions) ||
        !readVarint(data, payload_end, cur, state.sequenceGaps) ||
        !readVarint(data, payload_end, cur, state.decodeErrors))
        return false;
    return count == state.counters.size() + state.retired.size() +
                        state.fragments.size();
}

} // namespace

const char *
decodeStatusName(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok: return "ok";
      case DecodeStatus::Truncated: return "truncated";
      case DecodeStatus::BadMagic: return "bad-magic";
      case DecodeStatus::BadKind: return "bad-kind";
      case DecodeStatus::BadLength: return "bad-length";
      case DecodeStatus::BadCrc: return "bad-crc";
      case DecodeStatus::BadPayload: return "bad-payload";
    }
    return "unknown";
}

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

bool
readVarint(const std::uint8_t *data, std::size_t size,
           std::size_t &offset, std::uint64_t &v)
{
    std::uint64_t result = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (offset >= size)
            return false;
        const std::uint8_t byte = data[offset++];
        result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            v = result;
            return true;
        }
    }
    return false; // more than 10 continuation bytes
}

std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i)
        crc = crcStep(crc, data[i]);
    return ~crc;
}

void
appendEventFrame(std::vector<std::uint8_t> &out, std::uint64_t session,
                 std::uint64_t sequence, const PathEvent *events,
                 std::size_t count)
{
    HOTPATH_ASSERT(count <= kMaxFrameEvents,
                   "event frame exceeds kMaxFrameEvents");
    const auto values = eventDeltas(events, count);
    appendFrame(out, FrameKind::PathEvents, session, sequence, count,
                payloadBytes(values), values);
}

void
appendEventFrame(std::vector<std::uint8_t> &out, std::uint64_t session,
                 std::uint64_t sequence,
                 const std::vector<PathEvent> &events)
{
    appendEventFrame(out, session, sequence, events.data(),
                     events.size());
}

void
appendPredictionFrame(std::vector<std::uint8_t> &out,
                      std::uint64_t session, std::uint64_t sequence,
                      const PredictionRecord *records,
                      std::size_t count)
{
    HOTPATH_ASSERT(count <= kMaxFrameEvents,
                   "prediction frame exceeds kMaxFrameEvents");
    const auto values = [records, count](auto &&sink) {
        PredictionRecord prev;
        for (std::size_t i = 0; i < count; ++i) {
            const PredictionRecord &r = records[i];
            sink(zigzagDelta(prev.head, r.head));
            sink(zigzagDelta(prev.path, r.path));
            prev = r;
        }
    };
    appendFrame(out, FrameKind::Predictions, session, sequence, count,
                payloadBytes(values), values);
}

void
appendSessionStateFrame(std::vector<std::uint8_t> &out,
                        std::uint64_t session, std::uint64_t sequence,
                        const SessionState &state)
{
    const std::uint64_t entries =
        state.request ? 0
                      : state.counters.size() + state.retired.size() +
                            state.fragments.size();
    HOTPATH_ASSERT(entries <= kMaxFrameEvents,
                   "session-state frame exceeds kMaxFrameEvents");
    const auto values = [&state](auto &&sink) {
        if (state.request) {
            sink(1); // flags: export request
            return;
        }
        sink(0); // flags: snapshot
        sink(state.predictionDelay);
        sink(state.lastSequence);
        sink(state.sawFrame ? 1 : 0);
        sink(state.cacheClock);

        sink(state.counters.size());
        std::uint64_t prev_key = 0;
        for (const SessionCounterEntry &c : state.counters) {
            HOTPATH_ASSERT(c.key >= prev_key,
                           "session-state counters must ascend");
            sink(c.key - prev_key);
            sink(c.count);
            prev_key = c.key;
        }

        sink(state.retired.size());
        std::uint64_t prev_head = 0;
        for (const std::uint32_t h : state.retired) {
            sink(h - prev_head);
            prev_head = h;
        }

        sink(state.fragments.size());
        std::uint64_t prev_path = 0;
        for (const SessionFragmentEntry &f : state.fragments) {
            sink(f.path - prev_path);
            sink(f.instructions);
            sink(f.executions);
            sink(f.lastUse);
            prev_path = f.path;
        }

        sink(state.framesApplied);
        sink(state.eventsProcessed);
        sink(state.cachedEvents);
        sink(state.interpretedEvents);
        sink(state.predictions);
        sink(state.sequenceGaps);
        sink(state.decodeErrors);
    };
    appendFrame(out, FrameKind::SessionState, session, sequence,
                entries, payloadBytes(values), values);
}

std::vector<std::uint8_t>
encodeEventStream(const std::vector<PathEvent> &stream,
                  std::uint64_t session, std::size_t frame_events)
{
    HOTPATH_ASSERT(frame_events >= 1 &&
                       frame_events <= kMaxFrameEvents,
                   "invalid frame_events");
    // Size the stream exactly before encoding it: a pass over the
    // deltas costs far less than regrowing a stream of megabytes, and
    // the frames then append without a single reallocation. The pass
    // keeps each frame's payload size for the write pass.
    const std::size_t frames =
        stream.empty() ? 1
                       : (stream.size() + frame_events - 1) / frame_events;
    const auto eventsIn = [&](std::size_t f) {
        return std::min(frame_events, stream.size() - f * frame_events);
    };
    std::vector<std::size_t> payload_bytes(frames);
    std::size_t bytes = 0;
    for (std::size_t f = 0; f < frames; ++f) {
        const std::size_t n = eventsIn(f);
        payload_bytes[f] = payloadBytes(
            eventDeltas(stream.data() + f * frame_events, n));
        bytes += frameBytes(session, f, n, payload_bytes[f]);
    }
    std::vector<std::uint8_t> out;
    out.reserve(bytes);
    for (std::size_t f = 0; f < frames; ++f) {
        const std::size_t n = eventsIn(f);
        appendFrame(out, FrameKind::PathEvents, session, f, n,
                    payload_bytes[f],
                    eventDeltas(stream.data() + f * frame_events, n));
    }
    return out;
}

DecodeStatus
peekFrameHeader(const std::uint8_t *data, std::size_t size,
                std::size_t offset, FrameHeader &header,
                std::size_t &frame_end)
{
    std::size_t crc_begin = 0;
    std::size_t payload_begin = 0;
    std::size_t payload_len = 0;
    std::uint64_t count = 0;
    return parseHeader(data, size, offset, header, crc_begin,
                       payload_begin, payload_len, count, frame_end);
}

DecodeStatus
decodeFrame(const std::uint8_t *data, std::size_t size,
            std::size_t &offset, DecodedFrame &out)
{
    std::size_t crc_begin = 0;
    std::size_t payload_begin = 0;
    std::size_t payload_len = 0;
    std::uint64_t count = 0;
    std::size_t frame_end = 0;
    const DecodeStatus header_status =
        parseHeader(data, size, offset, out.header, crc_begin,
                    payload_begin, payload_len, count, frame_end);
    if (header_status != DecodeStatus::Ok)
        return header_status;

    const std::size_t payload_end = payload_begin + payload_len;
    const std::uint32_t want = readU32le(data + payload_end);
    if (crc32(data + crc_begin, payload_end - crc_begin) != want)
        return DecodeStatus::BadCrc;

    out.events.clear();
    out.predictions.clear();
    out.state = SessionState{};
    std::size_t cur = payload_begin;
    if (out.header.kind == FrameKind::SessionState) {
        if (!decodeSessionState(data, payload_end, cur, count,
                                out.state))
            return DecodeStatus::BadPayload;
    } else {
        // Batched delta decode: one pointer cursor over the whole
        // payload straight into the (reused) flat output array - no
        // per-field offset/bounds bookkeeping, no per-event growth.
        const std::uint8_t *p = data + payload_begin;
        const std::uint8_t *pend = data + payload_end;
        if (out.header.kind == FrameKind::Predictions) {
            out.predictions.resize(count);
            PredictionRecord prev;
            for (std::uint64_t i = 0; i < count; ++i) {
                if (!readDelta32(p, pend, prev.head) ||
                    !readDelta32(p, pend, prev.path))
                    return DecodeStatus::BadPayload;
                out.predictions[i] = prev;
            }
        } else {
            out.events.resize(count);
            PathEvent prev;
            prev.path = 0;
            prev.head = 0;
            for (std::uint64_t i = 0; i < count; ++i) {
                if (!readDelta32(p, pend, prev.path) ||
                    !readDelta32(p, pend, prev.head) ||
                    !readDelta32(p, pend, prev.blocks) ||
                    !readDelta32(p, pend, prev.branches) ||
                    !readDelta32(p, pend, prev.instructions))
                    return DecodeStatus::BadPayload;
                out.events[i] = prev;
            }
        }
        cur = static_cast<std::size_t>(p - data);
    }
    if (cur != payload_end)
        return DecodeStatus::BadPayload; // trailing junk in payload
    offset = frame_end;
    return DecodeStatus::Ok;
}

std::size_t
findFrameBoundary(const std::uint8_t *data, std::size_t size,
                  std::size_t from, bool *complete)
{
    FrameHeader header;
    for (std::size_t at = from; at < size; ++at) {
        if (data[at] != kMagic0)
            continue;
        if (at + 1 < size && data[at + 1] != kMagic1)
            continue;
        std::size_t crc_begin = 0;
        std::size_t payload_begin = 0;
        std::size_t payload_len = 0;
        std::uint64_t count = 0;
        std::size_t frame_end = 0;
        const DecodeStatus status =
            parseHeader(data, size, at, header, crc_begin,
                        payload_begin, payload_len, count, frame_end);
        if (status == DecodeStatus::Ok) {
            const std::size_t payload_end =
                payload_begin + payload_len;
            if (crc32(data + crc_begin, payload_end - crc_begin) ==
                readU32le(data + payload_end)) {
                *complete = true;
                return at;
            }
            continue; // CRC-invalid candidate: keep scanning
        }
        if (status == DecodeStatus::Truncated) {
            // Plausible frame still arriving: hand the tail back to
            // the caller. If more bytes later prove it corrupt, the
            // next resync resumes from here, so no byte is scanned
            // twice as complete garbage.
            *complete = false;
            return at;
        }
        // BadKind / BadLength / BadMagic: corrupt candidate, go on.
    }
    *complete = false;
    return size;
}

} // namespace hotpath::wire
