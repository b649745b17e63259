/**
 * @file
 * The streaming engine's contract tests: wire-format round trips and
 * defensive decoding (truncation and corruption never crash, every
 * malformed frame maps to a status), session LRU eviction under the
 * capacity cap, and the determinism guarantee - a threaded engine's
 * per-session predictions are bit-identical to the serial fallback
 * and to a hand-rolled in-process replay, whether a frame runs on a
 * worker or inline on the thread that submitted it.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamo/code_cache.hh"
#include "engine/engine.hh"
#include "engine/session.hh"
#include "engine/session_table.hh"
#include "engine/wire_format.hh"
#include "predict/net_predictor.hh"
#include "support/random.hh"
#include "workload/synthesis.hh"

using namespace hotpath;
using namespace hotpath::engine;

namespace
{

std::vector<PathEvent>
syntheticEvents(std::size_t count, std::uint64_t seed)
{
    // Loop-burst shaped: runs of one path with occasional jumps, the
    // pattern the delta encoding is built for, plus full-range
    // outliers to exercise the zigzag width handling.
    Rng rng(seed);
    std::vector<PathEvent> events;
    events.reserve(count);
    PathEvent event;
    event.path = 7;
    event.head = 3;
    event.blocks = 5;
    event.branches = 4;
    event.instructions = 40;
    for (std::size_t i = 0; i < count; ++i) {
        if (rng.nextBool(0.1)) {
            event.path = static_cast<PathIndex>(rng.next());
            event.head = static_cast<HeadIndex>(rng.next());
            event.blocks = static_cast<std::uint32_t>(rng.next());
            event.branches = static_cast<std::uint32_t>(rng.next());
            event.instructions =
                static_cast<std::uint32_t>(rng.next());
        }
        events.push_back(event);
    }
    return events;
}

bool
sameEvent(const PathEvent &a, const PathEvent &b)
{
    return a.path == b.path && a.head == b.head &&
           a.blocks == b.blocks && a.branches == b.branches &&
           a.instructions == b.instructions;
}

// The reference encoder: the wire layout of wire_format.hh written
// the plain way - varints pushed byte by byte into a payload vector,
// then magic, header, payload and crc32() over kind..payload. The
// library's encoders must match it byte for byte.

void
refVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

void
refDelta(std::vector<std::uint8_t> &out, std::uint64_t prev,
         std::uint64_t cur)
{
    const std::int64_t d =
        static_cast<std::int64_t>(cur) - static_cast<std::int64_t>(prev);
    refVarint(out, (static_cast<std::uint64_t>(d) << 1) ^
                       static_cast<std::uint64_t>(d >> 63));
}

std::vector<std::uint8_t>
refFrame(wire::FrameKind kind, std::uint64_t session,
         std::uint64_t sequence, std::uint64_t count,
         const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out{'H', 'F',
                                  static_cast<std::uint8_t>(kind)};
    refVarint(out, session);
    refVarint(out, sequence);
    refVarint(out, count);
    refVarint(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    const std::uint32_t crc = wire::crc32(out.data() + 2, out.size() - 2);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    return out;
}

std::vector<std::uint8_t>
refEventFrame(std::uint64_t session, std::uint64_t sequence,
              const PathEvent *events, std::size_t count)
{
    std::vector<std::uint8_t> payload;
    PathEvent prev;
    prev.path = 0;
    prev.head = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const PathEvent &e = events[i];
        refDelta(payload, prev.path, e.path);
        refDelta(payload, prev.head, e.head);
        refDelta(payload, prev.blocks, e.blocks);
        refDelta(payload, prev.branches, e.branches);
        refDelta(payload, prev.instructions, e.instructions);
        prev = e;
    }
    return refFrame(wire::FrameKind::PathEvents, session, sequence,
                    count, payload);
}

std::vector<std::uint8_t>
refSessionStateFrame(std::uint64_t session, std::uint64_t sequence,
                     const wire::SessionState &state)
{
    std::vector<std::uint8_t> payload;
    if (state.request) {
        refVarint(payload, 1);
        return refFrame(wire::FrameKind::SessionState, session,
                        sequence, 0, payload);
    }
    refVarint(payload, 0);
    refVarint(payload, state.predictionDelay);
    refVarint(payload, state.lastSequence);
    refVarint(payload, state.sawFrame ? 1 : 0);
    refVarint(payload, state.cacheClock);
    refVarint(payload, state.counters.size());
    std::uint64_t prev = 0;
    for (const wire::SessionCounterEntry &c : state.counters) {
        refVarint(payload, c.key - prev);
        refVarint(payload, c.count);
        prev = c.key;
    }
    refVarint(payload, state.retired.size());
    prev = 0;
    for (const std::uint32_t h : state.retired) {
        refVarint(payload, h - prev);
        prev = h;
    }
    refVarint(payload, state.fragments.size());
    prev = 0;
    for (const wire::SessionFragmentEntry &f : state.fragments) {
        refVarint(payload, f.path - prev);
        refVarint(payload, f.instructions);
        refVarint(payload, f.executions);
        refVarint(payload, f.lastUse);
        prev = f.path;
    }
    for (const std::uint64_t v :
         {state.framesApplied, state.eventsProcessed, state.cachedEvents,
          state.interpretedEvents, state.predictions, state.sequenceGaps,
          state.decodeErrors})
        refVarint(payload, v);
    return refFrame(wire::FrameKind::SessionState, session, sequence,
                    state.counters.size() + state.retired.size() +
                        state.fragments.size(),
                    payload);
}

/**
 * The other inputs the defensive-decoding properties walk, beside a
 * PathEvents frame: a Predictions frame, a SessionState snapshot and
 * a SessionState export request.
 */
std::vector<std::vector<std::uint8_t>>
nonEventFrames()
{
    std::vector<std::vector<std::uint8_t>> frames(3);
    std::vector<wire::PredictionRecord> records;
    for (const PathEvent &e : syntheticEvents(20, 31))
        records.push_back({e.head, e.path});
    wire::appendPredictionFrame(frames[0], 4, 2, records.data(),
                                records.size());

    wire::SessionState snapshot;
    snapshot.predictionDelay = 50;
    snapshot.lastSequence = 9;
    snapshot.sawFrame = true;
    snapshot.cacheClock = 1234;
    for (std::uint64_t i = 0; i < 6; ++i)
        snapshot.counters.push_back({3 + 7 * i, 40 + i});
    snapshot.retired = {2, 11, 300, 70000};
    for (std::uint32_t i = 0; i < 5; ++i)
        snapshot.fragments.push_back({10 + 3 * i, 24 + i, 5 * i, 900 + i});
    snapshot.framesApplied = 10;
    snapshot.eventsProcessed = 5120;
    snapshot.cachedEvents = 4000;
    snapshot.interpretedEvents = 1120;
    snapshot.predictions = 5;
    snapshot.sequenceGaps = 1;
    snapshot.decodeErrors = 2;
    wire::appendSessionStateFrame(frames[1], 4, 3, snapshot);

    wire::SessionState request;
    request.request = true;
    wire::appendSessionStateFrame(frames[2], 4, 4, request);
    return frames;
}

} // namespace

// Primitive encodings ----------------------------------------------

TEST(WireFormat, VarintRoundTripsBoundaryValues)
{
    const std::uint64_t values[] = {0,
                                    1,
                                    127,
                                    128,
                                    16383,
                                    16384,
                                    (1ull << 32) - 1,
                                    1ull << 32,
                                    ~0ull};
    for (std::uint64_t v : values) {
        std::vector<std::uint8_t> buf;
        wire::appendVarint(buf, v);
        std::size_t offset = 0;
        std::uint64_t decoded = 0;
        ASSERT_TRUE(wire::readVarint(buf.data(), buf.size(), offset,
                                     decoded));
        EXPECT_EQ(decoded, v);
        EXPECT_EQ(offset, buf.size());
    }
}

TEST(WireFormat, VarintRejectsTruncationAndOverlength)
{
    std::vector<std::uint8_t> buf;
    wire::appendVarint(buf, ~0ull);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
        std::size_t offset = 0;
        std::uint64_t v = 0;
        EXPECT_FALSE(wire::readVarint(buf.data(), cut, offset, v));
    }
    // Eleven continuation bytes can never be a valid 64-bit varint.
    const std::vector<std::uint8_t> runaway(11, 0x80);
    std::size_t offset = 0;
    std::uint64_t v = 0;
    EXPECT_FALSE(
        wire::readVarint(runaway.data(), runaway.size(), offset, v));
}

TEST(WireFormat, ZigzagIsAnInvolutionAndKeepsSmallMagnitudesSmall)
{
    const std::int64_t values[] = {0, -1, 1, -2, 2, 1 << 20,
                                   -(1 << 20),
                                   std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max()};
    for (std::int64_t v : values)
        EXPECT_EQ(wire::zigzagDecode(wire::zigzagEncode(v)), v);
    EXPECT_EQ(wire::zigzagEncode(-1), 1u);
    EXPECT_EQ(wire::zigzagEncode(1), 2u);
}

TEST(WireFormat, Crc32MatchesKnownVector)
{
    // The classic IEEE test vector.
    const char *s = "123456789";
    EXPECT_EQ(wire::crc32(reinterpret_cast<const std::uint8_t *>(s),
                          9),
              0xCBF43926u);
}

// Frame round trips ------------------------------------------------

TEST(WireFormat, EventStreamRoundTripsAcrossFrames)
{
    const std::vector<PathEvent> events = syntheticEvents(10000, 11);
    // Frame size 257 forces many frames plus a ragged tail.
    const std::vector<std::uint8_t> bytes =
        wire::encodeEventStream(events, /*session=*/42, 257);
    // Sized exactly up front, so the encode never regrew the buffer.
    EXPECT_EQ(bytes.capacity(), bytes.size());

    std::vector<PathEvent> decoded;
    std::size_t offset = 0;
    std::uint64_t sequence = 0;
    wire::DecodedFrame frame;
    while (offset < bytes.size()) {
        ASSERT_EQ(wire::decodeFrame(bytes.data(), bytes.size(),
                                    offset, frame),
                  wire::DecodeStatus::Ok);
        EXPECT_EQ(frame.header.session, 42u);
        EXPECT_EQ(frame.header.sequence, sequence++);
        EXPECT_EQ(frame.header.kind, wire::FrameKind::PathEvents);
        decoded.insert(decoded.end(), frame.events.begin(),
                       frame.events.end());
    }
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        ASSERT_TRUE(sameEvent(decoded[i], events[i])) << "at " << i;
}

TEST(WireFormat, EmptyFrameRoundTrips)
{
    std::vector<std::uint8_t> bytes;
    wire::appendEventFrame(bytes, 9, 0, nullptr, 0);
    std::size_t offset = 0;
    wire::DecodedFrame frame;
    ASSERT_EQ(
        wire::decodeFrame(bytes.data(), bytes.size(), offset, frame),
        wire::DecodeStatus::Ok);
    EXPECT_TRUE(frame.events.empty());
    EXPECT_EQ(offset, bytes.size());
}

TEST(WireFormat, PeekAgreesWithFullDecode)
{
    const std::vector<PathEvent> events = syntheticEvents(100, 3);
    std::vector<std::uint8_t> bytes;
    wire::appendEventFrame(bytes, 123456, 77, events.data(),
                           events.size());

    wire::FrameHeader header;
    std::size_t frame_end = 0;
    ASSERT_EQ(wire::peekFrameHeader(bytes.data(), bytes.size(), 0,
                                    header, frame_end),
              wire::DecodeStatus::Ok);
    EXPECT_EQ(header.session, 123456u);
    EXPECT_EQ(header.sequence, 77u);
    EXPECT_EQ(frame_end, bytes.size());
}

TEST(WireFormat, FrameEncodersMatchTheReferenceByteForByte)
{
    constexpr std::uint32_t kMax = ~std::uint32_t{0};
    // Seeded full-range outliers give multi-byte varints and negative
    // deltas; the fixed tail adds 2^32-1 fields and jumps between 0
    // and 2^32-1 in both directions.
    std::vector<PathEvent> events = syntheticEvents(700, 17);
    for (const std::uint32_t v : {kMax, 0u, kMax, 1u, 0u}) {
        PathEvent e;
        e.path = v;
        e.head = kMax - v;
        e.blocks = v;
        e.branches = kMax - v;
        e.instructions = v;
        events.push_back(e);
    }
    const std::uint64_t ids[][2] = {
        {0, 0}, {42, 7}, {300, 1u << 20}, {~0ull, ~0ull - 1}};

    for (const auto &id : ids) {
        for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                    std::size_t{64}, events.size()}) {
            std::vector<std::uint8_t> got{0xAB}; // appends after it
            wire::appendEventFrame(got, id[0], id[1], events.data(), n);
            std::vector<std::uint8_t> want{0xAB};
            const std::vector<std::uint8_t> frame =
                refEventFrame(id[0], id[1], events.data(), n);
            want.insert(want.end(), frame.begin(), frame.end());
            EXPECT_EQ(got, want) << "events n=" << n;

            std::vector<wire::PredictionRecord> records;
            std::vector<std::uint8_t> record_payload;
            wire::PredictionRecord prev_record;
            for (std::size_t i = 0; i < n; ++i) {
                records.push_back({events[i].head, events[i].path});
                refDelta(record_payload, prev_record.head,
                         records.back().head);
                refDelta(record_payload, prev_record.path,
                         records.back().path);
                prev_record = records.back();
            }
            got.clear();
            wire::appendPredictionFrame(got, id[0], id[1],
                                        records.data(), n);
            EXPECT_EQ(got, refFrame(wire::FrameKind::Predictions, id[0],
                                    id[1], n, record_payload))
                << "predictions n=" << n;
        }

        wire::SessionState request;
        request.request = true;
        std::vector<std::uint8_t> got;
        wire::appendSessionStateFrame(got, id[0], id[1], request);
        EXPECT_EQ(got, refSessionStateFrame(id[0], id[1], request));

        Rng rng(id[0] ^ 0x5eed);
        wire::SessionState snapshot;
        snapshot.predictionDelay = 50;
        snapshot.lastSequence = id[1];
        snapshot.sawFrame = true;
        snapshot.cacheClock = rng.next();
        std::uint64_t key = 0;
        for (int i = 0; i < 40; ++i) {
            key += 1 + rng.nextBounded(i % 5 == 0 ? 1ull << 40 : 100);
            snapshot.counters.push_back({key, rng.next() >> (i % 64)});
        }
        std::uint32_t head = 0;
        for (int i = 0; i < 30; ++i) {
            head += 1 + static_cast<std::uint32_t>(rng.nextBounded(
                            i % 7 == 0 ? 1u << 24 : 50));
            snapshot.retired.push_back(head);
        }
        snapshot.retired.push_back(kMax);
        std::uint32_t path = 0;
        for (int i = 0; i < 25; ++i) {
            path += 1 + static_cast<std::uint32_t>(rng.nextBounded(
                            i % 6 == 0 ? 1u << 20 : 9));
            snapshot.fragments.push_back(
                {path, static_cast<std::uint32_t>(rng.next()),
                 rng.next() >> (i % 64), rng.nextBounded(1000)});
        }
        snapshot.fragments.push_back({kMax, kMax, ~0ull, ~0ull});
        snapshot.framesApplied = 3;
        snapshot.eventsProcessed = rng.next();
        snapshot.cachedEvents = 0;
        snapshot.interpretedEvents = kMax;
        snapshot.predictions = 128;
        snapshot.sequenceGaps = 1;
        snapshot.decodeErrors = ~0ull;
        got.clear();
        wire::appendSessionStateFrame(got, id[0], id[1], snapshot);
        EXPECT_EQ(got, refSessionStateFrame(id[0], id[1], snapshot));
    }
}

TEST(WireFormat, EncodeEventStreamMatchesTheReferenceByteForByte)
{
    std::vector<PathEvent> events = syntheticEvents(3000, 23);
    events[1500].path = ~std::uint32_t{0};
    events[1501].instructions = ~std::uint32_t{0};
    for (const std::size_t frame_events :
         {std::size_t{1}, std::size_t{257}, std::size_t{512},
          wire::kMaxFrameEvents}) {
        for (const std::size_t n : {std::size_t{0}, events.size()}) {
            const std::vector<PathEvent> stream(events.begin(),
                                                events.begin() + n);
            std::vector<std::uint8_t> want;
            std::uint64_t sequence = 0;
            std::size_t i = 0;
            do {
                const std::size_t k =
                    std::min(frame_events, stream.size() - i);
                const std::vector<std::uint8_t> frame = refEventFrame(
                    ~0ull - 3, sequence++, stream.data() + i, k);
                want.insert(want.end(), frame.begin(), frame.end());
                i += k;
            } while (i < stream.size());
            EXPECT_EQ(wire::encodeEventStream(stream, ~0ull - 3,
                                              frame_events),
                      want)
                << "frame_events=" << frame_events << " n=" << n;
        }
    }
}

// Defensive decoding: property tests -------------------------------

TEST(WireFormat, TruncationAtEveryLengthIsRejectedWithoutCrashing)
{
    const std::vector<PathEvent> events = syntheticEvents(64, 21);
    std::vector<std::vector<std::uint8_t>> inputs(1);
    wire::appendEventFrame(inputs[0], 5, 0, events.data(),
                           events.size());
    for (auto &frame : nonEventFrames())
        inputs.push_back(std::move(frame));

    wire::DecodedFrame frame;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
        const std::vector<std::uint8_t> &bytes = inputs[n];
        for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
            std::size_t offset = 0;
            const wire::DecodeStatus status =
                wire::decodeFrame(bytes.data(), cut, offset, frame);
            EXPECT_NE(status, wire::DecodeStatus::Ok)
                << "input " << n << " cut=" << cut;
            EXPECT_EQ(offset, 0u)
                << "offset moved on error, input " << n
                << " cut=" << cut;
        }
    }
}

TEST(WireFormat, EverySingleByteCorruptionIsDetected)
{
    const std::vector<PathEvent> events = syntheticEvents(32, 8);
    std::vector<std::vector<std::uint8_t>> inputs(1);
    wire::appendEventFrame(inputs[0], 3, 1, events.data(),
                           events.size());
    for (auto &frame : nonEventFrames())
        inputs.push_back(std::move(frame));

    // The CRC covers kind..payload and the CRC bytes themselves are
    // compared, so any single-byte flip anywhere in the frame must
    // surface as a non-Ok status (which one depends on whether the
    // flip breaks structure before the CRC check runs).
    wire::DecodedFrame frame;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
        const std::vector<std::uint8_t> &bytes = inputs[n];
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (std::uint8_t flip : {std::uint8_t{0x01},
                                      std::uint8_t{0x80},
                                      std::uint8_t{0xff}}) {
                std::vector<std::uint8_t> corrupt = bytes;
                corrupt[i] ^= flip;
                std::size_t offset = 0;
                const wire::DecodeStatus status = wire::decodeFrame(
                    corrupt.data(), corrupt.size(), offset, frame);
                EXPECT_NE(status, wire::DecodeStatus::Ok)
                    << "input " << n << " byte " << i << " flip "
                    << int(flip);
            }
        }
    }
}

TEST(WireFormat, RandomGarbageNeverDecodes)
{
    Rng rng(99);
    wire::DecodedFrame frame;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> junk(rng.nextBounded(256));
        for (auto &byte : junk)
            byte = static_cast<std::uint8_t>(rng.next());
        // Avoid the astronomically unlikely valid frame by breaking
        // the magic when the draw happens to produce it.
        if (junk.size() >= 2 && junk[0] == 'H' && junk[1] == 'F')
            junk[0] = 'X';
        std::size_t offset = 0;
        EXPECT_NE(wire::decodeFrame(junk.data(), junk.size(), offset,
                                    frame),
                  wire::DecodeStatus::Ok);
    }
}

TEST(WireFormat, OversizedCountIsBadLengthNotAnAllocation)
{
    // Hand-build a frame claiming 2^40 events; the decoder must
    // refuse from the declared count alone, before touching payload.
    std::vector<std::uint8_t> bytes;
    bytes.push_back('H');
    bytes.push_back('F');
    const std::size_t crc_begin = bytes.size();
    bytes.push_back(1); // kind = PathEvents
    wire::appendVarint(bytes, 1);          // session
    wire::appendVarint(bytes, 0);          // sequence
    wire::appendVarint(bytes, 1ull << 40); // count
    wire::appendVarint(bytes, 0);          // payloadLen
    const std::uint32_t crc = wire::crc32(bytes.data() + crc_begin,
                                          bytes.size() - crc_begin);
    for (int i = 0; i < 4; ++i)
        bytes.push_back(
            static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff));

    std::size_t offset = 0;
    wire::DecodedFrame frame;
    EXPECT_EQ(
        wire::decodeFrame(bytes.data(), bytes.size(), offset, frame),
        wire::DecodeStatus::BadLength);
}

TEST(WireFormat, UnknownKindBytesAreBadKind)
{
    // CRC-valid frames whose kind byte names no FrameKind: the header
    // parse refuses them before any payload is read, whether a scan
    // peeks the header or a worker decodes the frame.
    for (const int kind : {0, 2, 5, 255}) {
        const std::vector<std::uint8_t> bytes = refFrame(
            static_cast<wire::FrameKind>(kind), 1, 0, 0, {});
        wire::FrameHeader header;
        std::size_t frame_end = 0;
        EXPECT_EQ(wire::peekFrameHeader(bytes.data(), bytes.size(), 0,
                                        header, frame_end),
                  wire::DecodeStatus::BadKind)
            << "kind " << int(kind);
        std::size_t offset = 0;
        wire::DecodedFrame frame;
        EXPECT_EQ(wire::decodeFrame(bytes.data(), bytes.size(), offset,
                                    frame),
                  wire::DecodeStatus::BadKind)
            << "kind " << int(kind);
        EXPECT_EQ(offset, 0u) << "kind " << int(kind);
    }
}

// Session ----------------------------------------------------------

TEST(Session, CountsSequenceGaps)
{
    Session session(1, SessionConfig{});
    wire::DecodedFrame frame;
    frame.header.session = 1;
    frame.header.sequence = 0;
    session.apply(frame);
    frame.header.sequence = 1;
    session.apply(frame);
    frame.header.sequence = 5; // frames 2..4 lost
    session.apply(frame);
    frame.header.sequence = 6;
    session.apply(frame);
    EXPECT_EQ(session.stats().framesApplied, 4u);
    EXPECT_EQ(session.stats().sequenceGaps, 1u);
}

TEST(Session, CachedPathsBypassTheProfiler)
{
    SessionConfig config;
    config.predictionDelay = 3;
    Session session(1, config);

    PathEvent event;
    event.path = 9;
    event.head = 2;
    event.instructions = 10;
    // Three head executions arm the prediction; the third predicts
    // and caches the path, after which events are cache hits.
    for (int i = 0; i < 3; ++i)
        session.consume(event);
    EXPECT_EQ(session.stats().predictions, 1u);
    session.consume(event);
    session.consume(event);
    EXPECT_EQ(session.stats().cachedEvents, 2u);
    EXPECT_EQ(session.stats().interpretedEvents, 3u);
    EXPECT_EQ(session.stats().eventsProcessed, 5u);
}

TEST(Session, SnapshotsCarryFragmentExecutions)
{
    // A path served N times from the session's cache exports
    // executions == N, and an import -> export round trip keeps it.
    SessionConfig config;
    config.predictionDelay = 3;
    Session session(1, config);

    PathEvent event;
    event.path = 9;
    event.head = 2;
    event.instructions = 10;
    constexpr std::uint64_t kServed = 97;
    for (std::uint64_t i = 0; i < 3 + kServed; ++i)
        session.consume(event);
    ASSERT_EQ(session.stats().cachedEvents, kServed);

    wire::SessionState exported;
    session.exportState(exported);
    ASSERT_EQ(exported.fragments.size(), 1u);
    EXPECT_EQ(exported.fragments[0].path, 9u);
    EXPECT_EQ(exported.fragments[0].executions, kServed);

    Session migrated(1, config);
    migrated.importState(exported);
    wire::SessionState again;
    migrated.exportState(again);
    ASSERT_EQ(again.fragments.size(), 1u);
    EXPECT_EQ(again.fragments[0].executions, kServed);
    EXPECT_EQ(again.fragments[0].lastUse,
              exported.fragments[0].lastUse);
    EXPECT_EQ(again.cacheClock, exported.cacheClock);

    // The imported count keeps counting where the exporter stopped.
    migrated.consume(event);
    migrated.exportState(again);
    EXPECT_EQ(again.fragments[0].executions, kServed + 1);
}

TEST(SessionDeathTest, RejectsCachePoliciesASessionDoesNotServe)
{
    SessionConfig config;
    config.cachePolicy = CachePolicy::EvictFifo;
    EXPECT_DEATH(Session(1, config), "FlushAll or EvictLru");
    config.cachePolicy = CachePolicy::Generational;
    EXPECT_DEATH(Session(1, config), "FlushAll or EvictLru");
}

// Session table ----------------------------------------------------

TEST(SessionTable, EvictsLeastRecentlyActiveWhenFull)
{
    SessionTableConfig config;
    config.shardCount = 1; // single stripe makes LRU order total
    config.maxSessions = 3;
    ShardedSessionTable table(config);

    const auto touch = [&](std::uint64_t id) {
        table.withSession(id, [](Session &) {});
    };
    touch(1);
    touch(2);
    touch(3);
    EXPECT_EQ(table.liveSessions(), 3u);

    touch(1);  // refresh 1: LRU order is now 2, 3, 1
    touch(4);  // evicts 2
    EXPECT_EQ(table.liveSessions(), 3u);
    EXPECT_FALSE(table.peekSession(2, [](const Session &) {}));
    EXPECT_TRUE(table.peekSession(3, [](const Session &) {}));
    EXPECT_TRUE(table.peekSession(1, [](const Session &) {}));

    touch(5); // evicts 3 (peeking above did not refresh it)
    EXPECT_FALSE(table.peekSession(3, [](const Session &) {}));
    EXPECT_TRUE(table.peekSession(1, [](const Session &) {}));

    const SessionTableStats stats = table.stats();
    EXPECT_EQ(stats.created, 5u);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.live, 3u);
}

TEST(SessionTable, EvictIdleRetiresOnlyStaleSessions)
{
    SessionTableConfig config;
    config.shardCount = 1;
    ShardedSessionTable table(config);

    const auto touch = [&](std::uint64_t id) {
        table.withSession(id, [](Session &) {});
    };
    touch(1); // activity tick 1
    touch(2); // activity tick 2
    touch(3); // activity tick 3
    touch(3); // ticks 4..8 keep 3 fresh and age 1 and 2
    touch(3);
    touch(3);
    touch(3);
    touch(3);
    EXPECT_EQ(table.activityTicks(), 8u);

    // max_age 5: session 1 (age 7) and 2 (age 6) are stale, 3 is
    // current.
    EXPECT_EQ(table.evictIdle(5), 2u);
    EXPECT_FALSE(table.peekSession(1, [](const Session &) {}));
    EXPECT_FALSE(table.peekSession(2, [](const Session &) {}));
    EXPECT_TRUE(table.peekSession(3, [](const Session &) {}));

    // Nothing further is stale; the sweep is idempotent.
    EXPECT_EQ(table.evictIdle(5), 0u);

    const SessionTableStats stats = table.stats();
    EXPECT_EQ(stats.idleEvicted, 2u);
    EXPECT_EQ(stats.evicted, 0u); // idle sweep is not LRU pressure
    EXPECT_EQ(stats.live, 1u);
}

TEST(Engine, EvictIdleSessionsSurfacesInStats)
{
    EngineConfig config;
    config.workerThreads = 0; // serial: counts are exact
    config.sessions.shardCount = 1;
    Engine eng(config);

    std::vector<PathEvent> events(64);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].path = static_cast<PathIndex>((i % 8) * 10);
        events[i].head = static_cast<HeadIndex>(i % 8);
        events[i].blocks = 4;
        events[i].branches = 3;
        events[i].instructions = 30;
    }
    ASSERT_TRUE(eng.submitEvents(21, 0, events.data(), events.size()));
    for (std::uint64_t seq = 0; seq < 8; ++seq) {
        ASSERT_TRUE(
            eng.submitEvents(22, seq, events.data(), events.size()));
    }

    // Session 21 saw one frame then went silent for eight; 22 is
    // current.
    EXPECT_EQ(eng.evictIdleSessions(4), 1u);
    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.sessionsIdleEvicted, 1u);
    EXPECT_EQ(stats.sessionsLive, 1u);
}

TEST(SessionTable, ShardRoutingIsStableAndInRange)
{
    SessionTableConfig config;
    config.shardCount = 5; // rounds up to 8
    ShardedSessionTable table(config);
    EXPECT_EQ(table.shardCount(), 8u);
    for (std::uint64_t id = 0; id < 1000; ++id) {
        const std::size_t shard = table.shardOf(id);
        EXPECT_LT(shard, table.shardCount());
        EXPECT_EQ(shard, table.shardOf(id));
    }
}

// Engine -----------------------------------------------------------

namespace
{

/** Frames for one synthetic client session. */
struct ClientTraffic
{
    std::uint64_t id = 0;
    std::vector<PathEvent> events;
    std::vector<std::vector<std::uint8_t>> frames;
};

std::vector<ClientTraffic>
makeTraffic(std::size_t sessions, std::size_t events_per_session,
            std::size_t events_per_frame, std::uint64_t seed)
{
    std::vector<ClientTraffic> traffic;
    for (std::size_t s = 0; s < sessions; ++s) {
        ClientTraffic client;
        client.id = 1 + s;
        // Loop-heavy synthetic streams with per-session structure.
        Rng rng(seed + s);
        PathEvent event;
        for (std::size_t i = 0; i < events_per_session; ++i) {
            const std::uint32_t loop =
                static_cast<std::uint32_t>(rng.nextBounded(8));
            event.path = loop * 10 +
                         static_cast<std::uint32_t>(
                             rng.nextBounded(3));
            event.head = loop;
            event.blocks = 4 + loop;
            event.branches = 3 + loop;
            event.instructions = 30 + 5 * loop;
            client.events.push_back(event);
        }
        std::uint64_t sequence = 0;
        for (std::size_t i = 0; i < client.events.size();
             i += events_per_frame) {
            const std::size_t n = std::min(
                events_per_frame, client.events.size() - i);
            std::vector<std::uint8_t> frame;
            wire::appendEventFrame(frame, client.id, sequence++,
                                   client.events.data() + i, n);
            client.frames.push_back(std::move(frame));
        }
        traffic.push_back(std::move(client));
    }
    return traffic;
}

EngineConfig
recordingConfig(std::size_t workers)
{
    EngineConfig config;
    config.workerThreads = workers;
    config.queueCapacityFrames = 8; // small: exercise backpressure
    config.sessions.shardCount = 8;
    config.sessions.session.predictionDelay = 13;
    config.sessions.session.recordPredictions = true;
    return config;
}

} // namespace

TEST(Engine, SerialModeMatchesHandRolledReplay)
{
    const std::vector<ClientTraffic> traffic =
        makeTraffic(4, 4000, 128, 17);

    Engine eng(recordingConfig(0));
    ASSERT_TRUE(eng.serial());
    for (const ClientTraffic &client : traffic)
        for (const auto &frame : client.frames)
            ASSERT_TRUE(eng.submit(frame));

    for (const ClientTraffic &client : traffic) {
        // The reference replay: the exact components a session embeds.
        NetPredictor predictor(13);
        CodeCacheConfig cache_config;
        cache_config.policy = CachePolicy::EvictLru;
        CodeCache cache(cache_config);
        std::vector<PathIndex> expected;
        for (const PathEvent &event : client.events) {
            if (cache.find(event.path) != nullptr)
                continue;
            if (predictor.observe(event)) {
                cache.insert(event.path, event.instructions);
                expected.push_back(event.path);
            }
        }
        EXPECT_EQ(eng.predictionsFor(client.id), expected)
            << "session " << client.id;
        ASSERT_FALSE(expected.empty());
    }

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, stats.framesDecoded);
    EXPECT_EQ(stats.framesRejected, 0u);
    EXPECT_EQ(stats.eventsProcessed, 4u * 4000u);
}

TEST(Engine, ThreadedResultsAreIdenticalToSerialPerSession)
{
    const std::size_t kSessions = 8;
    const std::vector<ClientTraffic> traffic =
        makeTraffic(kSessions, 3000, 64, 29);

    // Serial reference run.
    std::map<std::uint64_t, std::vector<PathIndex>> expected;
    {
        Engine serial(recordingConfig(0));
        for (const ClientTraffic &client : traffic)
            for (const auto &frame : client.frames)
                serial.submit(frame);
        for (const ClientTraffic &client : traffic)
            expected[client.id] = serial.predictionsFor(client.id);
    }

    // Threaded runs at several worker counts, frames produced by
    // concurrent producers (each owning a disjoint session subset, as
    // the ordering contract requires).
    for (const std::size_t workers : {1u, 2u, 4u}) {
        Engine eng(recordingConfig(workers));
        ASSERT_FALSE(eng.serial());

        std::vector<std::thread> producers;
        const std::size_t kProducers = 4;
        for (std::size_t p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (std::size_t s = p; s < traffic.size();
                     s += kProducers)
                    for (const auto &frame : traffic[s].frames)
                        ASSERT_TRUE(eng.submit(frame));
            });
        }
        for (std::thread &producer : producers)
            producer.join();
        eng.drain();

        for (const ClientTraffic &client : traffic)
            EXPECT_EQ(eng.predictionsFor(client.id),
                      expected[client.id])
                << "workers=" << workers << " session "
                << client.id;

        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesRejected, 0u);
        EXPECT_EQ(stats.eventsProcessed, kSessions * 3000u);
        EXPECT_EQ(stats.sessionsCreated, kSessions);
        eng.shutdown();
    }
}

TEST(Engine, RejectsCorruptFramesAndKeepsServing)
{
    Engine eng(recordingConfig(2));

    const std::vector<ClientTraffic> traffic =
        makeTraffic(1, 1000, 100, 31);
    const ClientTraffic &client = traffic[0];

    for (std::size_t i = 0; i < client.frames.size(); ++i) {
        if (i % 2 == 1) {
            // Flip a payload byte: the header still routes, the
            // worker's CRC check rejects.
            std::vector<std::uint8_t> corrupt = client.frames[i];
            corrupt[corrupt.size() / 2] ^= 0x40;
            eng.submit(std::move(corrupt));
        } else {
            eng.submit(client.frames[i]);
        }
    }
    // A frame whose header does not parse is rejected at submit.
    EXPECT_FALSE(eng.submit({'X', 'Y', 1, 2, 3}));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, client.frames.size() + 1);
    EXPECT_EQ(stats.framesDecoded, client.frames.size() / 2);
    EXPECT_EQ(stats.framesRejected,
              client.frames.size() - client.frames.size() / 2 + 1);
    EXPECT_GT(stats.rejects.badCrc + stats.rejects.badPayload +
                  stats.rejects.truncated,
              0u);
    EXPECT_GT(stats.rejects.badMagic, 0u);
    // The intact frames were still served.
    EXPECT_EQ(stats.eventsProcessed,
              100u * (client.frames.size() -
                      client.frames.size() / 2));
    eng.shutdown();
}

TEST(Engine, EvictionCapHoldsUnderManySessions)
{
    EngineConfig config;
    config.workerThreads = 2;
    config.sessions.shardCount = 4;
    config.sessions.maxSessions = 16;
    Engine eng(config);

    PathEvent event;
    event.path = 1;
    event.head = 1;
    event.instructions = 10;
    for (std::uint64_t id = 1; id <= 200; ++id)
        ASSERT_TRUE(eng.submitEvents(id, 0, &event, 1));
    eng.drain();

    const EngineStats stats = eng.stats();
    // Per-shard cap is 16/4 = 4, so at most 16 stay resident.
    EXPECT_LE(stats.sessionsLive, 16u);
    EXPECT_EQ(stats.sessionsCreated, 200u);
    EXPECT_EQ(stats.sessionsCreated - stats.sessionsEvicted,
              stats.sessionsLive);
    eng.shutdown();
}

// Scaling contract: every worker count, the zero-copy producer path,
// and reused decode scratch must all be invisible in the outputs.

TEST(Engine, ScalingLadderBitIdentityUnderFaults)
{
    const std::size_t kSessions = 6;
    const std::vector<ClientTraffic> traffic =
        makeTraffic(kSessions, 2000, 50, 53);

    // A deterministic fault schedule: the injector draws on the
    // submit-order opportunity counter, so a single producer feeding
    // frames in a fixed order damages the same frames at every
    // worker count.
    const auto faultedConfig = [](std::size_t workers) {
        EngineConfig config = recordingConfig(workers);
        config.faults.seed = 7;
        config.faults.site(fault::Site::WireBitFlip).everyN = 5;
        config.faults.site(fault::Site::FrameDrop).everyN = 9;
        config.faults.site(fault::Site::FrameDelay).everyN = 11;
        return config;
    };

    // Serial reference.
    std::map<std::uint64_t, std::vector<PathIndex>> expected;
    EngineStats reference;
    {
        Engine serial(faultedConfig(0));
        for (const ClientTraffic &client : traffic)
            for (const auto &frame : client.frames)
                serial.submit(frame);
        serial.drain();
        for (const ClientTraffic &client : traffic)
            expected[client.id] = serial.predictionsFor(client.id);
        reference = serial.stats();
    }
    ASSERT_GT(reference.fault.injectedBitFlips, 0u);
    ASSERT_GT(reference.fault.injectedDrops, 0u);
    ASSERT_GT(reference.fault.injectedDelays, 0u);

    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        Engine eng(faultedConfig(workers));
        for (const ClientTraffic &client : traffic)
            for (const auto &frame : client.frames)
                eng.submit(frame);
        eng.drain();

        for (const ClientTraffic &client : traffic)
            EXPECT_EQ(eng.predictionsFor(client.id),
                      expected[client.id])
                << "workers=" << workers << " session "
                << client.id;

        // The whole fault ledger must be worker-count invariant,
        // not just the predictions.
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesDecoded, reference.framesDecoded)
            << "workers=" << workers;
        EXPECT_EQ(stats.framesRejected, reference.framesRejected)
            << "workers=" << workers;
        EXPECT_EQ(stats.eventsProcessed, reference.eventsProcessed)
            << "workers=" << workers;
        EXPECT_EQ(stats.predictions, reference.predictions)
            << "workers=" << workers;
        EXPECT_EQ(stats.fault.injectedBitFlips,
                  reference.fault.injectedBitFlips);
        EXPECT_EQ(stats.fault.injectedDrops,
                  reference.fault.injectedDrops);
        EXPECT_EQ(stats.fault.injectedDelays,
                  reference.fault.injectedDelays);
        EXPECT_EQ(stats.fault.delayedDelivered,
                  reference.fault.delayedDelivered);
        eng.shutdown();
    }
}

TEST(Engine, SubmitSharedMatchesSubmit)
{
    const std::vector<ClientTraffic> traffic =
        makeTraffic(4, 3000, 64, 61);

    // Reference: the copying submit path, serial.
    std::map<std::uint64_t, std::vector<PathIndex>> expected;
    {
        Engine serial(recordingConfig(0));
        for (const ClientTraffic &client : traffic)
            for (const auto &frame : client.frames)
                serial.submit(frame);
        for (const ClientTraffic &client : traffic)
            expected[client.id] = serial.predictionsFor(client.id);
    }

    // Zero-copy path: each session's frames concatenated into one
    // immutable shared buffer, submitted by slice.
    for (const std::size_t workers : {0u, 2u}) {
        Engine eng(recordingConfig(workers));
        std::uint64_t submitted = 0;
        for (const ClientTraffic &client : traffic) {
            std::vector<std::uint8_t> concat;
            std::vector<std::size_t> offsets;
            for (const auto &frame : client.frames) {
                offsets.push_back(concat.size());
                concat.insert(concat.end(), frame.begin(),
                              frame.end());
            }
            const auto shared = std::make_shared<
                const std::vector<std::uint8_t>>(std::move(concat));
            for (std::size_t i = 0; i < client.frames.size(); ++i) {
                ASSERT_TRUE(eng.submitShared(
                    shared, offsets[i], client.frames[i].size()));
                ++submitted;
            }
        }
        eng.drain();

        for (const ClientTraffic &client : traffic)
            EXPECT_EQ(eng.predictionsFor(client.id),
                      expected[client.id])
                << "workers=" << workers << " session "
                << client.id;
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesSubmitted, submitted);
        EXPECT_EQ(stats.framesDecoded, submitted);
        EXPECT_EQ(stats.framesRejected, 0u);
        eng.shutdown();
    }

    // A slice that is not a parseable frame is rejected up front.
    Engine eng(recordingConfig(0));
    const auto junk = std::make_shared<
        const std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{'X', 'Y', 1, 2, 3});
    EXPECT_FALSE(eng.submitShared(junk, 0, junk->size()));
}

TEST(Engine, DecodeScratchReuseIsStateless)
{
    // Workers decode every frame into one reused DecodedFrame; a
    // large frame followed by a small one must not leak the tail of
    // the earlier payload (or a different payload kind) into the
    // later decode.
    const std::vector<PathEvent> big = syntheticEvents(900, 71);
    const std::vector<PathEvent> small = syntheticEvents(3, 72);

    std::vector<std::uint8_t> big_frame;
    wire::appendEventFrame(big_frame, 1, 0, big);
    std::vector<std::uint8_t> small_frame;
    wire::appendEventFrame(small_frame, 1, 1, small);
    std::vector<std::uint8_t> prediction_frame;
    const std::vector<wire::PredictionRecord> records = {
        {9, 90}, {8, 80}, {7, 70}, {6, 60}, {5, 50}};
    wire::appendPredictionFrame(prediction_frame, 1, 2, records.data(),
                                records.size());

    wire::DecodedFrame scratch;
    std::size_t offset = 0;
    ASSERT_EQ(wire::decodeFrame(big_frame.data(), big_frame.size(),
                                offset, scratch),
              wire::DecodeStatus::Ok);
    ASSERT_EQ(scratch.events.size(), big.size());

    offset = 0;
    ASSERT_EQ(wire::decodeFrame(prediction_frame.data(),
                                prediction_frame.size(), offset,
                                scratch),
              wire::DecodeStatus::Ok);
    ASSERT_EQ(scratch.predictions.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(scratch.predictions[i].head, records[i].head);
        EXPECT_EQ(scratch.predictions[i].path, records[i].path);
    }
    EXPECT_TRUE(scratch.events.empty());

    offset = 0;
    ASSERT_EQ(wire::decodeFrame(small_frame.data(),
                                small_frame.size(), offset, scratch),
              wire::DecodeStatus::Ok);

    // Fresh-scratch decode is the reference.
    wire::DecodedFrame fresh;
    offset = 0;
    ASSERT_EQ(wire::decodeFrame(small_frame.data(),
                                small_frame.size(), offset, fresh),
              wire::DecodeStatus::Ok);
    ASSERT_EQ(scratch.events.size(), fresh.events.size());
    for (std::size_t i = 0; i < fresh.events.size(); ++i)
        EXPECT_TRUE(sameEvent(scratch.events[i], fresh.events[i]))
            << "event " << i;
    EXPECT_TRUE(scratch.predictions.empty());
    EXPECT_EQ(scratch.header.sequence, fresh.header.sequence);
}

TEST(Engine, ConcurrentMaintenanceStress)
{
    // Cross-thread maintenance (idle sweeps, export/import, stats)
    // hammering the stripes while multi-producer traffic flows
    // through the workers: the run must stay raceless (this test is
    // in the TSan CI job) and the frame ledger must still close.
    const std::size_t kSessions = 16;
    const std::vector<ClientTraffic> traffic =
        makeTraffic(kSessions, 1500, 32, 83);
    std::uint64_t total_frames = 0;
    for (const ClientTraffic &client : traffic)
        total_frames += client.frames.size();

    EngineConfig config;
    config.workerThreads = 4;
    config.queueCapacityFrames = 16;
    config.sessions.shardCount = 8;
    Engine eng(config);

    std::atomic<bool> done{false};
    std::thread maintenance([&] {
        std::uint64_t round = 0;
        while (!done.load(std::memory_order_relaxed)) {
            // Sweep aggressively: max_age 10 ticks guarantees real
            // evictions while the producers are mid-stream.
            eng.evictIdleSessions(10);
            const std::uint64_t id = 1 + (round % kSessions);
            wire::SessionState snapshot;
            if (eng.exportSession(id, snapshot))
                eng.importSession(id, snapshot);
            (void)eng.stats();
            (void)eng.predictionsFor(id);
            ++round;
        }
    });

    std::vector<std::thread> producers;
    const std::size_t kProducers = 4;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t s = p; s < traffic.size();
                 s += kProducers)
                for (const auto &frame : traffic[s].frames)
                    ASSERT_TRUE(eng.submit(frame));
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    eng.drain();
    done.store(true, std::memory_order_relaxed);
    maintenance.join();

    // A starved maintenance thread (single-core CI) may never have
    // swept mid-traffic; a final age-0 sweep makes the eviction
    // counter deterministic - everything but the most recently
    // active session goes.
    eng.evictIdleSessions(0);

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, total_frames);
    EXPECT_EQ(stats.framesRejected, 0u);
    EXPECT_EQ(stats.framesDecoded, total_frames);
    EXPECT_EQ(stats.fault.framesApplied, total_frames);
    EXPECT_EQ(stats.eventsProcessed, kSessions * 1500u);
    EXPECT_GT(stats.sessionsIdleEvicted, 0u);
    eng.shutdown();
}

TEST(Engine, BackpressureBoundsTheQueuesNotTheTraffic)
{
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 2;
    config.maxBatchFrames = 1;
    config.sessions.shardCount = 2;
    Engine eng(config);

    const std::vector<ClientTraffic> traffic =
        makeTraffic(2, 2000, 20, 41);
    for (const ClientTraffic &client : traffic)
        for (const auto &frame : client.frames)
            ASSERT_TRUE(eng.submit(frame));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.eventsProcessed, 2u * 2000u);
    for (const std::size_t hw : stats.queueHighWater)
        EXPECT_LE(hw, 2u);
    eng.shutdown();
}

TEST(Engine, QueueDepthReportsTheRingsRoundedCapacity)
{
    // A capacity of 5 rounds up to an 8-slot ring. With the worker
    // held in frame 0's callback, all 8 frames queued behind it fit,
    // and the depth gauges must say so.
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 5;
    config.sessions.shardCount = 2;
    Engine eng(config);

    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    eng.setFrameCallback([&](const FrameOutcome &outcome) {
        if (outcome.sequence != 0)
            return;
        started.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });

    const ClientTraffic client = makeTraffic(1, 9 * 16, 16, 43)[0];
    std::vector<std::uint8_t> concat;
    std::vector<std::size_t> offsets;
    for (const auto &frame : client.frames) {
        offsets.push_back(concat.size());
        concat.insert(concat.end(), frame.begin(), frame.end());
    }
    const auto shared =
        std::make_shared<const std::vector<std::uint8_t>>(
            std::move(concat));
    const auto submit = [&](std::size_t f) {
        return eng.trySubmitShared(shared, offsets[f],
                                   client.frames[f].size(), 0, 0,
                                   /*may_run_inline=*/false);
    };
    ASSERT_EQ(submit(0), SubmitStatus::Accepted);
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    for (std::size_t f = 1; f <= 8; ++f)
        EXPECT_EQ(submit(f), SubmitStatus::Accepted) << "frame " << f;

    const std::size_t shard = eng.sessions().shardOf(client.id);
    const EngineStats held = eng.stats();
    release.store(true, std::memory_order_release);
    eng.drain();
    EXPECT_EQ(held.queueHighWater[shard], 8u);
    EXPECT_EQ(held.queueDepth[shard], 8u);
    EXPECT_EQ(eng.stats().framesDecoded, 9u);
    eng.shutdown();
}

namespace
{

/** Serial single-thread reference predictions for `traffic`. */
std::map<std::uint64_t, std::vector<PathIndex>>
serialReference(const std::vector<ClientTraffic> &traffic)
{
    Engine serial(recordingConfig(0));
    for (const ClientTraffic &client : traffic)
        for (const auto &frame : client.frames)
            serial.submit(frame);
    std::map<std::uint64_t, std::vector<PathIndex>> expected;
    for (const ClientTraffic &client : traffic)
        expected[client.id] = serial.predictionsFor(client.id);
    return expected;
}

} // namespace

TEST(Engine, SerialModeConcurrentSubmittersOnDisjointShards)
{
    // Two submitters feeding a serial engine sessions on disjoint
    // shards each hold only their own shard's stripe lock, so any
    // decode scratch the engine shared between them would race
    // (this test is in the TSan CI job) and garble predictions.
    const std::vector<ClientTraffic> traffic =
        makeTraffic(8, 3000, 32, 71);
    const std::map<std::uint64_t, std::vector<PathIndex>> expected =
        serialReference(traffic);

    Engine eng(recordingConfig(0));
    ASSERT_TRUE(eng.serial());
    std::vector<std::size_t> mine[2];
    for (std::size_t s = 0; s < traffic.size(); ++s)
        mine[eng.sessions().shardOf(traffic[s].id) % 2].push_back(s);
    ASSERT_FALSE(mine[0].empty());
    ASSERT_FALSE(mine[1].empty());

    std::vector<std::thread> submitters;
    for (const std::vector<std::size_t> &sessions : mine) {
        submitters.emplace_back([&] {
            // Interleave the thread's sessions frame by frame.
            for (std::size_t f = 0;; ++f) {
                bool any = false;
                for (const std::size_t s : sessions) {
                    if (f >= traffic[s].frames.size())
                        continue;
                    any = true;
                    ASSERT_TRUE(eng.submit(traffic[s].frames[f]));
                }
                if (!any)
                    break;
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    eng.drain();

    for (const ClientTraffic &client : traffic)
        EXPECT_EQ(eng.predictionsFor(client.id), expected.at(client.id))
            << "session " << client.id;
    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesDecoded, stats.framesSubmitted);
    EXPECT_EQ(stats.framesInline, stats.framesSubmitted);
    EXPECT_EQ(stats.eventsProcessed, 8u * 3000u);
}

TEST(Engine, InlineAndQueuedFramesMatchSerial)
{
    // Trickle producers own shards nobody else feeds, so each of
    // their frames finds its shard idle and runs on the producer.
    // Three burst producers share two shards, so their frames keep
    // finding another frame in progress and queue for the workers.
    // Every session's predictions must still equal the serial
    // reference, whichever thread ran each frame.
    std::vector<ClientTraffic> traffic;
    std::vector<std::size_t> shardOf;
    {
        const Engine probe(recordingConfig(0));
        for (ClientTraffic &client : makeTraffic(40, 4800, 48, 97)) {
            const std::size_t shard =
                probe.sessions().shardOf(client.id);
            if (shard >= 4)
                continue;
            shardOf.push_back(shard);
            traffic.push_back(std::move(client));
        }
    }
    const std::map<std::uint64_t, std::vector<PathIndex>> expected =
        serialReference(traffic);

    // Producers 0 and 1 trickle into shards 0 and 1; producers 2-4
    // split the sessions of shards 2 and 3 round-robin.
    constexpr std::size_t kProducers = 5;
    std::vector<std::size_t> owned[kProducers];
    std::uint64_t trickle_frames = 0;
    std::size_t next_burst = 0;
    for (std::size_t s = 0; s < traffic.size(); ++s) {
        if (shardOf[s] < 2) {
            owned[shardOf[s]].push_back(s);
            trickle_frames += traffic[s].frames.size();
        } else {
            owned[2 + next_burst++ % 3].push_back(s);
        }
    }
    for (const std::vector<std::size_t> &sessions : owned)
        ASSERT_FALSE(sessions.empty());

    for (const std::size_t workers : {0u, 1u, 2u, 4u}) {
        Engine eng(recordingConfig(workers));
        // Hold the first burst frame's completion until a frame has
        // queued for a worker behind it (the shard stays claimed
        // while the callback runs), so every threaded run mixes
        // inline and worker-run frames.
        std::atomic<bool> held{false};
        if (workers > 0)
            eng.setFrameCallback([&](const FrameOutcome &outcome) {
                if (eng.sessions().shardOf(outcome.session) < 2 ||
                    held.exchange(true))
                    return;
                const auto deadline =
                    std::chrono::steady_clock::now() +
                    std::chrono::seconds(5);
                while (eng.stats().batches == 0 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            });
        std::atomic<std::size_t> ready{0};
        std::vector<std::thread> producers;
        for (std::size_t p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                // Start together, so the bursts overlap.
                ready.fetch_add(1);
                while (ready.load() < kProducers)
                    std::this_thread::yield();
                for (std::size_t f = 0;; ++f) {
                    bool any = false;
                    for (const std::size_t s : owned[p]) {
                        if (f >= traffic[s].frames.size())
                            continue;
                        any = true;
                        ASSERT_TRUE(eng.submit(traffic[s].frames[f]));
                        if (p < 2)
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(20));
                    }
                    if (!any)
                        break;
                }
            });
        }
        for (std::thread &producer : producers)
            producer.join();
        eng.drain();

        for (const ClientTraffic &client : traffic)
            EXPECT_EQ(eng.predictionsFor(client.id),
                      expected.at(client.id))
                << "workers=" << workers << " session " << client.id;
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesDecoded, stats.framesSubmitted)
            << "workers=" << workers;
        EXPECT_EQ(stats.eventsProcessed, traffic.size() * 4800u)
            << "workers=" << workers;
        EXPECT_GE(stats.framesInline, trickle_frames)
            << "workers=" << workers;
        EXPECT_LE(stats.framesInline, stats.framesSubmitted);
        if (workers > 0) {
            EXPECT_GT(stats.batches, 0u) << "workers=" << workers;
        }
        eng.shutdown();
    }
}

TEST(Engine, CallerCanKeepAFrameOffItsThread)
{
    // trySubmitShared(..., may_run_inline = false) hands a frame to
    // its shard's worker even when the shard is idle, for a caller
    // with more input waiting. A serial engine has no worker to hand
    // it to and runs every frame on the caller regardless.
    const std::vector<ClientTraffic> traffic = makeTraffic(4, 640, 32, 131);
    const std::map<std::uint64_t, std::vector<PathIndex>> expected =
        serialReference(traffic);

    for (const std::size_t workers : {0u, 2u}) {
        Engine eng(recordingConfig(workers));
        std::uint64_t frames = 0;
        for (const ClientTraffic &client : traffic) {
            for (const std::vector<std::uint8_t> &frame : client.frames) {
                const auto buffer =
                    std::make_shared<const std::vector<std::uint8_t>>(
                        frame);
                while (eng.trySubmitShared(buffer, 0, buffer->size(), 0,
                                           0, /*may_run_inline=*/false) ==
                       SubmitStatus::Backpressure)
                    std::this_thread::yield();
                ++frames;
            }
        }
        eng.drain();

        for (const ClientTraffic &client : traffic)
            EXPECT_EQ(eng.predictionsFor(client.id),
                      expected.at(client.id))
                << "workers=" << workers << " session " << client.id;
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesDecoded, frames) << "workers=" << workers;
        EXPECT_EQ(stats.framesInline, workers == 0 ? frames : 0u)
            << "workers=" << workers;
        eng.shutdown();
    }
}

TEST(Engine, InlineNeverOvertakesAFrameAWorkerPopped)
{
    // The worker keeps its batch counted on the shard until the batch
    // is done, not just until the pop, so a frame popped but not yet
    // processed still keeps the next frame of its session off the
    // inline path. Staged with blocking completions on one worker:
    //  1. Y0 runs inline and parks in its callback, holding shard S;
    //     the callback first queues V0 (another shard) for the worker,
    //     whose own callback then parks the worker.
    //  2. W0 and X0 queue on the held shard S; Y0 finishes.
    //  3. The worker pops W0 and X0 in one batch and parks in W0's
    //     callback, X0 still unprocessed.
    //  4. X1 must queue behind X0 instead of running inline.
    EngineConfig config = recordingConfig(1);
    config.sessions.shardCount = 2;
    Engine eng(config);
    const std::vector<ClientTraffic> traffic = makeTraffic(8, 64, 32, 5);
    const std::size_t s = eng.sessions().shardOf(traffic[0].id);
    std::vector<const ClientTraffic *> same;
    const ClientTraffic *v = nullptr;
    for (const ClientTraffic &client : traffic) {
        if (eng.sessions().shardOf(client.id) == s)
            same.push_back(&client);
        else if (v == nullptr)
            v = &client;
    }
    ASSERT_GE(same.size(), 3u);
    ASSERT_NE(v, nullptr);
    const ClientTraffic &y = *same[0];
    const ClientTraffic &w = *same[1];
    const ClientTraffic &x = *same[2];
    const auto waitFor = [](const auto &done) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!done() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        return done();
    };

    // Each parked callback announces itself, then waits for release.
    struct Park
    {
        std::atomic<bool> parked{false};
        std::atomic<bool> released{false};
        void
        hold()
        {
            parked.store(true);
            while (!released.load())
                std::this_thread::yield();
        }
    };
    Park y_park;
    Park v_park;
    Park w_park;
    eng.setFrameCallback([&](const FrameOutcome &outcome) {
        if (outcome.session == y.id) {
            eng.submit(v->frames[0]);
            y_park.hold();
        } else if (outcome.session == v->id) {
            v_park.hold();
        } else if (outcome.session == w.id) {
            w_park.hold();
        }
    });

    std::thread claimer([&] { eng.submit(y.frames[0]); });
    ASSERT_TRUE(waitFor([&] { return y_park.parked && v_park.parked; }));
    ASSERT_TRUE(eng.submit(w.frames[0]));
    ASSERT_TRUE(eng.submit(x.frames[0]));
    y_park.released.store(true);
    claimer.join();
    v_park.released.store(true);
    ASSERT_TRUE(waitFor([&] { return w_park.parked.load(); }));

    ASSERT_TRUE(eng.submit(x.frames[1]));
    EXPECT_EQ(eng.stats().framesInline, 1u); // Y0 only
    w_park.released.store(true);
    eng.drain();

    Engine reference(recordingConfig(0));
    reference.submit(x.frames[0]);
    reference.submit(x.frames[1]);
    EXPECT_EQ(eng.predictionsFor(x.id), reference.predictionsFor(x.id));
    EXPECT_EQ(eng.stats().framesInline, 1u);
    eng.shutdown();
}

TEST(Engine, InlineClosedLoopIteratesInsteadOfRecursing)
{
    // A closed loop started from a non-worker thread: each
    // completion submits the session's next frame from inside the
    // callback. Inline runs never nest, so the loop either moves to
    // the ring (threaded) or iterates on the first submitter
    // (serial); either way the callback's stack depth stays flat
    // across 10,000 frames, and the ledger closes.
    constexpr std::size_t kFrames = 10000;
    const std::vector<ClientTraffic> traffic =
        makeTraffic(1, kFrames * 4, 4, 113);
    const ClientTraffic &client = traffic[0];
    ASSERT_EQ(client.frames.size(), kFrames);
    const std::map<std::uint64_t, std::vector<PathIndex>> expected =
        serialReference(traffic);

    for (const std::size_t workers : {0u, 1u, 2u}) {
        Engine eng(recordingConfig(workers));
        std::size_t next = 0;
        std::atomic<std::size_t> answered{0};
        // Deepest stack extent any callback reached below the first
        // callback seen on its thread.
        std::atomic<std::size_t> max_depth{0};
        eng.setFrameCallback([&](const FrameOutcome &) {
            thread_local std::uintptr_t base = 0;
            const char marker = 0;
            const auto here = reinterpret_cast<std::uintptr_t>(&marker);
            if (base == 0 || here > base)
                base = here;
            const std::size_t depth = base - here;
            if (depth > max_depth.load(std::memory_order_relaxed))
                max_depth.store(depth, std::memory_order_relaxed);
            if (++next < kFrames) {
                ASSERT_TRUE(eng.submit(client.frames[next]));
            }
            answered.fetch_add(1, std::memory_order_release);
        });
        ASSERT_TRUE(eng.submit(client.frames[0]));
        while (answered.load(std::memory_order_acquire) < kFrames)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        eng.drain();

        EXPECT_LT(max_depth.load(), std::size_t{64} << 10)
            << "workers=" << workers;
        EXPECT_EQ(eng.predictionsFor(client.id), expected.at(client.id))
            << "workers=" << workers;
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesSubmitted, kFrames);
        EXPECT_EQ(stats.framesDecoded, kFrames);
        EXPECT_EQ(stats.fault.framesApplied, kFrames);
        EXPECT_EQ(stats.eventsProcessed, kFrames * 4);
        // Serial mode runs every frame inline; a threaded engine
        // only the first, which the test thread submitted.
        EXPECT_EQ(stats.framesInline, workers == 0 ? kFrames : 1u)
            << "workers=" << workers;
        eng.shutdown();
    }
}
