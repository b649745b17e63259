/**
 * @file
 * Serving-layer tests: streaming frame-boundary resync, loopback
 * byte-identity between TCP and in-process serving, torn-frame
 * reassembly, corrupt-stream resync on a live connection, injected
 * partial writes and connection resets, abrupt client death
 * mid-batch, half-closed clients (FIN with the last frame or after
 * the replies), graceful drain, client connect backoff, completion
 * replies for frames the engine rejects at decode (bad CRC, wrong
 * kind), client-side resync past corrupt replies, and the admin introspection endpoint
 * (/metrics, /healthz across drain, /stats, malformed-request
 * survival).
 *
 * Every server here binds an ephemeral loopback port, so tests run
 * in parallel without port collisions.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "net/admin_endpoint.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "telemetry/telemetry.hh"

using namespace hotpath;
using namespace hotpath::engine;

namespace
{

/** Loop-heavy deterministic event frames for one session (the same
 *  shape the engine determinism tests replay). */
std::vector<std::vector<std::uint8_t>>
makeFrames(std::uint64_t session, std::size_t frames,
           std::size_t events_per_frame)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t f = 0; f < frames; ++f) {
        std::vector<PathEvent> events;
        for (std::size_t i = 0; i < events_per_frame; ++i) {
            const std::uint32_t loop = static_cast<std::uint32_t>(
                (f * events_per_frame + i + session) % 8);
            PathEvent event;
            event.path = loop * 10;
            event.head = loop;
            event.blocks = 4 + loop;
            event.branches = 3 + loop;
            event.instructions = 30 + 5 * loop;
            events.push_back(event);
        }
        std::vector<std::uint8_t> frame;
        wire::appendEventFrame(frame, session, f, events);
        out.push_back(std::move(frame));
    }
    return out;
}

/** Engine config that records per-session predictions, so TCP
 *  results can be compared with Engine::predictionsFor(). */
EngineConfig
recordingConfig(std::size_t workers)
{
    EngineConfig config;
    config.workerThreads = workers;
    config.sessions.shardCount = 8;
    config.sessions.session.predictionDelay = 13;
    config.sessions.session.recordPredictions = true;
    return config;
}

/** Server config tuned for fast tests (short maintenance tick). */
net::ServerConfig
testServerConfig()
{
    net::ServerConfig config;
    config.tickMs = 2;
    config.reactorThreads = 2;
    return config;
}

/** The predicted path ids a client received for one session, in
 *  sequence order. */
std::vector<PathIndex>
clientPaths(const std::vector<net::PredictionReply> &replies,
            std::uint64_t session)
{
    std::vector<const net::PredictionReply *> mine;
    for (const auto &reply : replies)
        if (reply.session == session)
            mine.push_back(&reply);
    std::sort(mine.begin(), mine.end(),
              [](const auto *a, const auto *b) {
                  return a->sequence < b->sequence;
              });
    std::vector<PathIndex> paths;
    for (const auto *reply : mine)
        for (const auto &record : reply->predictions)
            paths.push_back(record.path);
    return paths;
}

} // namespace

// --- wire::findFrameBoundary (streaming resync) -------------------

TEST(FrameBoundary, FindsCompleteFrameAfterGarbage)
{
    std::vector<std::uint8_t> buffer(37, 0xAB);
    std::vector<std::uint8_t> frame;
    const auto frames = makeFrames(7, 1, 32);
    buffer.insert(buffer.end(), frames[0].begin(), frames[0].end());

    bool complete = false;
    const std::size_t at = wire::findFrameBoundary(
        buffer.data(), buffer.size(), 0, &complete);
    EXPECT_TRUE(complete);
    EXPECT_EQ(at, 37u);
}

TEST(FrameBoundary, ReportsTruncatedTailAsIncomplete)
{
    const auto frames = makeFrames(7, 1, 32);
    std::vector<std::uint8_t> buffer(11, 0xCD);
    // Append only a prefix of a valid frame: still arriving.
    buffer.insert(buffer.end(), frames[0].begin(),
                  frames[0].end() - 5);

    bool complete = true;
    const std::size_t at = wire::findFrameBoundary(
        buffer.data(), buffer.size(), 0, &complete);
    EXPECT_FALSE(complete);
    EXPECT_EQ(at, 11u);
}

TEST(FrameBoundary, PureGarbageConsumesWholeBuffer)
{
    // 0xAB never matches the 'H' magic, so nothing is plausible.
    const std::vector<std::uint8_t> buffer(64, 0xAB);
    bool complete = true;
    const std::size_t at = wire::findFrameBoundary(
        buffer.data(), buffer.size(), 0, &complete);
    EXPECT_FALSE(complete);
    EXPECT_EQ(at, buffer.size());
}

// --- loopback serving ---------------------------------------------

TEST(NetServer, LoopbackMatchesInProcessByteForByte)
{
    constexpr std::size_t kSessions = 6;
    constexpr std::size_t kFramesPerSession = 24;
    constexpr std::size_t kEventsPerFrame = 96;

    Engine served(recordingConfig(2));
    net::Server server(served, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // The reference engine replays the identical workload without a
    // network in the way.
    Engine reference(recordingConfig(2));

    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions; ++session) {
        const auto frames =
            makeFrames(session, kFramesPerSession, kEventsPerFrame);
        for (const auto &frame : frames) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
    }
    reference.drain();

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(sent, replies));
    ASSERT_EQ(replies.size(), sent);

    for (std::uint64_t session = 1; session <= kSessions; ++session) {
        const std::vector<PathIndex> overTcp =
            clientPaths(replies, session);
        EXPECT_EQ(overTcp, served.predictionsFor(session))
            << "session " << session
            << ": TCP replies disagree with the serving engine";
        EXPECT_EQ(overTcp, reference.predictionsFor(session))
            << "session " << session
            << ": TCP serving disagrees with in-process replay";
        EXPECT_FALSE(overTcp.empty());
    }

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.framesIn, sent);
    EXPECT_EQ(stats.responsesOut, sent);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(stats.framesResynced, 0u);
}

TEST(NetServer, ReassemblesTornFrames)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // Deliver every frame in 7-byte slivers; the server must
    // reassemble across read() calls.
    const auto frames = makeFrames(3, 8, 64);
    for (const auto &frame : frames) {
        for (std::size_t off = 0; off < frame.size(); off += 7) {
            const std::size_t len =
                std::min<std::size_t>(7, frame.size() - off);
            ASSERT_TRUE(client.sendFrame(frame.data() + off, len));
        }
    }

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(replies.size(), frames.size());
    EXPECT_EQ(clientPaths(replies, 3), eng.predictionsFor(3));

    server.stop();
    EXPECT_EQ(server.stats().framesIn, frames.size());
}

TEST(NetServer, ResyncsPastCorruptBytesOnTheWire)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // Interleave valid frames with garbage runs (no 'H' bytes, so
    // the resync scan cannot stall on a fake magic).
    const auto frames = makeFrames(5, 6, 64);
    const std::vector<std::uint8_t> garbage(23, 0xAB);
    for (const auto &frame : frames) {
        ASSERT_TRUE(
            client.sendFrame(garbage.data(), garbage.size()));
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    }

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(clientPaths(replies, 5), eng.predictionsFor(5));

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.framesIn, frames.size());
    EXPECT_GT(stats.framesResynced, 0u);
    EXPECT_GT(stats.resyncBytesSkipped, 0u);
}

TEST(NetServer, SurvivesInjectedPartialWrites)
{
    Engine eng(recordingConfig(2));
    net::ServerConfig serverCfg = testServerConfig();
    serverCfg.faults.site(fault::Site::SockPartialWrite).everyN = 1;
    net::Server server(eng, serverCfg);
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(9, 12, 64);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));

    // Every reply is split into a prefix + deferred remainder, yet
    // arrives intact and CRC-clean.
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(clientPaths(replies, 9), eng.predictionsFor(9));
    EXPECT_EQ(client.stats().resyncs, 0u);

    server.stop();
    ASSERT_NE(server.faultInjector(), nullptr);
    EXPECT_GT(server.faultInjector()
                  ->counters(fault::Site::SockPartialWrite)
                  .injected,
              0u);
}

TEST(NetServer, InjectedResetDropsTheConnection)
{
    Engine eng(recordingConfig(2));
    net::ServerConfig serverCfg = testServerConfig();
    serverCfg.faults.site(fault::Site::ConnReset).everyN = 1;
    net::Server server(eng, serverCfg);
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    clientCfg.responseTimeoutMs = 2000;
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(2, 1, 32);
    client.sendFrame(frames[0].data(), frames[0].size());

    // The first read event on the connection injects a reset, so no
    // reply ever comes and the socket dies.
    std::vector<net::PredictionReply> replies;
    EXPECT_FALSE(client.awaitResponses(1, replies));

    server.stop();
    EXPECT_GT(server.stats().resets, 0u);
}

TEST(NetServer, InjectedAcceptFailRefusesTheConnection)
{
    Engine eng(recordingConfig(2));
    net::ServerConfig serverCfg = testServerConfig();
    serverCfg.faults.site(fault::Site::AcceptFail).everyN = 1;
    net::Server server(eng, serverCfg);
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    clientCfg.responseTimeoutMs = 2000;
    net::Client client(clientCfg);
    // The TCP handshake completes via the backlog, but the server
    // closes the socket straight out of accept().
    ASSERT_TRUE(client.connect());

    std::vector<net::PredictionReply> replies;
    EXPECT_LE(client.poll(replies, 1000), 0);

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_GT(stats.acceptFailures, 0u);
    EXPECT_EQ(stats.accepted, 0u);
}

TEST(NetServer, SurvivesClientDeathMidBatch)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();

    // Client A sends half a frame and vanishes.
    {
        net::Client dying(clientCfg);
        ASSERT_TRUE(dying.connect());
        const auto frames = makeFrames(11, 1, 64);
        ASSERT_TRUE(
            dying.sendFrame(frames[0].data(), frames[0].size() / 2));
        dying.close();
    }

    // Client B's full workload is unaffected.
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    const auto frames = makeFrames(12, 8, 64);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(clientPaths(replies, 12), eng.predictionsFor(12));

    client.close();
    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.closed, 2u);
    EXPECT_EQ(stats.framesIn, frames.size());
}

namespace
{

/** Read `fd` until the peer closes or `deadline_ms` passes; returns
 *  the bytes read and sets `eof` when the close was seen. */
std::vector<std::uint8_t>
readUntilClose(int fd, int deadline_ms, bool &eof)
{
    std::vector<std::uint8_t> bytes;
    eof = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    std::uint8_t buf[4096];
    while (std::chrono::steady_clock::now() < deadline) {
        const ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got > 0) {
            bytes.insert(bytes.end(), buf, buf + got);
            continue;
        }
        if (got == 0) {
            eof = true;
            break;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            break;
        pollfd pfd{fd, POLLIN, 0};
        ::poll(&pfd, 1, 10);
    }
    return bytes;
}

/** Sequence numbers of the Predictions frames in `bytes` for
 *  `session`, in arrival order. */
std::vector<std::uint64_t>
replySequences(const std::vector<std::uint8_t> &bytes,
               std::uint64_t session)
{
    std::vector<std::uint64_t> sequences;
    std::size_t off = 0;
    wire::FrameHeader header;
    std::size_t end = 0;
    while (wire::peekFrameHeader(bytes.data(), bytes.size(), off, header,
                                 end) == wire::DecodeStatus::Ok) {
        if (header.kind == wire::FrameKind::Predictions &&
            header.session == session)
            sequences.push_back(header.sequence);
        off = end;
    }
    return sequences;
}

} // namespace

TEST(NetServer, AnswersAndClosesHalfClosedClients)
{
    // The reactor stops reading at a short read unless the event
    // reported the peer's FIN. A client whose last frame and FIN
    // share one segment (TCP_CORK holds the bytes until the
    // half-close) must still be answered and closed, and so must one
    // that half-closes only after its replies arrived - whether the
    // engine runs the frames inline (serial) or on workers.
    for (const std::size_t workers : {0u, 2u}) {
        for (const bool same_segment : {true, false}) {
            Engine eng(recordingConfig(workers));
            net::Server server(eng, testServerConfig());
            ASSERT_TRUE(server.start());

            const std::uint64_t session = same_segment ? 31 : 32;
            const auto frames = makeFrames(session, 6, 64);
            std::vector<std::uint8_t> stream;
            for (const auto &frame : frames)
                stream.insert(stream.end(), frame.begin(), frame.end());

            net::Fd fd = net::connectTcp("127.0.0.1", server.port());
            ASSERT_TRUE(fd.valid());
            const int on = 1;
            if (same_segment) {
                ASSERT_EQ(::setsockopt(fd.get(), IPPROTO_TCP, TCP_CORK,
                                       &on, sizeof(on)),
                          0);
            }
            ASSERT_EQ(::write(fd.get(), stream.data(), stream.size()),
                      static_cast<ssize_t>(stream.size()));
            std::vector<std::uint8_t> replies;
            if (!same_segment) {
                // Wait for every reply before half-closing.
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(5);
                while (replySequences(replies, session).size() <
                           frames.size() &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::uint8_t buf[4096];
                    const ssize_t got = ::read(fd.get(), buf, sizeof(buf));
                    if (got > 0) {
                        replies.insert(replies.end(), buf, buf + got);
                        continue;
                    }
                    pollfd pfd{fd.get(), POLLIN, 0};
                    ::poll(&pfd, 1, 10);
                }
                ASSERT_EQ(replySequences(replies, session).size(),
                          frames.size());
            }
            ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);

            bool eof = false;
            const std::vector<std::uint8_t> rest =
                readUntilClose(fd.get(), 5000, eof);
            replies.insert(replies.end(), rest.begin(), rest.end());
            EXPECT_TRUE(eof) << "workers=" << workers
                             << " same_segment=" << same_segment;
            const std::vector<std::uint64_t> expected = {0, 1, 2,
                                                         3, 4, 5};
            EXPECT_EQ(replySequences(replies, session), expected)
                << "workers=" << workers
                << " same_segment=" << same_segment;

            server.stop();
            const net::NetStats stats = server.stats();
            EXPECT_EQ(stats.framesIn, frames.size());
            EXPECT_EQ(stats.responsesOut, frames.size());
            EXPECT_EQ(stats.closed, stats.accepted);
        }
    }
}

TEST(NetServer, PipelinedFramesInOneReadGoToTheWorkers)
{
    // Frames that arrive together leave the reactor more input to
    // parse, so every frame but the one that ends the read goes to
    // its shard's worker. Sixteen frames of one session sent as one
    // segment (TCP_CORK, then the half-close) therefore run on the
    // reactor at most once; a serial engine, which has no workers,
    // still runs all of them there.
    for (const std::size_t workers : {0u, 2u}) {
        Engine eng(recordingConfig(workers));
        net::Server server(eng, testServerConfig());
        ASSERT_TRUE(server.start());

        const std::uint64_t session = 41;
        const auto frames = makeFrames(session, 16, 64);
        std::vector<std::uint8_t> stream;
        for (const auto &frame : frames)
            stream.insert(stream.end(), frame.begin(), frame.end());

        net::Fd fd = net::connectTcp("127.0.0.1", server.port());
        ASSERT_TRUE(fd.valid());
        const int on = 1;
        ASSERT_EQ(::setsockopt(fd.get(), IPPROTO_TCP, TCP_CORK, &on,
                               sizeof(on)),
                  0);
        ASSERT_EQ(::write(fd.get(), stream.data(), stream.size()),
                  static_cast<ssize_t>(stream.size()));
        ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);

        bool eof = false;
        const std::vector<std::uint8_t> replies =
            readUntilClose(fd.get(), 5000, eof);
        EXPECT_TRUE(eof) << "workers=" << workers;
        std::vector<std::uint64_t> expected;
        for (std::uint64_t seq = 0; seq < frames.size(); ++seq)
            expected.push_back(seq);
        EXPECT_EQ(replySequences(replies, session), expected)
            << "workers=" << workers;

        server.stop();
        const EngineStats stats = eng.stats();
        EXPECT_EQ(stats.framesDecoded, frames.size());
        if (workers == 0) {
            EXPECT_EQ(stats.framesInline, frames.size());
        } else {
            EXPECT_LE(stats.framesInline, 1u);
        }
    }
}

TEST(NetServer, GracefulDrainAnswersEveryAcceptedFrame)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(4, 16, 96);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));

    // Drain: every frame the server accepted must be answered and
    // flushed before drain() returns.
    server.drain();
    const net::NetStats afterDrain = server.stats();
    EXPECT_EQ(afterDrain.framesIn, frames.size());
    EXPECT_EQ(afterDrain.responsesOut, frames.size());

    // The replies are already in our socket; no further server work.
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(clientPaths(replies, 4), eng.predictionsFor(4));
    server.stop();
}

TEST(NetServer, IdleConnectionsAreSweptClosed)
{
    Engine eng(recordingConfig(2));
    net::ServerConfig serverCfg = testServerConfig();
    serverCfg.idleTimeoutTicks = 3;
    net::Server server(eng, serverCfg);
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // Say nothing; the idle sweep (3 ticks x 2 ms) reaps us.
    std::vector<net::PredictionReply> replies;
    for (int i = 0; i < 100 && client.connected(); ++i)
        client.poll(replies, 20);
    EXPECT_FALSE(client.connected());

    server.stop();
    EXPECT_GT(server.stats().idleClosed, 0u);
}

TEST(NetServer, CrcCorruptFrameStillGetsAnEmptyReply)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // Corrupt the CRC of an otherwise valid frame: the header still
    // parses, so the server submits it and the engine rejects it at
    // decode. The frame must still be answered (empty predictions),
    // or the connection's in-flight count would never drain and the
    // connection would leak until stop().
    const auto frames = makeFrames(21, 2, 32);
    std::vector<std::uint8_t> corrupt = frames[0];
    corrupt.back() ^= 0xFF;
    ASSERT_TRUE(client.sendFrame(corrupt.data(), corrupt.size()));
    ASSERT_TRUE(
        client.sendFrame(frames[1].data(), frames[1].size()));

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(2, replies));
    ASSERT_EQ(replies.size(), 2u);
    std::sort(replies.begin(), replies.end(),
              [](const auto &a, const auto &b) {
                  return a.sequence < b.sequence;
              });
    EXPECT_EQ(replies[0].session, 21u);
    EXPECT_EQ(replies[0].sequence, 0u);
    EXPECT_TRUE(replies[0].predictions.empty());
    EXPECT_EQ(replies[1].sequence, 1u);

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.framesIn, 2u);
    EXPECT_EQ(stats.responsesOut, 2u);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(eng.stats().rejects.badCrc, 1u);
}

TEST(NetServer, NonEventFrameKindStillGetsAnEmptyReply)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // A Predictions frame is header-valid and CRC-clean, so the
    // server submits it; the engine consumes only PathEvents frames
    // and must answer the wrong kind instead of swallowing it.
    std::vector<std::uint8_t> frame;
    wire::appendPredictionFrame(frame, 33, 7, nullptr, 0);
    ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(1, replies));
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].session, 33u);
    EXPECT_EQ(replies[0].sequence, 7u);
    EXPECT_TRUE(replies[0].predictions.empty());

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.framesIn, 1u);
    EXPECT_EQ(stats.responsesOut, 1u);
    EXPECT_EQ(eng.stats().rejects.badKind, 1u);
}

TEST(NetClient, ResyncsPastCorruptReplies)
{
    // A raw peer answers with garbage, a good reply, the same reply
    // with a broken CRC, and another good reply - all in one send.
    // The client delivers the two good replies and resyncs past the
    // garbage and the damaged reply, counting exactly their bytes.
    std::uint16_t port = 0;
    net::Fd listener = net::listenTcp("127.0.0.1", 0, &port);
    ASSERT_TRUE(listener.valid());
    net::ClientConfig clientCfg;
    clientCfg.port = port;
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    const net::Fd peer(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(peer.valid());

    const wire::PredictionRecord record{3, 7};
    std::vector<std::uint8_t> stream(17, 0xAB);
    wire::appendPredictionFrame(stream, 9, 1, &record, 1);
    std::vector<std::uint8_t> broken;
    wire::appendPredictionFrame(broken, 9, 2, &record, 1);
    broken.back() ^= 0xFF; // last CRC byte
    ASSERT_EQ(broken.size(), 13u);
    stream.insert(stream.end(), broken.begin(), broken.end());
    wire::appendPredictionFrame(stream, 9, 3, &record, 1);
    ASSERT_EQ(::send(peer.get(), stream.data(), stream.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()));

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(2, replies));
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(replies[0].sequence, 1u);
    EXPECT_EQ(replies[1].sequence, 3u);
    EXPECT_EQ(client.stats().resyncs, 2u);
    EXPECT_EQ(client.stats().resyncBytesSkipped, 30u);
}

TEST(NetClient, ConnectBacksOffAndGivesUp)
{
    // Bind a listener only to learn a port that is then closed, so
    // nothing is listening when the client retries.
    std::uint16_t port = 0;
    {
        net::Fd probe = net::listenTcp("127.0.0.1", 0, &port);
        ASSERT_TRUE(probe.valid());
    }

    net::ClientConfig clientCfg;
    clientCfg.port = port;
    clientCfg.connectAttempts = 3;
    clientCfg.retryBaseMs = 1;
    net::Client client(clientCfg);
    EXPECT_FALSE(client.connect());
    EXPECT_EQ(client.stats().connectRetries, 2u);
}

// --- admin introspection endpoint ---------------------------------

namespace
{

/** One raw request against the admin port: the full HTTP response
 *  (the server closes after every response); "" means
 *  connect/write/read failed. */
std::string
adminRequest(std::uint16_t port, const std::string &request)
{
    return net::httpRequest("127.0.0.1", port, request, 2000);
}

net::ServerConfig
adminServerConfig()
{
    net::ServerConfig config = testServerConfig();
    config.adminPort = 0; // ephemeral, like the data port
    return config;
}

} // namespace

TEST(AdminEndpoint, ServesMetricsHealthzAndStats)
{
    // Attach telemetry first so every instrument - including the
    // net.stage.* histograms the SpanRecorder registers eagerly -
    // lands in the registry that /metrics snapshots.
    telemetry::TelemetrySession session("");
    Engine eng(recordingConfig(2));
    net::ServerConfig serverCfg = adminServerConfig();
    serverCfg.spanSampleEvery = 2;
    net::Server server(eng, serverCfg);
    ASSERT_TRUE(server.start());
    ASSERT_NE(server.adminPort(), 0);

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    const auto frames = makeFrames(9, 16, 32);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));

    const std::string health = adminRequest(
        server.adminPort(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

    // /metrics: Prometheus text with dotted names flattened, TYPE
    // comments, and every observability-plane instrument present -
    // stage histograms, per-shard/per-worker engine instruments, and
    // the striped-lock wait histogram - even where counts are zero.
    const std::string metrics = adminRequest(
        server.adminPort(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    for (const char *name :
         {"net_stage_read_ns", "net_stage_decode_ns",
          "net_stage_queue_wait_ns", "net_stage_predict_ns",
          "net_stage_encode_ns", "net_stage_write_flush_ns"}) {
        EXPECT_NE(metrics.find(std::string("# TYPE ") + name +
                               " histogram"),
                  std::string::npos)
            << name;
        EXPECT_NE(metrics.find(std::string(name) + "_count"),
                  std::string::npos)
            << name;
    }
    for (const char *name :
         {"engine_frames_decoded", "engine_shard_0_queue_depth",
          "engine_shard_0_backpressure_waits",
          "engine_worker_0_busy_ns", "engine_worker_0_idle_ns",
          "engine_table_lock_wait_ns", "net_frames_in"}) {
        EXPECT_NE(metrics.find(name), std::string::npos) << name;
    }

    // /stats: the flat JSON engine_top scans. Spot-check counters
    // against ground truth and the span sampler's bookkeeping.
    const std::string stats = adminRequest(
        server.adminPort(), "GET /stats HTTP/1.0\r\n\r\n");
    EXPECT_NE(stats.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(stats.find("application/json"), std::string::npos);
    EXPECT_NE(stats.find("\"net_frames_in\":" +
                         std::to_string(frames.size())),
              std::string::npos);
    EXPECT_NE(stats.find("\"span_sample_every\":2"),
              std::string::npos);
    EXPECT_NE(stats.find("\"span_frames_seen\":" +
                         std::to_string(frames.size())),
              std::string::npos);
    EXPECT_NE(stats.find("\"stage_decode_count\":"),
              std::string::npos);
    EXPECT_NE(stats.find("\"engine_worker_busy_ns\":["),
              std::string::npos);

    const std::string missing = adminRequest(
        server.adminPort(), "GET /nonsense HTTP/1.0\r\n\r\n");
    EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"),
              std::string::npos);

    server.stop();

    // The sampler's pipeline conservation: every sampled frame that
    // decoded also finished predict, encode, and write-flush.
    const telemetry::SpanRecorder &spans = server.spanRecorder();
    EXPECT_EQ(spans.framesSeen(), frames.size());
    const std::uint64_t decoded =
        spans.totals(telemetry::Stage::Decode).count;
    EXPECT_GT(decoded, 0u);
    EXPECT_EQ(spans.totals(telemetry::Stage::Predict).count,
              decoded);
    EXPECT_EQ(spans.totals(telemetry::Stage::Encode).count,
              decoded);
    EXPECT_EQ(spans.totals(telemetry::Stage::WriteFlush).count,
              decoded);
}

TEST(AdminEndpoint, HealthzReportsDrainState)
{
    Engine eng(recordingConfig(1));
    net::Server server(eng, adminServerConfig());
    ASSERT_TRUE(server.start());

    const std::string before = adminRequest(
        server.adminPort(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(before.find("HTTP/1.0 200 OK"), std::string::npos);

    // The admin plane keeps serving through (and after) drain; the
    // drained server reports 503 until stop() tears it down.
    server.drain();
    const std::string after = adminRequest(
        server.adminPort(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(after.find("HTTP/1.0 503 Service Unavailable"),
              std::string::npos);
    EXPECT_NE(after.find("draining"), std::string::npos);

    server.stop();
}

TEST(AdminEndpoint, SurvivesMalformedRequests)
{
    Engine eng(recordingConfig(1));
    net::Server server(eng, adminServerConfig());
    ASSERT_TRUE(server.start());

    const std::string bogus = adminRequest(
        server.adminPort(), "DELETE /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(bogus.find("HTTP/1.0 400 Bad Request"),
              std::string::npos);

    const std::string garbage =
        adminRequest(server.adminPort(), "\x01\x02garbage\r\n\r\n");
    EXPECT_NE(garbage.find("HTTP/1.0 400 Bad Request"),
              std::string::npos);

    // And the endpoint still answers a well-formed request after.
    const std::string health = adminRequest(
        server.adminPort(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);

    server.stop();
}

TEST(AdminEndpoint, RouteTableAnswersByteForByte)
{
    // The exact bytes every admin response is made of: status line,
    // Content-Type by route, Content-Length and Connection: close.
    std::atomic<bool> draining{false};
    net::AdminEndpoint admin(
        {{"/stats", "application/json",
          [] { return std::string("{\"n\":1}"); }}},
        draining);
    EXPECT_EQ(admin.port(), 0u);

    const auto response = [](const std::string &status,
                             const std::string &type,
                             const std::string &body) {
        return "HTTP/1.0 " + status + "\r\nContent-Type: " + type +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
    };
    const std::string plain = "text/plain; charset=utf-8";
    EXPECT_EQ(admin.respond("GET /stats HTTP/1.0\r\n\r\n"),
              response("200 OK", "application/json", "{\"n\":1}"));
    EXPECT_EQ(admin.respond("GET /healthz HTTP/1.0\r\n"),
              response("200 OK", plain, "ok\n"));
    EXPECT_EQ(admin.respond("GET /topology HTTP/1.0\r\n"),
              response("404 Not Found", plain, "not found\n"));
    EXPECT_EQ(admin.respond("POST /stats HTTP/1.0\r\n"),
              response("400 Bad Request", plain, "bad request\n"));
    // A path with no terminator never finished arriving.
    EXPECT_EQ(admin.respond("GET /stats"),
              response("400 Bad Request", plain, "bad request\n"));
    EXPECT_EQ(admin.respond("GET  HTTP/1.0\r\n"),
              response("400 Bad Request", plain, "bad request\n"));

    draining = true;
    EXPECT_EQ(admin.respond("GET /healthz HTTP/1.0\r\n"),
              response("503 Service Unavailable", plain,
                       "draining\n"));

    // Without listen() there is nothing to serve: start() is a no-op
    // and stop() is idempotent.
    admin.start(1);
    admin.stop();
    admin.stop();
}

// Zero-copy ingest: many frames coalesced into one socket write
// arrive at the server as multi-frame reads, which processInput
// seals into one shared buffer and submits as offset/length slices
// (Engine::trySubmitShared) without copying a single payload byte.
// The predictions must still match an in-process serial replay of
// the same frames byte for byte.
TEST(NetServer, ZeroCopyBatchedWritesMatchInProcess)
{
    constexpr std::size_t kSessions = 4;
    constexpr std::size_t kFramesPerSession = 32;
    constexpr std::size_t kEventsPerFrame = 64;

    Engine served(recordingConfig(2));
    net::Server server(served, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    // Serial reference: the engine determinism contract's ground
    // truth (workerThreads = 0 processes inline on submit).
    Engine reference(recordingConfig(0));

    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions; ++session) {
        const auto frames =
            makeFrames(session, kFramesPerSession, kEventsPerFrame);
        // One write per session carrying every frame back to back.
        std::vector<std::uint8_t> batch;
        for (const auto &frame : frames) {
            batch.insert(batch.end(), frame.begin(), frame.end());
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
        ASSERT_TRUE(client.sendFrame(batch.data(), batch.size()));
    }
    reference.drain();

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(sent, replies));
    ASSERT_EQ(replies.size(), sent);

    for (std::uint64_t session = 1; session <= kSessions; ++session) {
        const std::vector<PathIndex> overTcp =
            clientPaths(replies, session);
        EXPECT_EQ(overTcp, reference.predictionsFor(session))
            << "session " << session
            << ": zero-copy serving disagrees with serial replay";
        EXPECT_FALSE(overTcp.empty());
    }

    server.stop();
    const net::NetStats stats = server.stats();
    EXPECT_EQ(stats.framesIn, sent);
    EXPECT_EQ(stats.responsesOut, sent);
    EXPECT_EQ(stats.framesResynced, 0u);
    EXPECT_EQ(served.stats().framesSubmitted, sent);
}
