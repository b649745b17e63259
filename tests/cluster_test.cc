/**
 * @file
 * Cluster-tier tests: hash-ring determinism and minimal disruption,
 * SessionState wire round-trips (snapshot, export request, corrupt
 * frames resyncing), the export -> wire -> import bit-identity
 * property for arbitrary event suffixes, and the router end to end
 * over loopback - byte-identity with a single-server run, live
 * session migration on scale-up and drain-out, deterministic
 * failover with every accepted frame answered exactly once, the
 * zero-backend synthesis path, and the router's client framing
 * (resync past corrupt bytes, an input cap that counts only an
 * incomplete tail, no busy loop on a half-closed client).
 *
 * Every server and router binds an ephemeral loopback port, so tests
 * run in parallel without port collisions.
 */

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/hash_ring.hh"
#include "cluster/router.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "telemetry/telemetry.hh"

using namespace hotpath;
using namespace hotpath::engine;

namespace
{

/** Loop-heavy deterministic event frames for one session (the same
 *  shape the serving-layer tests replay). */
std::vector<std::vector<std::uint8_t>>
makeFrames(std::uint64_t session, std::uint64_t first_sequence,
           std::size_t frames, std::size_t events_per_frame)
{
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t f = 0; f < frames; ++f) {
        const std::uint64_t sequence = first_sequence + f;
        std::vector<PathEvent> events;
        for (std::size_t i = 0; i < events_per_frame; ++i) {
            const std::uint32_t loop = static_cast<std::uint32_t>(
                (sequence * events_per_frame + i + session) % 8);
            PathEvent event;
            event.path = loop * 10;
            event.head = loop;
            event.blocks = 4 + loop;
            event.branches = 3 + loop;
            event.instructions = 30 + 5 * loop;
            events.push_back(event);
        }
        std::vector<std::uint8_t> frame;
        wire::appendEventFrame(frame, session, sequence, events);
        out.push_back(std::move(frame));
    }
    return out;
}

/** Engine config that records per-session predictions, so routed
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
 *  sequence order (state replies excluded). */
std::vector<PathIndex>
clientPaths(const std::vector<net::PredictionReply> &replies,
            std::uint64_t session)
{
    std::vector<const net::PredictionReply *> mine;
    for (const auto &reply : replies)
        if (reply.session == session && !reply.isState)
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

/** Assert every reply key (session, sequence) appears exactly once -
 *  the "answered exactly once" half of frame conservation. */
void
expectUniqueReplies(const std::vector<net::PredictionReply> &replies)
{
    std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
    for (const auto &reply : replies)
        keys.emplace(reply.session, reply.sequence);
    EXPECT_EQ(keys.size(), replies.size())
        << "duplicate (session, sequence) replies";
}

/** A fleet of started in-process backends (Engine + net::Server). */
struct Fleet
{
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<std::unique_ptr<net::Server>> servers;
    std::vector<cluster::BackendAddress> addresses;

    explicit Fleet(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            engines.push_back(
                std::make_unique<Engine>(recordingConfig(2)));
            servers.push_back(std::make_unique<net::Server>(
                *engines.back(), testServerConfig()));
            EXPECT_TRUE(servers.back()->start());
            addresses.push_back(
                {"127.0.0.1", servers.back()->port()});
        }
    }

    ~Fleet()
    {
        for (auto &server : servers)
            server->stop();
    }
};

/** Router config wired to a fleet, tuned for fast tests. */
cluster::RouterConfig
testRouterConfig(const Fleet &fleet)
{
    cluster::RouterConfig config;
    config.backends = fleet.addresses;
    config.tickMs = 2;
    config.connectAttempts = 3;
    config.retryBaseMs = 1;
    return config;
}

/** A ring mirroring the router's (the default seed and points),
 *  used to predict which backend owns which session. */
cluster::HashRing
mirrorRing(std::initializer_list<std::uint64_t> ids)
{
    cluster::HashRing ring(cluster::HashRingConfig{});
    for (std::uint64_t id : ids)
        ring.addNode(id);
    return ring;
}

} // namespace

// --- consistent-hash ring -----------------------------------------

TEST(HashRing, DeterministicAcrossInstancesAndInsertionOrder)
{
    cluster::HashRingConfig cfg;
    cfg.seed = 0x5eed;
    cluster::HashRing forward(cfg);
    cluster::HashRing backward(cfg);
    for (std::uint64_t node : {0ull, 1ull, 2ull, 3ull, 4ull})
        forward.addNode(node);
    for (std::uint64_t node : {4ull, 2ull, 0ull, 3ull, 1ull})
        backward.addNode(node);

    for (std::uint64_t key = 0; key < 4096; ++key)
        ASSERT_EQ(forward.ownerOf(key), backward.ownerOf(key))
            << "key " << key;

    // A different seed produces a genuinely different map.
    cfg.seed = 0x5eee;
    cluster::HashRing reseeded(cfg);
    for (std::uint64_t node : {0ull, 1ull, 2ull, 3ull, 4ull})
        reseeded.addNode(node);
    std::size_t moved = 0;
    for (std::uint64_t key = 0; key < 4096; ++key)
        if (forward.ownerOf(key) != reseeded.ownerOf(key))
            ++moved;
    EXPECT_GT(moved, 0u);
}

TEST(HashRing, SpreadsKeysAcrossAllNodes)
{
    cluster::HashRing ring;
    for (std::uint64_t node = 0; node < 4; ++node)
        ring.addNode(node);
    std::map<std::uint64_t, std::size_t> load;
    for (std::uint64_t key = 0; key < 8192; ++key)
        ++load[ring.ownerOf(key)];
    ASSERT_EQ(load.size(), 4u);
    // With 64 virtual nodes each backend should land well away from
    // zero and from "everything" - a loose smoke bound, not a
    // distribution test.
    for (const auto &[node, count] : load) {
        EXPECT_GT(count, 8192u / 16) << "node " << node;
        EXPECT_LT(count, 8192u / 2) << "node " << node;
    }
}

TEST(HashRing, MinimalDisruptionOnAddAndRemove)
{
    cluster::HashRing ring;
    for (std::uint64_t node = 0; node < 3; ++node)
        ring.addNode(node);
    std::map<std::uint64_t, std::uint64_t> before;
    for (std::uint64_t key = 0; key < 8192; ++key)
        before[key] = ring.ownerOf(key);

    // Adding a node may only move keys ONTO the new node.
    ring.addNode(3);
    std::size_t movedToNew = 0;
    for (std::uint64_t key = 0; key < 8192; ++key) {
        const std::uint64_t owner = ring.ownerOf(key);
        if (owner != before[key]) {
            ASSERT_EQ(owner, 3u)
                << "key " << key
                << " reshuffled between surviving nodes";
            ++movedToNew;
        }
    }
    EXPECT_GT(movedToNew, 0u);

    // Removing it again restores the exact original map: keys may
    // only move OFF the removed node.
    ASSERT_TRUE(ring.removeNode(3));
    for (std::uint64_t key = 0; key < 8192; ++key)
        ASSERT_EQ(ring.ownerOf(key), before[key]) << "key " << key;
    EXPECT_FALSE(ring.removeNode(3));
}

// --- SessionState on the wire -------------------------------------

TEST(SessionStateWire, SnapshotRoundTripsByteForByte)
{
    // A real snapshot from a warmed engine, not a hand-built one.
    Engine donor(recordingConfig(2));
    for (const auto &frame : makeFrames(42, 0, 12, 64))
        ASSERT_TRUE(donor.submit(frame));
    donor.drain();

    wire::SessionState snapshot;
    ASSERT_TRUE(donor.exportSession(42, snapshot));
    EXPECT_TRUE(snapshot.sawFrame);
    EXPECT_FALSE(snapshot.counters.empty());

    std::vector<std::uint8_t> bytes;
    wire::appendSessionStateFrame(bytes, 42, 7, snapshot);

    std::size_t offset = 0;
    wire::DecodedFrame decoded;
    ASSERT_EQ(wire::decodeFrame(bytes.data(), bytes.size(), offset,
                                decoded),
              wire::DecodeStatus::Ok);
    EXPECT_EQ(offset, bytes.size());
    EXPECT_EQ(decoded.header.session, 42u);
    EXPECT_EQ(decoded.header.sequence, 7u);
    EXPECT_EQ(decoded.header.kind, wire::FrameKind::SessionState);
    EXPECT_FALSE(decoded.state.request);

    // Re-encoding the decoded snapshot reproduces the wire bytes
    // exactly - the encoding is canonical (sorted, delta-coded).
    std::vector<std::uint8_t> again;
    wire::appendSessionStateFrame(again, 42, 7, decoded.state);
    EXPECT_EQ(again, bytes);
}

TEST(SessionStateWire, RequestFrameRoundTrips)
{
    wire::SessionState request;
    request.request = true;
    std::vector<std::uint8_t> bytes;
    wire::appendSessionStateFrame(bytes, 9, 3, request);

    std::size_t offset = 0;
    wire::DecodedFrame decoded;
    ASSERT_EQ(wire::decodeFrame(bytes.data(), bytes.size(), offset,
                                decoded),
              wire::DecodeStatus::Ok);
    EXPECT_TRUE(decoded.state.request);
    EXPECT_EQ(decoded.header.session, 9u);
    EXPECT_EQ(decoded.header.sequence, 3u);
}

TEST(SessionStateWire, CorruptSnapshotResyncsToNextFrame)
{
    Engine donor(recordingConfig(2));
    for (const auto &frame : makeFrames(5, 0, 4, 32))
        ASSERT_TRUE(donor.submit(frame));
    donor.drain();
    wire::SessionState snapshot;
    ASSERT_TRUE(donor.exportSession(5, snapshot));

    std::vector<std::uint8_t> buffer;
    wire::appendSessionStateFrame(buffer, 5, 0, snapshot);
    const std::size_t corruptEnd = buffer.size();
    // Flip a payload byte: the frame must fail its CRC, and the
    // streaming boundary scan must land on the next frame.
    buffer[corruptEnd / 2] ^= 0x40;
    wire::appendEventFrame(
        buffer, 5, 1,
        std::vector<PathEvent>{PathEvent{10, 1, 5, 4, 35}});

    std::size_t offset = 0;
    wire::DecodedFrame decoded;
    const wire::DecodeStatus status = wire::decodeFrame(
        buffer.data(), buffer.size(), offset, decoded);
    EXPECT_TRUE(status == wire::DecodeStatus::BadCrc ||
                status == wire::DecodeStatus::BadPayload)
        << wire::decodeStatusName(status);
    EXPECT_EQ(offset, 0u);

    bool complete = false;
    const std::size_t next = wire::findFrameBoundary(
        buffer.data(), buffer.size(), 1, &complete);
    EXPECT_TRUE(complete);
    EXPECT_EQ(next, corruptEnd);
    offset = next;
    ASSERT_EQ(wire::decodeFrame(buffer.data(), buffer.size(), offset,
                                decoded),
              wire::DecodeStatus::Ok);
    EXPECT_EQ(decoded.header.kind, wire::FrameKind::PathEvents);
    EXPECT_EQ(decoded.header.sequence, 1u);
}

// --- export -> wire -> import bit-identity ------------------------

TEST(SessionMigration, ExportWireImportContinuesBitIdentically)
{
    constexpr std::uint64_t kSession = 77;
    constexpr std::size_t kFrames = 24;
    const auto frames = makeFrames(kSession, 0, kFrames, 64);

    // The session caches to migrate: uncapped, and capped below the
    // 380 instructions of the eight loop paths under both policies a
    // session serves, so fragments leave and return within 24 frames
    // and eviction order after the import depends on the imported
    // stamps and clock.
    struct CacheCase
    {
        const char *name;
        std::uint64_t capacityInstr;
        CachePolicy policy;
    };
    const CacheCase cases[] = {
        {"uncapped", 0, CachePolicy::EvictLru},
        {"capped-lru", 150, CachePolicy::EvictLru},
        {"capped-flush-all", 150, CachePolicy::FlushAll},
    };

    // Property: for ANY split point, exporting after the prefix and
    // importing into a fresh engine continues the suffix with
    // byte-identical predictions and byte-identical end state.
    for (const CacheCase &cache : cases) {
        EngineConfig config = recordingConfig(2);
        config.sessions.session.cacheCapacityInstr = cache.capacityInstr;
        config.sessions.session.cachePolicy = cache.policy;
        bool evictedAfterImport = false;
        for (const std::size_t split : {std::size_t{1}, std::size_t{8},
                                        std::size_t{23}}) {
            Engine original(config);
            for (std::size_t i = 0; i < split; ++i)
                ASSERT_TRUE(original.submit(frames[i]));
            original.drain();

            wire::SessionState snapshot;
            ASSERT_TRUE(original.exportSession(kSession, snapshot));
            std::vector<std::uint8_t> wireBytes;
            wire::appendSessionStateFrame(wireBytes, kSession, 0,
                                          snapshot);
            std::size_t offset = 0;
            wire::DecodedFrame decoded;
            ASSERT_EQ(wire::decodeFrame(wireBytes.data(),
                                        wireBytes.size(), offset,
                                        decoded),
                      wire::DecodeStatus::Ok);

            Engine migrated(config);
            migrated.importSession(kSession, decoded.state);

            for (std::size_t i = split; i < kFrames; ++i) {
                ASSERT_TRUE(original.submit(frames[i]));
                ASSERT_TRUE(migrated.submit(frames[i]));
            }
            original.drain();
            migrated.drain();

            // The migrated engine's suffix predictions match the
            // original's, prediction for prediction.
            const auto originalPaths =
                original.predictionsFor(kSession);
            const auto migratedPaths =
                migrated.predictionsFor(kSession);
            ASSERT_LE(migratedPaths.size(), originalPaths.size())
                << cache.name << " split " << split;
            EXPECT_TRUE(std::equal(migratedPaths.begin(),
                                   migratedPaths.end(),
                                   originalPaths.end() -
                                       static_cast<std::ptrdiff_t>(
                                           migratedPaths.size())))
                << cache.name << " split " << split
                << ": suffix predictions diverged after migration";

            // A suffix prediction of a path resident at the import
            // means the cache evicted it after the import.
            for (const auto &fragment : decoded.state.fragments)
                evictedAfterImport |=
                    std::find(migratedPaths.begin(),
                              migratedPaths.end(),
                              fragment.path) != migratedPaths.end();

            // And the end states are byte-identical on the wire: same
            // counters, same fragment cache (exact stamps and
            // execution counts), same lifetime statistics.
            wire::SessionState endOriginal, endMigrated;
            ASSERT_TRUE(original.exportSession(kSession, endOriginal));
            ASSERT_TRUE(migrated.exportSession(kSession, endMigrated));
            std::vector<std::uint8_t> bytesOriginal, bytesMigrated;
            wire::appendSessionStateFrame(bytesOriginal, kSession, 0,
                                          endOriginal);
            wire::appendSessionStateFrame(bytesMigrated, kSession, 0,
                                          endMigrated);
            EXPECT_EQ(bytesMigrated, bytesOriginal)
                << cache.name << " split " << split
                << ": end-state snapshots differ on the wire";
        }
        EXPECT_EQ(evictedAfterImport, cache.capacityInstr != 0)
            << cache.name
            << ": the cap must evict after an import, and only a cap";
    }
}

TEST(SessionMigration, ServerAnswersExportRequestsOverTcp)
{
    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());

    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(31, 0, 6, 48);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));

    // An export request comes back as a state snapshot identical to
    // a direct in-process export.
    wire::SessionState request;
    request.request = true;
    std::vector<std::uint8_t> requestBytes;
    wire::appendSessionStateFrame(requestBytes, 31, 99, request);
    ASSERT_TRUE(client.sendFrame(requestBytes.data(),
                                 requestBytes.size()));
    std::vector<net::PredictionReply> stateReplies;
    ASSERT_TRUE(client.awaitResponses(1, stateReplies));
    ASSERT_EQ(stateReplies.size(), 1u);
    ASSERT_TRUE(stateReplies[0].isState);
    EXPECT_EQ(stateReplies[0].sequence, 99u);

    wire::SessionState direct;
    ASSERT_TRUE(eng.exportSession(31, direct));
    std::vector<std::uint8_t> overTcp, inProcess;
    wire::appendSessionStateFrame(overTcp, 31, 0,
                                  stateReplies[0].state);
    wire::appendSessionStateFrame(inProcess, 31, 0, direct);
    EXPECT_EQ(overTcp, inProcess);

    // Exporting a session the engine has never seen yields a fresh
    // snapshot (sawFrame=false), still answered - migration of an
    // untouched session degrades to a clean rebuild, not an error.
    requestBytes.clear();
    wire::appendSessionStateFrame(requestBytes, 888, 5, request);
    ASSERT_TRUE(client.sendFrame(requestBytes.data(),
                                 requestBytes.size()));
    std::vector<net::PredictionReply> absentReplies;
    ASSERT_TRUE(client.awaitResponses(1, absentReplies));
    ASSERT_EQ(absentReplies.size(), 1u);
    ASSERT_TRUE(absentReplies[0].isState);
    EXPECT_FALSE(absentReplies[0].state.sawFrame);

    server.stop();
}

TEST(SessionMigration, TornAndCorruptStateFramesOverTcp)
{
    // Donor builds history in-process; its snapshot travels to the
    // server torn into 7-byte slivers, preceded by a corrupt copy
    // the server must resync past.
    Engine donor(recordingConfig(2));
    const auto prefix = makeFrames(64, 0, 8, 48);
    for (const auto &frame : prefix)
        ASSERT_TRUE(donor.submit(frame));
    donor.drain();
    wire::SessionState snapshot;
    ASSERT_TRUE(donor.exportSession(64, snapshot));

    Engine eng(recordingConfig(2));
    net::Server server(eng, testServerConfig());
    ASSERT_TRUE(server.start());
    net::ClientConfig clientCfg;
    clientCfg.port = server.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    std::vector<std::uint8_t> importFrame;
    wire::appendSessionStateFrame(importFrame, 64, 0, snapshot);

    // A corrupt copy of the snapshot first: the flipped payload byte
    // kills the CRC, the engine rejects the frame, and the server
    // still answers it (a reject completion reply). Then a garbage
    // run (no 'H' bytes) the reassembly buffer must resync past
    // before the real import arrives.
    std::vector<std::uint8_t> corrupt = importFrame;
    corrupt[corrupt.size() / 2] ^= 0x20;
    ASSERT_TRUE(client.sendFrame(corrupt.data(), corrupt.size()));
    const std::vector<std::uint8_t> garbage(23, 0xAB);
    ASSERT_TRUE(client.sendFrame(garbage.data(), garbage.size()));

    // Then the real import, torn into slivers.
    for (std::size_t off = 0; off < importFrame.size(); off += 7) {
        const std::size_t len =
            std::min<std::size_t>(7, importFrame.size() - off);
        ASSERT_TRUE(client.sendFrame(importFrame.data() + off, len));
    }
    // Two replies: the corrupt frame's reject completion and the
    // real import's ack.
    std::vector<net::PredictionReply> importAck;
    ASSERT_TRUE(client.awaitResponses(2, importAck));
    ASSERT_EQ(importAck.size(), 2u);

    // The suffix now continues the donor's stream bit-identically.
    const auto suffix = makeFrames(64, prefix.size(), 8, 48);
    for (const auto &frame : suffix) {
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
        ASSERT_TRUE(donor.submit(frame));
    }
    donor.drain();
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(suffix.size(), replies));

    const auto donorPaths = donor.predictionsFor(64);
    const auto servedPaths = clientPaths(replies, 64);
    ASSERT_LE(servedPaths.size(), donorPaths.size());
    EXPECT_TRUE(std::equal(servedPaths.begin(), servedPaths.end(),
                           donorPaths.end() -
                               static_cast<std::ptrdiff_t>(
                                   servedPaths.size())));

    server.stop();
    EXPECT_GE(server.stats().framesResynced, 1u);
    const EngineStats engineStats = eng.stats();
    EXPECT_EQ(engineStats.sessionsImported, 1u);
}

// --- the router, end to end ---------------------------------------

TEST(ClusterRouter, LoopbackMatchesSingleServerByteForByte)
{
    constexpr std::size_t kSessions = 8;
    constexpr std::size_t kFramesPerSession = 12;
    constexpr std::size_t kEventsPerFrame = 48;

    Fleet fleet(3);
    cluster::Router router(testRouterConfig(fleet));
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    Engine reference(recordingConfig(2));
    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame : makeFrames(
                 session, 0, kFramesPerSession, kEventsPerFrame)) {
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
    expectUniqueReplies(replies);

    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        const auto routed = clientPaths(replies, session);
        EXPECT_EQ(routed, reference.predictionsFor(session))
            << "session " << session
            << ": routed serving disagrees with single-engine run";
        EXPECT_FALSE(routed.empty());
    }

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    EXPECT_EQ(stats.framesIn, sent);
    EXPECT_EQ(stats.framesRouted, sent);
    EXPECT_EQ(stats.responsesOut, sent);
    EXPECT_EQ(stats.responsesSynthesized, 0u);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(stats.framesResynced, 0u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.sessionsMigrated, 0u);
    EXPECT_EQ(stats.inFlightTotal, 0u);
    EXPECT_EQ(stats.parkedFrames, 0u);
    EXPECT_EQ(stats.backendsLive, 3u);

    // Every backend that owns sessions actually served them: the
    // router's routed count equals the sum of backend receipts.
    std::uint64_t backendFramesIn = 0;
    for (const auto &server : fleet.servers)
        backendFramesIn += server->stats().framesIn;
    EXPECT_EQ(backendFramesIn, sent);
}

TEST(ClusterRouter, ScaleUpMigratesPredictorHistory)
{
    constexpr std::size_t kSessions = 16;
    constexpr std::size_t kPhaseFrames = 8;
    constexpr std::size_t kEventsPerFrame = 32;

    Fleet fleet(2);
    const cluster::RouterConfig cfg = testRouterConfig(fleet);
    cluster::Router router(cfg);
    ASSERT_TRUE(router.start());

    // The third backend exists but is not in the ring yet.
    Engine lateEngine(recordingConfig(2));
    net::Server lateServer(lateEngine, testServerConfig());
    ASSERT_TRUE(lateServer.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    Engine reference(recordingConfig(2));
    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame : makeFrames(session, 0, kPhaseFrames,
                                            kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
    }
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(sent, replies));

    // Scale up mid-stream. The new node takes its ring arcs; every
    // session it inherits must carry its predictor history over.
    const std::uint64_t newId =
        router.addBackend({"127.0.0.1", lateServer.port()});
    EXPECT_EQ(newId, 2u);

    const cluster::HashRing before = mirrorRing({0, 1});
    const cluster::HashRing after = mirrorRing({0, 1, 2});
    std::size_t expectedMoved = 0;
    for (std::uint64_t session = 1; session <= kSessions; ++session)
        if (before.ownerOf(session) != after.ownerOf(session))
            ++expectedMoved;
    ASSERT_GE(expectedMoved, 1u)
        << "ring seed moved no sessions; test is vacuous";

    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame :
             makeFrames(session, kPhaseFrames, kPhaseFrames,
                        kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
    }
    reference.drain();

    // Collect until every phase-2 frame is answered; migration
    // (export, import, unpark) completes inside this wait.
    std::vector<net::PredictionReply> all;
    while (all.size() < kSessions * kPhaseFrames) {
        std::vector<net::PredictionReply> more;
        ASSERT_TRUE(client.awaitResponses(1, more))
            << "phase-2 frame went unanswered";
        all.insert(all.end(), more.begin(), more.end());
    }
    expectUniqueReplies(all);

    // Byte-identity for EVERY session, including the migrated ones:
    // phase-2 predictions continue phase-1 history seamlessly.
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        const auto phase2 = clientPaths(all, session);
        const auto full = reference.predictionsFor(session);
        ASSERT_LE(phase2.size(), full.size()) << "session " << session;
        EXPECT_TRUE(std::equal(phase2.begin(), phase2.end(),
                               full.end() -
                                   static_cast<std::ptrdiff_t>(
                                       phase2.size())))
            << "session " << session
            << ": migration lost predictor history";
    }

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    lateServer.stop();
    EXPECT_EQ(stats.sessionsMigrated, expectedMoved);
    EXPECT_GE(stats.migrationFrames, 2 * expectedMoved);
    EXPECT_GT(stats.migrationBytes, 0u);
    EXPECT_GE(stats.rehashes, 1u);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.parkedFrames, 0u);

    // The late engine really did import state, not rebuild from
    // scratch.
    EXPECT_EQ(lateEngine.stats().sessionsImported, expectedMoved);
}

TEST(ClusterRouter, RemoveBackendDrainsSessionsToSurvivors)
{
    constexpr std::size_t kSessions = 12;
    constexpr std::size_t kPhaseFrames = 6;
    constexpr std::size_t kEventsPerFrame = 32;

    Fleet fleet(3);
    const cluster::RouterConfig cfg = testRouterConfig(fleet);
    cluster::Router router(cfg);
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    Engine reference(recordingConfig(2));
    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame : makeFrames(session, 0, kPhaseFrames,
                                            kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
    }
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(sent, replies));

    const cluster::HashRing before = mirrorRing({0, 1, 2});
    const cluster::HashRing after = mirrorRing({0, 2});
    std::size_t expectedMoved = 0;
    for (std::uint64_t session = 1; session <= kSessions; ++session)
        if (before.ownerOf(session) == 1)
            ++expectedMoved;
    ASSERT_GE(expectedMoved, 1u)
        << "backend 1 owned no sessions; test is vacuous";
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        if (before.ownerOf(session) != 1) {
            ASSERT_EQ(after.ownerOf(session), before.ownerOf(session))
                << "survivor sessions must not reshuffle";
        }
    }

    router.removeBackend(1);

    std::size_t phase2 = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame :
             makeFrames(session, kPhaseFrames, kPhaseFrames,
                        kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++phase2;
        }
    }
    reference.drain();
    std::vector<net::PredictionReply> all;
    while (all.size() < phase2) {
        std::vector<net::PredictionReply> more;
        ASSERT_TRUE(client.awaitResponses(1, more))
            << "phase-2 frame went unanswered after removeBackend";
        all.insert(all.end(), more.begin(), more.end());
    }
    expectUniqueReplies(all);

    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        const auto paths = clientPaths(all, session);
        const auto full = reference.predictionsFor(session);
        ASSERT_LE(paths.size(), full.size()) << "session " << session;
        EXPECT_TRUE(std::equal(paths.begin(), paths.end(),
                               full.end() -
                                   static_cast<std::ptrdiff_t>(
                                       paths.size())))
            << "session " << session
            << ": drain-out lost predictor history";
    }

    router.drain();
    const cluster::RouterStats stats = router.stats();

    // The retired backend eventually leaves the topology entirely.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(2);
    bool reaped = false;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto topo = router.topology();
        reaped = std::none_of(topo.begin(), topo.end(),
                              [](const auto &row) {
                                  return row.id == 1;
                              });
        if (reaped)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    router.stop();
    EXPECT_TRUE(reaped) << "retired backend never reaped";
    EXPECT_EQ(stats.sessionsMigrated, expectedMoved);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(stats.failovers, 0u);
}

TEST(ClusterRouter, FailoverAnswersEveryFrameExactlyOnce)
{
    constexpr std::size_t kSessions = 12;
    constexpr std::size_t kPhaseFrames = 6;
    constexpr std::size_t kEventsPerFrame = 32;

    Fleet fleet(3);
    const cluster::RouterConfig cfg = testRouterConfig(fleet);
    cluster::Router router(cfg);
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    clientCfg.responseTimeoutMs = 10000;
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    Engine reference(recordingConfig(2));
    std::size_t sent = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame : makeFrames(session, 0, kPhaseFrames,
                                            kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++sent;
        }
    }
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(sent, replies));

    // Kill the backend that owns session 1. Its sessions lose their
    // history (nobody left to export from); everyone else's must
    // stay byte-identical.
    const cluster::HashRing ring = mirrorRing({0, 1, 2});
    const std::uint64_t victim = ring.ownerOf(1);
    fleet.servers[victim]->stop();

    std::size_t phase2 = 0;
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        for (const auto &frame :
             makeFrames(session, kPhaseFrames, kPhaseFrames,
                        kEventsPerFrame)) {
            ASSERT_TRUE(
                client.sendFrame(frame.data(), frame.size()));
            ASSERT_TRUE(reference.submit(frame));
            ++phase2;
        }
    }
    reference.drain();

    // Every phase-2 frame is answered despite the dead backend -
    // detection, reconnect probe, failover and ledger replay all
    // happen inside this await.
    std::vector<net::PredictionReply> all;
    while (all.size() < phase2) {
        std::vector<net::PredictionReply> more;
        ASSERT_TRUE(client.awaitResponses(1, more))
            << "frame went unanswered after backend death ("
            << all.size() << "/" << phase2 << ")";
        all.insert(all.end(), more.begin(), more.end());
    }
    EXPECT_EQ(all.size(), phase2);
    expectUniqueReplies(all);

    // Sessions untouched by the failover continue byte-identically.
    for (std::uint64_t session = 1; session <= kSessions;
         ++session) {
        if (ring.ownerOf(session) == victim)
            continue;
        const auto paths = clientPaths(all, session);
        const auto full = reference.predictionsFor(session);
        ASSERT_LE(paths.size(), full.size()) << "session " << session;
        EXPECT_TRUE(std::equal(paths.begin(), paths.end(),
                               full.end() -
                                   static_cast<std::ptrdiff_t>(
                                       paths.size())))
            << "session " << session
            << ": failover disturbed an unrelated session";
    }

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.backendsLive, 2u);
    EXPECT_EQ(stats.framesIn, sent + phase2);
    EXPECT_EQ(stats.responsesOut + stats.responsesSynthesized,
              sent + phase2);
    EXPECT_EQ(stats.responsesDropped, 0u);
    EXPECT_EQ(stats.inFlightTotal, 0u);
    EXPECT_EQ(stats.parkedFrames, 0u);
}

TEST(ClusterRouter, ZeroBackendsSynthesizesEmptyReplies)
{
    Fleet fleet(0);
    cluster::Router router(testRouterConfig(fleet));
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(3, 0, 5, 16);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));

    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    ASSERT_EQ(replies.size(), frames.size());
    expectUniqueReplies(replies);
    for (const auto &reply : replies) {
        EXPECT_EQ(reply.session, 3u);
        EXPECT_TRUE(reply.predictions.empty())
            << "synthesized replies must be empty";
    }

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    EXPECT_EQ(stats.framesIn, frames.size());
    EXPECT_EQ(stats.responsesSynthesized, frames.size());
    EXPECT_EQ(stats.responsesOut, 0u);
    EXPECT_EQ(stats.backendsLive, 0u);
}

TEST(ClusterRouter, ResyncsPastCorruptClientBytes)
{
    // Each frame follows a garbage run (no 'H' bytes, so the resync
    // scan cannot stall on a fake magic) sent on its own: the router
    // resyncs past every run, exactly once, and routes every frame.
    Fleet fleet(1);
    cluster::Router router(testRouterConfig(fleet));
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());

    const auto frames = makeFrames(6, 0, 6, 48);
    const std::vector<std::uint8_t> garbage(23, 0xAB);
    for (const auto &frame : frames) {
        ASSERT_TRUE(client.sendFrame(garbage.data(), garbage.size()));
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    }
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    EXPECT_EQ(clientPaths(replies, 6), fleet.engines[0]->predictionsFor(6));

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    EXPECT_EQ(stats.framesIn, 6u);
    EXPECT_EQ(stats.framesResynced, 6u);
    EXPECT_EQ(stats.resyncBytesSkipped, 138u);
}

TEST(ClusterRouter, ServesAPipelinedBurstLargerThanItsInputCap)
{
    // The input cap bounds an incomplete tail, not the complete
    // frames that arrive together: a burst four times the cap, read
    // 1 KiB at a time, is routed in full.
    Fleet fleet(1);
    cluster::RouterConfig config = testRouterConfig(fleet);
    config.maxInBufferBytes = 4096;
    config.readChunkBytes = 1024;
    cluster::Router router(config);
    ASSERT_TRUE(router.start());

    const auto frames = makeFrames(7, 0, 64, 48);
    std::vector<std::uint8_t> burst;
    for (const auto &frame : frames)
        burst.insert(burst.end(), frame.begin(), frame.end());
    ASSERT_EQ(burst.size(), 16640u);

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    ASSERT_TRUE(client.sendFrame(burst.data(), burst.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));
    ASSERT_EQ(replies.size(), frames.size());
    expectUniqueReplies(replies);
    EXPECT_EQ(clientPaths(replies, 7), fleet.engines[0]->predictionsFor(7));

    router.drain();
    router.stop();
}

TEST(ClusterRouter, AnswersAndClosesHalfClosedClients)
{
    // A client that half-closes right after its last frame is still
    // answered in full, and the router closes the connection once the
    // last reply is flushed.
    Fleet fleet(1);
    cluster::Router router(testRouterConfig(fleet));
    ASSERT_TRUE(router.start());

    const auto frames = makeFrames(9, 0, 6, 48);
    std::vector<std::uint8_t> stream;
    for (const auto &frame : frames)
        stream.insert(stream.end(), frame.begin(), frame.end());
    net::Fd fd = net::connectTcp("127.0.0.1", router.port());
    ASSERT_TRUE(fd.valid());
    ASSERT_EQ(::send(fd.get(), stream.data(), stream.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(stream.size()));
    ASSERT_EQ(::shutdown(fd.get(), SHUT_WR), 0);

    // Read to the router's close.
    std::vector<std::uint8_t> bytes;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool eof = false;
    while (!eof && std::chrono::steady_clock::now() < deadline) {
        std::uint8_t buf[4096];
        const ssize_t got = ::recv(fd.get(), buf, sizeof(buf), 0);
        if (got > 0)
            bytes.insert(bytes.end(), buf, buf + got);
        else if (got == 0)
            eof = true;
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(eof);
    std::vector<std::uint64_t> sequences;
    std::size_t off = 0;
    wire::DecodedFrame reply;
    while (wire::decodeFrame(bytes.data(), bytes.size(), off, reply) ==
           wire::DecodeStatus::Ok)
        sequences.push_back(reply.header.sequence);
    EXPECT_EQ(off, bytes.size());
    EXPECT_EQ(sequences, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));

    router.drain();
    const cluster::RouterStats stats = router.stats();
    router.stop();
    EXPECT_EQ(stats.responsesOut, frames.size());
    EXPECT_EQ(stats.closed, 1u);
    EXPECT_EQ(stats.activeConnections, 0u);
}

TEST(ClusterRouter, HalfClosedClientAwaitingAReplyDoesNotSpin)
{
    // The backend accepts and never answers, so the client's one
    // frame stays in flight after it half-closes. Its EOF must not
    // keep the router thread busy while the reply is owed.
    std::uint16_t backendPort = 0;
    net::Fd backend = net::listenTcp("127.0.0.1", 0, &backendPort);
    ASSERT_TRUE(backend.valid());
    cluster::RouterConfig config;
    config.backends = {{"127.0.0.1", backendPort}};
    config.tickMs = 2;
    config.connectAttempts = 3;
    config.retryBaseMs = 1;
    config.drainTimeoutMs = 50;
    cluster::Router router(config);
    ASSERT_TRUE(router.start());
    const net::Fd accepted(::accept(backend.get(), nullptr, nullptr));
    ASSERT_TRUE(accepted.valid());

    net::Fd client = net::connectTcp("127.0.0.1", router.port());
    ASSERT_TRUE(client.valid());
    const auto frames = makeFrames(5, 0, 1, 48);
    ASSERT_EQ(::send(client.get(), frames[0].data(), frames[0].size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(frames[0].size()));
    ASSERT_EQ(::shutdown(client.get(), SHUT_WR), 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (router.stats().framesRouted == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(router.stats().framesRouted, 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    const auto cpuNs = [] {
        timespec ts{};
        ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    };
    const std::int64_t before = cpuNs();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::int64_t used = cpuNs() - before;
    EXPECT_LT(used, 100'000'000)
        << "process CPU over 300 ms: " << used / 1'000'000 << " ms";

    router.stop();
}

TEST(ClusterRouter, StopCountsOpenConnectionsAsClosed)
{
    // A client still connected at stop() is closed by the teardown;
    // like net::Server, the router must count that close, so the
    // ledger settles (closed == accepted) and the active count and
    // its gauge fall back to zero.
    telemetry::TelemetrySession session("");
    Fleet fleet(1);
    cluster::Router router(testRouterConfig(fleet));
    ASSERT_TRUE(router.start());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    const auto frames = makeFrames(5, 0, 4, 16);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));

    router.stop();
    const cluster::RouterStats stats = router.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.closed, stats.accepted);
    EXPECT_EQ(stats.activeConnections, 0u);
    EXPECT_EQ(
        session.registry().gauge("cluster.connections.active").get(),
        0);
}

TEST(ClusterRouter, AdminEndpointServesMetricsTopologyAndStats)
{
    // Attach telemetry before anything registers, so /metrics sees
    // every eagerly-registered cluster.* instrument.
    telemetry::TelemetrySession session("");

    Fleet fleet(2);
    cluster::RouterConfig cfg = testRouterConfig(fleet);
    cfg.adminPort = 0;
    cluster::Router router(cfg);
    ASSERT_TRUE(router.start());
    ASSERT_NE(router.adminPort(), 0);

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client client(clientCfg);
    ASSERT_TRUE(client.connect());
    const auto frames = makeFrames(11, 0, 8, 24);
    for (const auto &frame : frames)
        ASSERT_TRUE(client.sendFrame(frame.data(), frame.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(client.awaitResponses(frames.size(), replies));

    const auto adminRequest = [&](const std::string &path) {
        return net::httpRequest("127.0.0.1", router.adminPort(),
                                "GET " + path + " HTTP/1.0\r\n\r\n",
                                2000);
    };

    const std::string health = adminRequest("/healthz");
    EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

    const std::string metrics = adminRequest("/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    for (const char *name :
         {"cluster_frames_in", "cluster_frames_routed",
          "cluster_backends_live", "cluster_backend_inflight",
          "cluster_rehash_events", "cluster_failovers",
          "cluster_migration_bytes", "cluster_backend_0_inflight",
          "cluster_backend_1_inflight"}) {
        EXPECT_NE(metrics.find(name), std::string::npos) << name;
    }

    const std::string stats = adminRequest("/stats");
    EXPECT_NE(stats.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(stats.find("application/json"), std::string::npos);
    EXPECT_NE(stats.find("\"cluster_frames_in\":" +
                         std::to_string(frames.size())),
              std::string::npos);
    EXPECT_NE(stats.find("\"cluster_responses_out\":" +
                         std::to_string(frames.size())),
              std::string::npos);
    EXPECT_NE(stats.find("\"backend_ids\":[0,1]"),
              std::string::npos);
    EXPECT_NE(stats.find("\"backend_alive\":[1,1]"),
              std::string::npos);

    const std::string topology = adminRequest("/topology");
    EXPECT_NE(topology.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(topology.find("\"backends\":["), std::string::npos);
    EXPECT_NE(topology.find("\"alive\":true"), std::string::npos);

    const std::string missing = adminRequest("/nonsense");
    EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"),
              std::string::npos);

    router.drain();
    router.stop();
}
