/**
 * @file
 * Metric-registration audit for the observability plane.
 *
 * The serving stack promises eager registration: every engine.*,
 * net.*, cluster.* and control.* instrument exists in the registry -
 * and therefore in
 * RunReport and the /metrics endpoint - from component construction,
 * even when its value is still zero. Dashboards and alert rules bind
 * to metric names before traffic arrives, so a lazily-registered
 * instrument is an outage in the monitoring plane.
 *
 * The golden list below is the documented instrument set. Adding an
 * instrument to the engine or server without extending this list
 * (and the metric-name table in docs/OPERATIONS.md, which this list
 * mirrors) fails the audit; so does removing or renaming one.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/router.hh"
#include "control/controller.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "support/fault_injector.hh"
#include "telemetry/run_report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"

using namespace hotpath;

namespace
{

/**
 * The golden instrument list - keep in sync with the "Metric
 * reference" table in docs/OPERATIONS.md. Indexed instruments
 * (engine.shard.<i>.*, engine.worker.<w>.*) appear once with the
 * index normalized to N; fault sites and pipeline stages are
 * enumerated programmatically so a new Site or Stage enumerator
 * extends the expectation automatically.
 */
std::set<std::string>
goldenInstruments()
{
    std::set<std::string> names = {
        // Engine core (always registered).
        "engine.frames.decoded",
        "engine.frames.rejected",
        "engine.events",
        "engine.predictions",
        "engine.backpressure.waits",
        "engine.queue.highwater",
        "engine.queue.depth",
        "engine.batch.size",
        "engine.frames.inline",
        // Per-shard contention instruments (normalized index).
        "engine.shard.N.frames",
        "engine.shard.N.queue.depth",
        "engine.shard.N.backpressure.waits",
        // Per-worker utilization instruments (normalized index).
        "engine.worker.N.busy.ns",
        "engine.worker.N.idle.ns",
        // Session table.
        "engine.sessions.created",
        "engine.sessions.evicted",
        "engine.sessions.evicted.idle",
        "engine.sessions.live",
        "engine.sessions.exported",
        "engine.sessions.imported",
        "engine.table.lock.wait.ns",
        // Resilience (registered when any resilience feature is on).
        "engine.fault.frames.corrupted",
        "engine.fault.sessions.poisoned",
        "engine.fault.alloc.failures",
        "engine.fault.overload.spikes",
        "engine.fault.worker.stalled",
        "engine.recovered.frames.quarantined",
        "engine.recovered.frames.delayed.delivered",
        "engine.recovered.sessions.rebuilt",
        "engine.recovered.sessions.readmitted",
        "engine.recovered.backoff.frames",
        "engine.recovered.shed.frames",
        "engine.recovered.worker.unstalled",
        // Serving layer.
        "net.connections.accepted",
        "net.connections.closed",
        "net.connections.idle.closed",
        "net.connections.reset",
        "net.connections.active",
        "net.accept.failures",
        "net.bytes.in",
        "net.bytes.out",
        "net.frames.in",
        "net.responses.out",
        "net.responses.dropped",
        "net.frames.resynced",
        "net.resync.bytes.skipped",
        "net.read.pauses",
        // Cluster routing tier.
        "cluster.connections.accepted",
        "cluster.connections.closed",
        "cluster.connections.active",
        "cluster.frames.in",
        "cluster.frames.routed",
        "cluster.frames.replayed",
        "cluster.frames.parked",
        "cluster.frames.resynced",
        "cluster.resync.bytes.skipped",
        "cluster.migration.frames",
        "cluster.migration.bytes",
        "cluster.responses.out",
        "cluster.responses.synthesized",
        "cluster.responses.dropped",
        "cluster.rehash.events",
        "cluster.sessions.migrated",
        "cluster.backend.reconnects",
        "cluster.backends.live",
        "cluster.backend.inflight",
        // Per-backend in-flight gauge (normalized index).
        "cluster.backend.N.inflight",
        "cluster.failovers",
        "cluster.weight.updates",
        "control.epochs",
        "control.decisions",
        "control.retunes",
        "control.shed.engaged",
        "control.shed.released",
        "control.shed.active",
        "control.queue.pressure",
        "control.sessions.observed",
    };
    for (std::size_t c = 0; c < control::kSessionClassCount; ++c)
        names.insert(std::string("control.class.") +
                     control::sessionClassName(
                         static_cast<control::SessionClass>(c)));
    for (std::size_t s = 0; s < fault::kSiteCount; ++s)
        names.insert(std::string("engine.fault.injected.") +
                     fault::siteName(static_cast<fault::Site>(s)));
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s)
        names.insert(std::string("net.stage.") +
                     telemetry::stageName(
                         static_cast<telemetry::Stage>(s)) +
                     ".ns");
    return names;
}

/** Collapse a shard/worker index to N: "engine.shard.3.frames" ->
 *  "engine.shard.N.frames". */
std::string
normalizeIndexed(const std::string &name)
{
    for (const char *prefix :
         {"engine.shard.", "engine.worker.", "cluster.backend."}) {
        const std::size_t plen = std::string(prefix).size();
        if (name.rfind(prefix, 0) != 0)
            continue;
        std::size_t digits = plen;
        while (digits < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[digits])))
            ++digits;
        if (digits > plen)
            return name.substr(0, plen) + "N" + name.substr(digits);
    }
    return name;
}

/** Every engine.* and net.* instrument name in the snapshot,
 *  indexed instruments normalized. */
std::set<std::string>
observedInstruments(const telemetry::MetricsSnapshot &snapshot)
{
    std::set<std::string> names;
    const auto keep = [&names](const std::string &name) {
        if (name.rfind("engine.", 0) == 0 ||
            name.rfind("net.", 0) == 0 ||
            name.rfind("cluster.", 0) == 0 ||
            name.rfind("control.", 0) == 0)
            names.insert(normalizeIndexed(name));
    };
    for (const auto &counter : snapshot.counters)
        keep(counter.name);
    for (const auto &gauge : snapshot.gauges)
        keep(gauge.name);
    for (const auto &hist : snapshot.histograms)
        keep(hist.name);
    return names;
}

/** One 24-event PathEvents frame for `session` at `sequence`. */
std::vector<std::uint8_t>
eventFrame(std::uint64_t session, std::uint64_t sequence)
{
    std::vector<PathEvent> events;
    for (std::uint32_t i = 0; i < 24; ++i) {
        PathEvent event;
        event.head = i % 4;
        event.path = event.head * 10;
        event.blocks = 4;
        event.branches = 3;
        event.instructions = 30;
        events.push_back(event);
    }
    std::vector<std::uint8_t> frame;
    wire::appendEventFrame(frame, session, sequence, events);
    return frame;
}

/** `count` eventFrame()s for `session` (sequences 0..count-1),
 *  concatenated into one buffer. */
std::vector<std::uint8_t>
eventFrames(std::uint64_t session, std::size_t count)
{
    std::vector<std::uint8_t> bytes;
    for (std::size_t f = 0; f < count; ++f) {
        const std::vector<std::uint8_t> frame = eventFrame(session, f);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
}

/** Connect to `port`, send `bytes` and wait for `replies` answers. */
void
sendAndAwait(std::uint16_t port, const std::vector<std::uint8_t> &bytes,
             std::size_t replies)
{
    net::ClientConfig config;
    config.port = port;
    net::Client client(config);
    ASSERT_TRUE(client.connect());
    ASSERT_TRUE(client.sendFrame(bytes.data(), bytes.size()));
    std::vector<net::PredictionReply> got;
    ASSERT_TRUE(client.awaitResponses(replies, got));
}

std::uint64_t
counterValue(telemetry::TelemetrySession &session, const char *name)
{
    return session.registry().counter(name).get();
}

std::int64_t
gaugeValue(telemetry::TelemetrySession &session, const char *name)
{
    return session.registry().gauge(name).get();
}

net::ServerConfig
fastServerConfig()
{
    net::ServerConfig config;
    config.tickMs = 2;
    config.reactorThreads = 1;
    return config;
}

} // namespace

TEST(ObservabilityAudit, EveryInstrumentRegistersEagerlyAtZero)
{
    telemetry::TelemetrySession session;

    // The fullest configuration: a resilient engine (watchdog on, so
    // the resilience instruments register) behind a span-sampling
    // server. No traffic flows - eager registration means every
    // instrument must already exist at zero.
    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 2;
    engineCfg.sessions.shardCount = 4;
    engineCfg.watchdogIntervalMs = 50;
    engine::Engine eng(engineCfg);

    net::ServerConfig serverCfg;
    serverCfg.spanSampleEvery = 64;
    net::Server server(eng, serverCfg);

    // A configured (never started) router: the cluster.* instruments
    // - including the per-backend in-flight gauge - must register at
    // construction, before any backend is reachable.
    cluster::RouterConfig routerCfg;
    routerCfg.backends = {{"127.0.0.1", 1}};
    cluster::Router router(routerCfg);

    // An attached (never stepped) adaptive controller: every
    // control.* instrument must exist before the first epoch.
    control::Controller controller(eng);

    const std::set<std::string> golden = goldenInstruments();
    const std::set<std::string> observed =
        observedInstruments(session.registry().snapshot());

    std::vector<std::string> undocumented;
    std::set_difference(observed.begin(), observed.end(),
                        golden.begin(), golden.end(),
                        std::back_inserter(undocumented));
    EXPECT_TRUE(undocumented.empty())
        << "instrument(s) registered but missing from the golden "
           "list (add them here AND to the metric table in "
           "docs/OPERATIONS.md): "
        << ::testing::PrintToString(undocumented);

    std::vector<std::string> unregistered;
    std::set_difference(golden.begin(), golden.end(),
                        observed.begin(), observed.end(),
                        std::back_inserter(unregistered));
    EXPECT_TRUE(unregistered.empty())
        << "documented instrument(s) never registered (lazy "
           "registration or a rename): "
        << ::testing::PrintToString(unregistered);

    eng.shutdown();
}

TEST(ObservabilityAudit, RunReportCarriesEveryInstrumentAtZero)
{
    telemetry::TelemetrySession session;

    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 1;
    engineCfg.sessions.shardCount = 2;
    engineCfg.watchdogIntervalMs = 50;
    engine::Engine eng(engineCfg);

    net::ServerConfig serverCfg;
    serverCfg.spanSampleEvery = 64;
    net::Server server(eng, serverCfg);

    std::ostringstream out;
    telemetry::RunReport::capture(session.registry(), "audit")
        .writeJson(out);
    const std::string report = out.str();

    // Spot the indexed and zero-valued instruments a lazy
    // registration scheme would drop.
    for (const char *name :
         {"engine.shard.0.queue.depth", "engine.shard.1.frames",
          "engine.worker.0.busy.ns", "engine.worker.0.idle.ns",
          "engine.table.lock.wait.ns", "net.stage.read.ns",
          "net.stage.write_flush.ns", "net.frames.in",
          "engine.fault.injected.bitflip"}) {
        EXPECT_NE(report.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name << " missing from RunReport JSON";
    }

    eng.shutdown();
}

TEST(ObservabilityAudit, SpanDisabledServerSkipsStageHistograms)
{
    // With spans off the recorder must not register net.stage.*
    // histograms - the disabled path promises "a branch and nothing
    // else", and phantom all-zero stage histograms would suggest a
    // sampling server that never sampled.
    telemetry::TelemetrySession session;

    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 1;
    engineCfg.sessions.shardCount = 2;
    engine::Engine eng(engineCfg);
    net::Server server(eng, net::ServerConfig{});

    const telemetry::MetricsSnapshot snapshot =
        session.registry().snapshot();
    for (const auto &hist : snapshot.histograms)
        EXPECT_EQ(hist.name.rfind("net.stage.", 0),
                  std::string::npos)
            << hist.name << " registered with sampling disabled";

    eng.shutdown();
}

// The registry is process-wide while every *Stats struct belongs to
// one instance: two engines, each behind its own server, each report
// their own frames, and every instrument they share reads the sum.
TEST(ObservabilityStats, InstrumentsSumOverInstancesStatsDoNot)
{
    telemetry::TelemetrySession session;

    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 1;
    engineCfg.sessions.shardCount = 2;
    engine::Engine engineA(engineCfg);
    engine::Engine engineB(engineCfg);
    net::Server serverA(engineA, fastServerConfig());
    net::Server serverB(engineB, fastServerConfig());
    ASSERT_TRUE(serverA.start());
    ASSERT_TRUE(serverB.start());

    sendAndAwait(serverA.port(), eventFrames(1, 5), 5);
    sendAndAwait(serverB.port(), eventFrames(2, 3), 3);
    serverA.stop();
    serverB.stop();

    const engine::EngineStats a = engineA.stats();
    const engine::EngineStats b = engineB.stats();
    EXPECT_EQ(a.framesDecoded, 5u);
    EXPECT_EQ(b.framesDecoded, 3u);
    EXPECT_EQ(counterValue(session, "engine.frames.decoded"), 8u);
    EXPECT_EQ(counterValue(session, "engine.events"),
              a.eventsProcessed + b.eventsProcessed);
    EXPECT_EQ(counterValue(session, "engine.predictions"),
              a.predictions + b.predictions);
    EXPECT_EQ(counterValue(session, "engine.sessions.created"), 2u);
    EXPECT_EQ(a.sessionsCreated, 1u);
    EXPECT_EQ(b.sessionsCreated, 1u);

    const net::NetStats na = serverA.stats();
    const net::NetStats nb = serverB.stats();
    EXPECT_EQ(na.framesIn, 5u);
    EXPECT_EQ(nb.framesIn, 3u);
    EXPECT_EQ(counterValue(session, "net.frames.in"), 8u);
    EXPECT_EQ(counterValue(session, "net.responses.out"), 8u);
    EXPECT_EQ(counterValue(session, "net.bytes.in"),
              na.bytesIn + nb.bytesIn);
    EXPECT_EQ(counterValue(session, "net.connections.accepted"), 2u);
    EXPECT_EQ(counterValue(session, "net.connections.closed"), 2u);
    EXPECT_EQ(gaugeValue(session, "net.connections.active"), 0);
}

// With one engine, one server and one router in the process, every
// scalar *Stats field that has an instrument must equal it once the
// stack is drained.
TEST(ObservabilityStats, EveryInstrumentedScalarMatchesItsInstrument)
{
    telemetry::TelemetrySession session;

    // Watchdog on: the resilience instruments register too.
    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 2;
    engineCfg.sessions.shardCount = 4;
    engineCfg.watchdogIntervalMs = 50;
    engine::Engine eng(engineCfg);
    net::Server server(eng, fastServerConfig());
    ASSERT_TRUE(server.start());

    cluster::RouterConfig routerCfg;
    routerCfg.backends = {{"127.0.0.1", server.port()}};
    routerCfg.tickMs = 2;
    cluster::Router router(routerCfg);
    ASSERT_TRUE(router.start());

    // Line noise ahead of the frames makes both tiers resync.
    const std::vector<std::uint8_t> noise(40, 0xAB);
    std::vector<std::uint8_t> routed = noise;
    for (std::uint64_t session_id = 1; session_id <= 3; ++session_id) {
        const auto frames = eventFrames(session_id, 4);
        routed.insert(routed.end(), frames.begin(), frames.end());
    }
    std::vector<std::uint8_t> direct = noise;
    const auto frames = eventFrames(9, 2);
    direct.insert(direct.end(), frames.begin(), frames.end());

    net::ClientConfig clientCfg;
    clientCfg.port = router.port();
    net::Client viaRouter(clientCfg);
    ASSERT_TRUE(viaRouter.connect());
    ASSERT_TRUE(viaRouter.sendFrame(routed.data(), routed.size()));
    std::vector<net::PredictionReply> replies;
    ASSERT_TRUE(viaRouter.awaitResponses(12, replies));
    sendAndAwait(server.port(), direct, 2);

    // A load hint re-weights the only backend: a rehash, no move.
    router.setBackendWeights({{0, 500}});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (router.stats().weightUpdates == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    router.drain();
    server.drain();

    const engine::EngineStats es = eng.stats();
    const std::vector<std::pair<const char *, std::uint64_t>>
        engineCounters = {
            {"engine.frames.decoded", es.framesDecoded},
            {"engine.frames.rejected", es.framesRejected},
            {"engine.events", es.eventsProcessed},
            {"engine.predictions", es.predictions},
            {"engine.frames.inline", es.framesInline},
            {"engine.backpressure.waits", es.backpressureWaits},
            {"engine.sessions.created", es.sessionsCreated},
            {"engine.sessions.evicted", es.sessionsEvicted},
            {"engine.sessions.evicted.idle", es.sessionsIdleEvicted},
            {"engine.sessions.exported", es.sessionsExported},
            {"engine.sessions.imported", es.sessionsImported},
            {"engine.fault.frames.corrupted", es.fault.corruptFrames},
            {"engine.fault.sessions.poisoned",
             es.fault.sessionsPoisoned},
            {"engine.fault.worker.stalled", es.fault.workersStalled},
            {"engine.recovered.frames.quarantined",
             es.fault.framesQuarantined},
            {"engine.recovered.frames.delayed.delivered",
             es.fault.delayedDelivered},
            {"engine.recovered.sessions.rebuilt",
             es.fault.sessionsRebuilt},
            {"engine.recovered.sessions.readmitted",
             es.fault.sessionsReadmitted},
            {"engine.recovered.backoff.frames",
             es.fault.backoffDroppedFrames},
            {"engine.recovered.shed.frames", es.fault.shedFrames},
            {"engine.recovered.worker.unstalled",
             es.fault.workersUnstalled},
        };
    for (const auto &[name, value] : engineCounters)
        EXPECT_EQ(counterValue(session, name), value) << name;
    EXPECT_EQ(gaugeValue(session, "engine.sessions.live"),
              static_cast<std::int64_t>(es.sessionsLive));
    EXPECT_EQ(es.framesDecoded, 14u);
    EXPECT_EQ(es.sessionsLive, 4u);

    const net::NetStats ns = server.stats();
    const std::vector<std::pair<const char *, std::uint64_t>>
        netCounters = {
            {"net.connections.accepted", ns.accepted},
            {"net.connections.closed", ns.closed},
            {"net.connections.idle.closed", ns.idleClosed},
            {"net.connections.reset", ns.resets},
            {"net.accept.failures", ns.acceptFailures},
            {"net.bytes.in", ns.bytesIn},
            {"net.bytes.out", ns.bytesOut},
            {"net.frames.in", ns.framesIn},
            {"net.responses.out", ns.responsesOut},
            {"net.responses.dropped", ns.responsesDropped},
            {"net.frames.resynced", ns.framesResynced},
            {"net.resync.bytes.skipped", ns.resyncBytesSkipped},
            {"net.read.pauses", ns.readPauses},
        };
    for (const auto &[name, value] : netCounters)
        EXPECT_EQ(counterValue(session, name), value) << name;
    EXPECT_EQ(gaugeValue(session, "net.connections.active"),
              static_cast<std::int64_t>(ns.activeConnections));
    EXPECT_EQ(ns.framesIn, 14u);
    EXPECT_EQ(ns.framesResynced, 1u);

    const cluster::RouterStats rs = router.stats();
    const std::vector<std::pair<const char *, std::uint64_t>>
        routerCounters = {
            {"cluster.connections.accepted", rs.accepted},
            {"cluster.connections.closed", rs.closed},
            {"cluster.frames.in", rs.framesIn},
            {"cluster.frames.routed", rs.framesRouted},
            {"cluster.frames.replayed", rs.framesReplayed},
            {"cluster.migration.frames", rs.migrationFrames},
            {"cluster.migration.bytes", rs.migrationBytes},
            {"cluster.responses.out", rs.responsesOut},
            {"cluster.responses.synthesized", rs.responsesSynthesized},
            {"cluster.responses.dropped", rs.responsesDropped},
            {"cluster.frames.resynced", rs.framesResynced},
            {"cluster.resync.bytes.skipped", rs.resyncBytesSkipped},
            {"cluster.rehash.events", rs.rehashes},
            {"cluster.weight.updates", rs.weightUpdates},
            {"cluster.sessions.migrated", rs.sessionsMigrated},
            {"cluster.backend.reconnects", rs.backendReconnects},
            {"cluster.failovers", rs.failovers},
        };
    for (const auto &[name, value] : routerCounters)
        EXPECT_EQ(counterValue(session, name), value) << name;
    const std::vector<std::pair<const char *, std::size_t>>
        routerGauges = {
            {"cluster.connections.active", rs.activeConnections},
            {"cluster.backends.live", rs.backendsLive},
            {"cluster.backend.inflight", rs.inFlightTotal},
            {"cluster.frames.parked", rs.parkedFrames},
        };
    for (const auto &[name, value] : routerGauges)
        EXPECT_EQ(gaugeValue(session, name),
                  static_cast<std::int64_t>(value))
            << name;
    EXPECT_EQ(rs.framesIn, 12u);
    EXPECT_EQ(rs.framesResynced, 1u);
    EXPECT_EQ(rs.weightUpdates, 1u);

    router.stop();
    server.stop();
    eng.shutdown();
}

// Resilience instruments register only when a resilience feature is
// on, so a default engine leaves RunReports exactly as they were.
TEST(ObservabilityStats, DefaultEngineRegistersNoResilienceInstruments)
{
    telemetry::TelemetrySession session;
    engine::Engine eng(engine::EngineConfig{});
    for (std::uint64_t f = 0; f < 3; ++f)
        ASSERT_TRUE(eng.submit(eventFrame(1, f)));
    eng.drain();

    const telemetry::MetricsSnapshot snapshot =
        session.registry().snapshot();
    for (const auto &counter : snapshot.counters) {
        EXPECT_NE(counter.name.rfind("engine.fault.", 0), 0u)
            << counter.name;
        EXPECT_NE(counter.name.rfind("engine.recovered.", 0), 0u)
            << counter.name;
    }
    EXPECT_EQ(counterValue(session, "engine.frames.decoded"), 3u);
    eng.shutdown();
}
