/**
 * @file
 * Serving demo: the streaming prediction engine fed by several
 * concurrent clients over the binary wire format - in-process, or
 * split across a TCP connection with the net:: serving layer.
 *
 * Three modes:
 *
 *   --inproc (default)  Four producer threads each encode their own
 *       clients' path-event streams into CRC-framed wire batches and
 *       submit them to a shared 4-worker engine - the shape of a
 *       profiling service where many instrumented processes ship
 *       branch events to one predictor box.
 *
 *   --serve [--port=<n>] [--admin-port=<n>] [--spans=<n>]  Host the
 *       same engine behind the epoll TCP server and block until
 *       SIGTERM/SIGINT, then drain gracefully (every accepted frame
 *       answered) and print the serving stats. --admin-port exposes
 *       the HTTP introspection endpoint (/metrics, /healthz,
 *       /stats; 0 = ephemeral) that examples/engine_top polls;
 *       --spans sets the stage-span sampling stride (default 64,
 *       0 = off).
 *
 *   --connect=<host:port>  Run the 12-client workload against a
 *       --serve process over TCP and print the per-session
 *       predictions assembled from the reply frames - byte-identical
 *       to what --inproc computes (tests/net_test.cc asserts this).
 *
 *   --route=<n> [--admin-port=<n>]  Host a whole cluster tier
 *       in-process - n Engine + net::Server backends behind one
 *       consistent-hash cluster::Router - run the same 12-client
 *       workload through the router, and print the per-session
 *       predictions plus the routing topology (which backend owned
 *       which sessions, per-backend frames). --admin-port exposes
 *       the ROUTER's introspection endpoint (/metrics, /healthz,
 *       /topology, /stats) that examples/engine_top renders with
 *       per-backend columns.
 *
 * Shared flags:
 *   --seed=<u64>   workload synthesis seed (default 42)
 *   --report       print the telemetry RunReport JSON on stdout
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "support/table.hh"
#include "telemetry/run_report.hh"
#include "telemetry/telemetry.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

constexpr std::size_t kProducers = 4;
constexpr std::size_t kClientsPerProducer = 3;
constexpr std::size_t kEventsPerFrame = 256;

std::uint64_t
seedArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--seed=", 7) == 0)
            return std::strtoull(argv[i] + 7, nullptr, 10);
    }
    return 42;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

std::string
valueArg(int argc, char **argv, const char *prefix)
{
    const std::size_t len = std::strlen(prefix);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix, len) == 0)
            return std::string(argv[i] + len);
    }
    return "";
}

engine::EngineConfig
engineConfig()
{
    engine::EngineConfig config;
    config.workerThreads = 4;
    config.sessions.shardCount = 16;
    config.sessions.session.predictionDelay = 50;
    return config;
}

/** One client session's calibrated event stream. */
std::vector<PathEvent>
sessionStream(std::uint64_t seed, std::uint64_t session_id)
{
    const std::vector<SpecTarget> &targets = specTargets();
    WorkloadConfig wconfig;
    wconfig.flowScale = 1e-4;
    wconfig.seed = seed + session_id;
    CalibratedWorkload workload(
        targets[(session_id - 1) % targets.size()], wconfig);
    return workload.materializeStream();
}

void
printEngineTotals(const engine::Engine &eng)
{
    const engine::EngineStats stats = eng.stats();
    std::cout << "\nEngine totals: " << stats.framesDecoded
              << " frames decoded, " << stats.framesRejected
              << " rejected, " << stats.eventsProcessed << " events, "
              << stats.predictions << " predictions, "
              << stats.sessionsLive << " sessions live, "
              << stats.backpressureWaits << " backpressure waits\n";
    std::cout << "Queue high-water marks (frames):";
    for (std::size_t hw : stats.queueHighWater)
        std::cout << " " << hw;
    std::cout << "\n";
}

/** The original demo: producers and engine in one process. */
int
runInproc(std::uint64_t seed)
{
    engine::Engine eng(engineConfig());

    // Each producer owns a disjoint set of client sessions - one
    // session's frames must come from one producer to keep their
    // submission order (the engine's determinism contract).
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t c = 0; c < kClientsPerProducer; ++c) {
                const std::uint64_t session_id =
                    1 + p * kClientsPerProducer + c;
                const std::vector<PathEvent> stream =
                    sessionStream(seed, session_id);
                std::uint64_t sequence = 0;
                for (std::size_t i = 0; i < stream.size();
                     i += kEventsPerFrame) {
                    const std::size_t n = std::min(
                        kEventsPerFrame, stream.size() - i);
                    eng.submitEvents(session_id, sequence++,
                                     stream.data() + i, n);
                }
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    eng.drain();

    std::cout << "Per-session results (12 clients, 4 producers, "
                 "4 workers, seed "
              << seed << "):\n\n";
    TextTable table;
    table.setHeader({"Session", "Frames", "Events", "Cached",
                     "Interpreted", "Predictions"});
    for (std::uint64_t id = 1;
         id <= kProducers * kClientsPerProducer; ++id) {
        eng.withSessionStats(id, [&](const engine::Session &s) {
            const engine::SessionStats &st = s.stats();
            table.beginRow();
            table.addCell(id);
            table.addCell(st.framesApplied);
            table.addCell(st.eventsProcessed);
            table.addCell(st.cachedEvents);
            table.addCell(st.interpretedEvents);
            table.addCell(st.predictions);
        });
    }
    table.print(std::cout);

    printEngineTotals(eng);
    eng.shutdown();
    return 0;
}

/** Host the engine behind the TCP server until SIGTERM/SIGINT. */
int
runServe(std::uint16_t port, int admin_port,
         std::uint64_t span_every)
{
    engine::Engine eng(engineConfig());
    net::ServerConfig serverCfg;
    serverCfg.port = port;
    serverCfg.reactorThreads = 2;
    serverCfg.adminPort = admin_port;
    serverCfg.spanSampleEvery = span_every;
    net::Server server(eng, serverCfg);
    net::Server::installSignalHandlers();
    if (!server.start())
        return 1;

    std::cout << "prediction_service: serving on 127.0.0.1:"
              << server.port()
              << " (SIGTERM/SIGINT drains and exits)\n";
    if (admin_port >= 0)
        std::cout << "prediction_service: admin on http://127.0.0.1:"
                  << server.adminPort()
                  << " (/metrics /healthz /stats), stage spans 1/"
                  << span_every << "\n";
    std::cout << std::flush;
    while (!net::Server::signalDrainRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cout << "prediction_service: draining...\n";
    server.drain();
    server.stop();

    const net::NetStats stats = server.stats();
    std::cout << "Served " << stats.framesIn << " frames over "
              << stats.accepted << " connections: "
              << stats.responsesOut << " replies, "
              << stats.responsesDropped << " dropped, "
              << stats.framesResynced << " resyncs, "
              << stats.readPauses << " read pauses\n";
    printEngineTotals(eng);
    eng.shutdown();
    return 0;
}

/** Run the 12-client workload against a --serve process. */
int
runConnect(const std::string &target, std::uint64_t seed)
{
    const std::size_t colon = target.find(':');
    if (colon == std::string::npos) {
        std::cerr << "--connect expects host:port\n";
        return 1;
    }
    net::ClientConfig clientCfg;
    clientCfg.host = target.substr(0, colon);
    clientCfg.port = static_cast<std::uint16_t>(
        std::stoul(target.substr(colon + 1)));
    net::Client client(clientCfg);
    if (!client.connect()) {
        std::cerr << "connect to " << target << " failed after "
                  << clientCfg.connectAttempts << " attempts\n";
        return 1;
    }

    std::uint64_t framesSent = 0;
    std::map<std::uint64_t, std::uint64_t> framesPerSession;
    for (std::uint64_t id = 1;
         id <= kProducers * kClientsPerProducer; ++id) {
        const std::vector<PathEvent> stream =
            sessionStream(seed, id);
        std::uint64_t sequence = 0;
        for (std::size_t i = 0; i < stream.size();
             i += kEventsPerFrame) {
            const std::size_t n =
                std::min(kEventsPerFrame, stream.size() - i);
            if (!client.sendEvents(id, sequence++,
                                   stream.data() + i, n)) {
                std::cerr << "connection broke mid-stream\n";
                return 1;
            }
            ++framesSent;
            ++framesPerSession[id];
        }
    }

    std::vector<net::PredictionReply> replies;
    if (!client.awaitResponses(framesSent, replies)) {
        std::cerr << "timed out waiting for replies ("
                  << replies.size() << "/" << framesSent << ")\n";
        return 1;
    }

    std::map<std::uint64_t, std::uint64_t> predictions;
    for (const auto &reply : replies)
        predictions[reply.session] += reply.predictions.size();

    std::cout << "Per-session results over TCP (" << target
              << ", seed " << seed << "):\n\n";
    TextTable table;
    table.setHeader({"Session", "Frames", "Replies", "Predictions"});
    for (const auto &[id, frames] : framesPerSession) {
        table.beginRow();
        table.addCell(id);
        table.addCell(frames);
        table.addCell(frames); // one reply per frame by contract
        table.addCell(predictions[id]);
    }
    table.print(std::cout);

    const net::ClientStats &stats = client.stats();
    std::cout << "\nClient totals: " << stats.framesSent
              << " frames sent (" << stats.bytesOut << " bytes), "
              << stats.responsesReceived << " replies ("
              << stats.bytesIn << " bytes), " << stats.resyncs
              << " resyncs\n";
    return 0;
}

/** Host n backends behind an in-process router and run the
 *  12-client workload through it. */
int
runRoute(std::size_t backend_count, std::uint64_t seed,
         int admin_port)
{
    if (backend_count == 0) {
        std::cerr << "--route expects at least one backend\n";
        return 1;
    }
    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::vector<std::unique_ptr<net::Server>> servers;
    cluster::RouterConfig routerCfg;
    for (std::size_t i = 0; i < backend_count; ++i) {
        engines.push_back(
            std::make_unique<engine::Engine>(engineConfig()));
        net::ServerConfig serverCfg;
        serverCfg.reactorThreads = 2;
        servers.push_back(std::make_unique<net::Server>(
            *engines.back(), serverCfg));
        if (!servers.back()->start()) {
            std::cerr << "backend " << i << " start failed\n";
            return 1;
        }
        routerCfg.backends.push_back(
            {"127.0.0.1", servers.back()->port()});
    }
    routerCfg.adminPort = admin_port;
    cluster::Router router(routerCfg);
    if (!router.start()) {
        std::cerr << "router start failed\n";
        return 1;
    }
    std::cout << "prediction_service: routing over "
              << backend_count << " backends on 127.0.0.1:"
              << router.port() << "\n";
    if (admin_port >= 0)
        std::cout << "prediction_service: router admin on "
                     "http://127.0.0.1:"
                  << router.adminPort()
                  << " (/metrics /healthz /topology /stats)\n";

    const int rc =
        runConnect("127.0.0.1:" + std::to_string(router.port()),
                   seed);
    router.drain();
    const cluster::RouterStats stats = router.stats();
    const std::vector<cluster::BackendSnapshot> topo =
        router.topology();
    router.stop();
    for (auto &server : servers)
        server->stop();
    if (rc != 0)
        return rc;

    std::cout << "\nRouting topology (ring seed "
              << cluster::HashRing::kSeed << ", "
              << cluster::HashRing::kPointsPerNode
              << " points/backend):\n\n";
    TextTable table;
    table.setHeader({"Backend", "Port", "Alive", "Sessions",
                     "Frames sent"});
    for (const cluster::BackendSnapshot &row : topo) {
        table.beginRow();
        table.addCell(row.id);
        table.addCell(std::to_string(row.port));
        table.addCell(row.alive ? "yes" : "no");
        table.addCell(row.sessionsOwned);
        table.addCell(row.framesSent);
    }
    table.print(std::cout);

    std::cout << "\nRouter totals: " << stats.framesIn
              << " frames in, " << stats.framesRouted << " routed, "
              << stats.responsesOut << " replies, "
              << stats.sessionsMigrated << " migrations, "
              << stats.failovers << " failovers\n";
    for (std::size_t i = 0; i < backend_count; ++i) {
        std::cout << "\nBackend " << i << ":";
        printEngineTotals(*engines[i]);
        engines[i]->shutdown();
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t seed = seedArg(argc, argv);
    const bool want_report = hasFlag(argc, argv, "--report");

    // Attach telemetry before the engine so it finds the registry.
    telemetry::TelemetrySession telemetry("");

    int rc = 0;
    const std::string target = valueArg(argc, argv, "--connect=");
    if (hasFlag(argc, argv, "--serve")) {
        const std::string port = valueArg(argc, argv, "--port=");
        const std::string admin =
            valueArg(argc, argv, "--admin-port=");
        const std::string spans = valueArg(argc, argv, "--spans=");
        rc = runServe(
            static_cast<std::uint16_t>(
                port.empty() ? 0 : std::stoul(port)),
            admin.empty() ? -1 : std::stoi(admin),
            // Serve mode profiles itself by default: 1-in-64 stage
            // sampling (the perf-smoke-gated rate); --spans=0 turns
            // it off.
            spans.empty() ? 64 : std::strtoull(spans.c_str(),
                                               nullptr, 10));
    } else if (!target.empty()) {
        rc = runConnect(target, seed);
    } else if (const std::string route =
                   valueArg(argc, argv, "--route=");
               !route.empty()) {
        const std::string admin =
            valueArg(argc, argv, "--admin-port=");
        rc = runRoute(static_cast<std::size_t>(std::stoul(route)),
                      seed, admin.empty() ? -1 : std::stoi(admin));
    } else {
        rc = runInproc(seed);
    }

    if (rc == 0 && want_report) {
        std::cout << "\n";
        telemetry::RunReport::capture(telemetry.registry(),
                                      "prediction_service")
            .writeJson(std::cout);
    }
    return rc;
}
