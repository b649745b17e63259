/**
 * @file
 * Open-loop load generator for the TCP serving layer: N client
 * connections each submit event frames at a fixed rate (open loop:
 * the send schedule does not wait for replies), latencies are
 * measured per frame from send to CRC-verified prediction reply, and
 * the run reports throughput plus exact p50/p99/p999 percentiles
 * computed from the raw samples (the telemetry histograms' log2
 * buckets are too coarse for tail percentiles).
 *
 * By default the bench hosts the full stack in-process - Engine +
 * net::Server on an ephemeral loopback port - which also lets it
 * verify frame conservation across the client/server/engine
 * boundary at drain:
 *
 *   client frames sent  == server frames in + engine rejects
 *   engine submitted    == rejected + injected drops + shed + decoded
 *   engine decoded      == server responses out + responses dropped
 *   client replies      == server responses out
 *
 * With --connect=host:port it drives an external server instead
 * (conservation then reduces to replies == sent).
 *
 * With --cluster=N it hosts a whole serving tier in-process - N
 * Engine + net::Server backends behind one cluster::Router - and
 * verifies frame conservation across all three layers at drain:
 *
 *   loadgen replies     == loadgen frames sent
 *   router frames in    == responses out + synthesized (+0 dropped),
 *                          zero in flight, zero parked
 *   each backend        == its own server/engine conservation
 *   sum(backend in)     == router frames routed (undisturbed runs)
 *
 * --kill-backend=K --kill-after-frames=M stops backend K once the
 * router has routed M frames - an abrupt connection reset followed
 * by connect refusal, driving the router's reconnect probe into
 * failover - and the gate then also requires failovers >= 1 with
 * every accepted frame still answered. --reset-every=R instead arms
 * the victim's ConnReset fault site (every Rth socket op) so the
 * backend drops connections but stays up, exercising the
 * reconnect-and-replay path without failover.
 *
 * Flags:
 *   --connections=<n>   client connections (default 8)
 *   --rate=<fps>        frames/second per connection (default 2000;
 *                       0 = as fast as the socket accepts)
 *   --duration-ms=<ms>  send window per connection (default 2000)
 *   --frame=<n>         events per small frame (default 256)
 *   --mix=<pct>         percent of frames that are large (4x
 *                       --frame events; default 10)
 *   --sessions=<n>      sessions per connection (default 4)
 *   --seed=<u64>        workload seed (default 42)
 *   --reactors=<n>      server reactor threads (default 2)
 *   --workers=<n>       engine worker threads (default 2)
 *   --spans=<n>         stage-span sampling stride for the
 *                       in-process server (default 0 = off); the
 *                       summary then includes per-stage counts and a
 *                       frame-conservation check (every sampled
 *                       decode must reach predict and write-flush)
 *   --connect=<host:port>  drive an external server
 *   --cluster=<n>       host n backends behind an in-process router
 *                       (0 = single server; excludes --connect)
 *   --kill-backend=<k>  cluster mode: backend index to kill mid-run
 *   --kill-after-frames=<m>  kill once the router routed m frames
 *   --reset-every=<r>   cluster mode: arm the victim's ConnReset
 *                       fault site to fire every rth opportunity
 *   --adaptive          attach the adaptive controller to the
 *                       in-process engine: a pump thread runs one
 *                       control epoch every --epoch-ms, an ephemeral
 *                       admin endpoint serves /stats with the
 *                       control_* keys (Server::setStatsAugmenter;
 *                       port printed at startup so engine_top can
 *                       watch the run), and the summary reports
 *                       epochs run and retunes committed
 *   --epoch-ms=<ms>     control epoch period for --adaptive
 *                       (default 100)
 *   --json=<path>       machine-readable summary (the net-smoke and
 *                       cluster-smoke CI jobs feed this to
 *                       compare_bench.py netcheck)
 *   --telemetry-out=<path> RunReport with netload.* gauges
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/router.hh"
#include "common.hh"
#include "control/controller.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "net/admin_endpoint.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"
#include "support/table.hh"
#include "telemetry/percentiles.hh"
#include "telemetry/span.hh"

using namespace hotpath;
using Clock = std::chrono::steady_clock;

namespace
{

/** Everything one connection thread reports back. */
struct ConnResult
{
    std::uint64_t framesSent = 0;
    std::uint64_t repliesReceived = 0;
    std::uint64_t predictions = 0;
    bool broken = false;
    /** Send-to-reply latency samples in microseconds. */
    std::vector<std::uint64_t> latenciesUs;
};

/** Deterministic loop-heavy events (same shape as the engine
 *  benches) so predictions actually fire. */
std::vector<PathEvent>
makeEvents(std::uint64_t seed, std::size_t count)
{
    std::vector<PathEvent> events(count);
    SplitMix64 rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t loop =
            static_cast<std::uint32_t>(rng.next() % 8);
        events[i].path = loop * 10;
        events[i].head = loop;
        events[i].blocks = 4 + loop;
        events[i].branches = 3 + loop;
        events[i].instructions = 30 + 5 * loop;
    }
    return events;
}

struct LoadConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t connections = 8;
    std::uint64_t ratePerConn = 2000;
    std::uint64_t durationMs = 2000;
    std::size_t frameEvents = 256;
    std::uint64_t largePct = 10;
    std::size_t sessionsPerConn = 4;
    std::uint64_t seed = 42;
};

/** One connection's open-loop run: send on schedule, poll replies
 *  opportunistically, then linger until every reply arrived (or the
 *  response timeout expires). */
ConnResult
runConnection(const LoadConfig &cfg, std::size_t conn_index)
{
    ConnResult result;
    net::ClientConfig clientCfg;
    clientCfg.host = cfg.host;
    clientCfg.port = cfg.port;
    net::Client client(clientCfg);
    if (!client.connect()) {
        result.broken = true;
        return result;
    }

    // Pre-encode one small and one large frame payload per session;
    // sequence numbers are patched per send by re-encoding (cheap
    // relative to the socket work, and keeps frames CRC-valid).
    const std::vector<PathEvent> smallEvents =
        makeEvents(cfg.seed + conn_index, cfg.frameEvents);
    const std::vector<PathEvent> largeEvents =
        makeEvents(cfg.seed + conn_index + 7777,
                   cfg.frameEvents * 4);

    SplitMix64 mixRng(cfg.seed * 31 + conn_index);
    std::unordered_map<std::uint64_t, Clock::time_point> inFlight;
    std::vector<net::PredictionReply> replies;
    std::vector<std::uint8_t> frame;

    const auto start = Clock::now();
    const auto sendDeadline =
        start + std::chrono::milliseconds(cfg.durationMs);
    const auto interval =
        cfg.ratePerConn > 0
            ? std::chrono::nanoseconds(1000000000ull /
                                       cfg.ratePerConn)
            : std::chrono::nanoseconds(0);
    auto nextSend = start;
    std::vector<std::uint64_t> sequences(cfg.sessionsPerConn, 0);

    const auto recordReplies = [&]() {
        for (const auto &reply : replies) {
            const std::uint64_t key =
                reply.session * 1000003ull + reply.sequence;
            const auto it = inFlight.find(key);
            if (it != inFlight.end()) {
                const auto us = std::chrono::duration_cast<
                    std::chrono::microseconds>(Clock::now() -
                                               it->second);
                result.latenciesUs.push_back(
                    static_cast<std::uint64_t>(us.count()));
                inFlight.erase(it);
            }
            ++result.repliesReceived;
            result.predictions += reply.predictions.size();
        }
        replies.clear();
    };

    while (true) {
        const auto now = Clock::now();
        if (now >= sendDeadline)
            break;
        if (now >= nextSend) {
            const std::size_t lane =
                static_cast<std::size_t>(mixRng.next()) %
                cfg.sessionsPerConn;
            // Session ids are globally unique per (connection,
            // lane), so server-side sessions never alias.
            const std::uint64_t session =
                1 + conn_index * cfg.sessionsPerConn + lane;
            const bool large =
                mixRng.next() % 100 < cfg.largePct;
            const std::vector<PathEvent> &events =
                large ? largeEvents : smallEvents;
            const std::uint64_t sequence = sequences[lane]++;
            frame.clear();
            wire::appendEventFrame(frame, session, sequence,
                                   events.data(), events.size());
            inFlight.emplace(session * 1000003ull + sequence,
                             Clock::now());
            if (!client.sendFrame(frame.data(), frame.size())) {
                result.broken = true;
                return result;
            }
            ++result.framesSent;
            nextSend += interval;
            if (nextSend + interval * 64 < Clock::now())
                nextSend = Clock::now(); // fell far behind: reset
            if (client.poll(replies, 0) < 0) {
                result.broken = true;
                return result;
            }
            recordReplies();
            continue;
        }
        // Not due yet: block on replies until the next send time
        // instead of spinning (a busy loop starves the server and
        // engine threads on small machines).
        const auto waitMs = std::chrono::duration_cast<
            std::chrono::milliseconds>(nextSend - now);
        const int got = client.poll(
            replies,
            static_cast<std::uint64_t>(
                waitMs.count() > 0 ? waitMs.count() : 0));
        if (got < 0) {
            result.broken = true;
            return result;
        }
        recordReplies();
    }

    // Linger: collect every outstanding reply (bounded by the
    // client's response timeout per poll round).
    const auto lingerDeadline =
        Clock::now() +
        std::chrono::milliseconds(clientCfg.responseTimeoutMs);
    while (result.repliesReceived < result.framesSent &&
           Clock::now() < lingerDeadline) {
        const int got = client.poll(replies, 50);
        if (got < 0)
            break;
        recordReplies();
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::TelemetryScope telemetry(argc, argv, "net_loadgen");

    LoadConfig cfg;
    cfg.connections = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "connections", 8));
    cfg.ratePerConn = bench::flagU64(argc, argv, "rate", 2000);
    cfg.durationMs =
        bench::flagU64(argc, argv, "duration-ms", 2000);
    cfg.frameEvents = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "frame", 256));
    cfg.largePct = bench::flagU64(argc, argv, "mix", 10);
    cfg.sessionsPerConn = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "sessions", 4));
    cfg.seed = bench::seedFlag(argc, argv, 42);
    const std::size_t reactorThreads = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "reactors", 2));
    const std::size_t workerThreads = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "workers", 2));
    const std::uint64_t spanEvery =
        bench::flagU64(argc, argv, "spans", 0);
    const std::string connect =
        bench::flagValue(argc, argv, "connect");
    const std::size_t clusterN = static_cast<std::size_t>(
        bench::flagU64(argc, argv, "cluster", 0));
    const std::uint64_t killBackend = bench::flagU64(
        argc, argv, "kill-backend", ~std::uint64_t{0});
    const std::uint64_t killAfterFrames =
        bench::flagU64(argc, argv, "kill-after-frames", 0);
    const std::uint64_t resetEvery =
        bench::flagU64(argc, argv, "reset-every", 0);
    const bool adaptive = bench::hasFlag(argc, argv, "adaptive");
    const std::uint64_t epochMs =
        bench::flagU64(argc, argv, "epoch-ms", 100);
    const std::string json_path =
        bench::flagValue(argc, argv, "json");
    if (clusterN > 0 && !connect.empty()) {
        std::cerr << "net_loadgen: --cluster and --connect are "
                     "mutually exclusive\n";
        return 1;
    }
    if (adaptive && (clusterN > 0 || !connect.empty())) {
        std::cerr << "net_loadgen: --adaptive requires the "
                     "in-process single-server stack\n";
        return 1;
    }

    // In-process stack unless --connect targets a live server.
    std::unique_ptr<engine::Engine> eng;
    std::unique_ptr<net::Server> server;
    std::unique_ptr<control::Controller> controller;
    std::vector<std::unique_ptr<engine::Engine>> clusterEngines;
    std::vector<std::unique_ptr<net::Server>> clusterServers;
    std::unique_ptr<cluster::Router> router;
    const bool clustered = clusterN > 0;
    const bool inProcess = connect.empty() && !clustered;
    if (clustered) {
        cluster::RouterConfig routerCfg;
        for (std::size_t i = 0; i < clusterN; ++i) {
            engine::EngineConfig engineCfg;
            engineCfg.workerThreads = workerThreads;
            engineCfg.sessions.shardCount = 16;
            clusterEngines.push_back(
                std::make_unique<engine::Engine>(engineCfg));
            net::ServerConfig serverCfg;
            serverCfg.reactorThreads = reactorThreads;
            if (resetEvery > 0 && i == killBackend) {
                serverCfg.faults.seed = cfg.seed;
                serverCfg.faults.site(fault::Site::ConnReset)
                    .everyN = resetEvery;
            }
            clusterServers.push_back(std::make_unique<net::Server>(
                *clusterEngines.back(), serverCfg));
            if (!clusterServers.back()->start()) {
                std::cerr << "net_loadgen: backend " << i
                          << " start failed\n";
                return 1;
            }
            routerCfg.backends.push_back(
                {"127.0.0.1", clusterServers.back()->port()});
        }
        routerCfg.tickMs = 2;
        routerCfg.retryBaseMs = 1;
        routerCfg.connectAttempts = 3;
        routerCfg.retryJitterSeed = cfg.seed;
        routerCfg.adminPort = 0;
        router = std::make_unique<cluster::Router>(routerCfg);
        if (!router->start()) {
            std::cerr << "net_loadgen: router start failed\n";
            return 1;
        }
        cfg.port = router->port();
    } else if (inProcess) {
        engine::EngineConfig engineCfg;
        engineCfg.workerThreads = workerThreads;
        engineCfg.sessions.shardCount = 16;
        eng = std::make_unique<engine::Engine>(engineCfg);
        net::ServerConfig serverCfg;
        serverCfg.reactorThreads = reactorThreads;
        serverCfg.spanSampleEvery = spanEvery;
        if (adaptive)
            serverCfg.adminPort = 0;
        server = std::make_unique<net::Server>(*eng, serverCfg);
        if (adaptive) {
            // Attach the adaptive controller and splice its state
            // into the admin /stats document before the server
            // starts answering. The admin endpoint opens on an
            // ephemeral port so engine_top can watch the run live.
            controller = std::make_unique<control::Controller>(*eng);
            server->setStatsAugmenter(
                [ctl = controller.get()](std::ostream &os) {
                    ctl->appendStats(os);
                });
        }
        if (!server->start()) {
            std::cerr << "net_loadgen: server start failed\n";
            return 1;
        }
        cfg.port = server->port();
        if (adaptive)
            std::cout << "adaptive controller attached; admin "
                         "endpoint on 127.0.0.1:"
                      << server->adminPort() << std::endl;
    } else {
        const std::size_t colon = connect.find(':');
        if (colon == std::string::npos) {
            std::cerr << "net_loadgen: --connect expects "
                         "host:port\n";
            return 1;
        }
        cfg.host = connect.substr(0, colon);
        cfg.port = static_cast<std::uint16_t>(
            std::stoul(connect.substr(colon + 1)));
    }

    std::cout << "Net loadgen: " << cfg.connections
              << " connections x " << cfg.ratePerConn
              << " frames/s x " << cfg.durationMs << " ms, "
              << cfg.frameEvents << " events/frame ("
              << cfg.largePct << "% large), seed " << cfg.seed
              << (clustered
                      ? " [in-process cluster: " +
                            std::to_string(clusterN) + " backends]"
                      : inProcess ? " [in-process server]"
                                  : " [external server]")
              << "\n\n";

    // Cluster kill switch: once the router has routed
    // --kill-after-frames frames, stop the victim backend cold - its
    // connections reset and its port stops answering, so the
    // router's reconnect probe must fail over.
    std::atomic<bool> watcherStop{false};
    std::atomic<bool> killed{false};
    std::thread killWatcher;
    const bool killArmed = clustered && killAfterFrames > 0 &&
                           killBackend < clusterN;
    if (killArmed) {
        killWatcher = std::thread([&] {
            while (!watcherStop.load()) {
                if (router->stats().framesRouted >=
                    killAfterFrames) {
                    clusterServers[killBackend]->stop();
                    killed.store(true);
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        });
    }

    // Adaptive pump: one control epoch every --epoch-ms while the
    // load runs (live mode: the controller retunes sessions while
    // their frames are in flight).
    std::atomic<bool> pumpStop{false};
    std::thread pump;
    if (controller) {
        pump = std::thread([&] {
            while (!pumpStop.load()) {
                controller->step();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(epochMs));
            }
        });
    }

    const auto start = Clock::now();
    std::vector<ConnResult> results(cfg.connections);
    {
        std::vector<std::thread> threads;
        threads.reserve(cfg.connections);
        for (std::size_t c = 0; c < cfg.connections; ++c) {
            threads.emplace_back([&cfg, &results, c] {
                results[c] = runConnection(cfg, c);
            });
        }
        for (auto &thread : threads)
            thread.join();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (killWatcher.joinable()) {
        watcherStop.store(true);
        killWatcher.join();
    }
    if (pump.joinable()) {
        pumpStop.store(true);
        pump.join();
    }

    // Probe the admin plane while the router is still serving - the
    // smoke gate requires /metrics to answer mid-flight, not just
    // after a clean drain.
    bool adminOk = true;
    if (clustered) {
        const auto adminGet = [&](const std::string &path) {
            return net::httpRequest("127.0.0.1", router->adminPort(),
                                    "GET " + path + " HTTP/1.0\r\n\r\n",
                                    2000);
        };
        const std::string health = adminGet("/healthz");
        const std::string metrics = adminGet("/metrics");
        const std::string statsBody = adminGet("/stats");
        // /metrics serves Prometheus text only when a telemetry
        // registry is attached (--telemetry-out); it must answer
        // either way. /stats always carries the router counters.
        adminOk =
            health.find("200 OK") != std::string::npos &&
            metrics.find("200 OK") != std::string::npos &&
            statsBody.find("\"cluster_frames_in\":") !=
                std::string::npos;
    }

    if (router)
        router->drain();
    if (server)
        server->drain();

    ConnResult total;
    std::vector<std::uint64_t> latencies;
    std::size_t brokenConns = 0;
    for (const ConnResult &r : results) {
        total.framesSent += r.framesSent;
        total.repliesReceived += r.repliesReceived;
        total.predictions += r.predictions;
        brokenConns += r.broken ? 1 : 0;
        latencies.insert(latencies.end(), r.latenciesUs.begin(),
                         r.latenciesUs.end());
    }
    const telemetry::Percentiles lat =
        telemetry::percentiles(latencies);
    const std::uint64_t p50 = lat.p50;
    const std::uint64_t p99 = lat.p99;
    const std::uint64_t p999 = lat.p999;
    const std::uint64_t pmax = lat.max;
    const double fps =
        elapsed > 0.0
            ? static_cast<double>(total.repliesReceived) / elapsed
            : 0.0;

    // Conservation at drain (in-process only: we can see all three
    // layers).
    bool conservationOk = total.repliesReceived == total.framesSent;
    engine::EngineStats engineStats;
    net::NetStats netStats;
    cluster::RouterStats routerStats;
    std::vector<net::NetStats> backendNet(clusterN);
    std::vector<engine::EngineStats> backendEngine(clusterN);
    bool routerLedgerOk = true;
    bool backendsOk = true;
    bool fleetSumOk = true;
    std::uint64_t fleetFramesIn = 0;
    if (clustered) {
        routerStats = router->stats();
        router->stop();
        for (std::size_t i = 0; i < clusterN; ++i) {
            clusterServers[i]->stop();
            backendNet[i] = clusterServers[i]->stats();
            backendEngine[i] = clusterEngines[i]->stats();
            fleetFramesIn += backendNet[i].framesIn;
        }

        // Layer 1: the client side - every frame answered once.
        conservationOk = total.repliesReceived == total.framesSent &&
                         routerStats.framesIn == total.framesSent;

        // Layer 2: the router's ledger closed - everything accepted
        // was answered (forwarded or synthesized), nothing left in
        // flight or parked, nothing dropped.
        routerLedgerOk =
            routerStats.framesIn == routerStats.responsesOut +
                                        routerStats.responsesSynthesized +
                                        routerStats.responsesDropped &&
            routerStats.responsesDropped == 0 &&
            routerStats.inFlightTotal == 0 &&
            routerStats.parkedFrames == 0;

        // Layer 3: each surviving backend's own server/engine
        // conservation (the killed backend's mid-stop counters are
        // not meaningful).
        for (std::size_t i = 0; i < clusterN; ++i) {
            if (killed.load() && i == killBackend)
                continue;
            const engine::EngineStats &es = backendEngine[i];
            const net::NetStats &ns = backendNet[i];
            const std::uint64_t absorbed =
                es.framesRejected + es.fault.injectedDrops +
                es.fault.shedFrames + es.framesDecoded;
            backendsOk = backendsOk &&
                         es.framesSubmitted == absorbed &&
                         es.framesDecoded ==
                             ns.responsesOut + ns.responsesDropped;
        }

        // Undisturbed runs close the fleet sum exactly: every frame
        // the router sent arrived somewhere. Kills and resets lose
        // socket-buffered frames (replayed under new ledger
        // entries), so only the ledger invariants apply there.
        if (!killed.load() && resetEvery == 0)
            fleetSumOk = fleetFramesIn ==
                         routerStats.framesRouted +
                             routerStats.framesReplayed +
                             routerStats.migrationFrames;

        conservationOk = conservationOk && routerLedgerOk &&
                         backendsOk && fleetSumOk && adminOk &&
                         (!killed.load() ||
                          routerStats.failovers >= 1);
    } else if (inProcess) {
        server->stop();
        engineStats = eng->stats();
        netStats = server->stats();
        const std::uint64_t absorbed =
            engineStats.framesRejected +
            engineStats.fault.injectedDrops +
            engineStats.fault.shedFrames +
            engineStats.framesDecoded;
        conservationOk =
            total.framesSent == netStats.framesIn &&
            engineStats.framesSubmitted == absorbed &&
            engineStats.framesDecoded ==
                netStats.responsesOut + netStats.responsesDropped &&
            total.repliesReceived == netStats.responsesOut;
    }

    // Stage-span frame conservation (--spans=N, in-process only):
    // every sampled frame that passed decode must also appear in
    // predict, encode, and write-flush - a sampled frame the pipeline
    // lost between stages would skew every per-stage distribution.
    const bool spansOn = inProcess && spanEvery > 0;
    bool spanConservationOk = true;
    std::uint64_t spanFramesSeen = 0;
    std::uint64_t spanFramesSampled = 0;
    std::array<telemetry::StageTotals, telemetry::kStageCount>
        stageTotals{};
    std::array<telemetry::HistogramSnapshot, telemetry::kStageCount>
        stageHists{};
    if (spansOn) {
        const telemetry::SpanRecorder &spans =
            server->spanRecorder();
        spanFramesSeen = spans.framesSeen();
        spanFramesSampled = spans.sampledFrames();
        for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
            stageTotals[s] =
                spans.totals(static_cast<telemetry::Stage>(s));
            stageHists[s] = spans.stageSnapshot(
                static_cast<telemetry::Stage>(s));
        }
        const std::uint64_t decoded =
            stageTotals[static_cast<std::size_t>(
                            telemetry::Stage::Decode)]
                .count;
        const auto stageCount = [&](telemetry::Stage stage) {
            return stageTotals[static_cast<std::size_t>(stage)]
                .count;
        };
        spanConservationOk =
            decoded == stageCount(telemetry::Stage::Predict) &&
            decoded == stageCount(telemetry::Stage::Encode) &&
            decoded == stageCount(telemetry::Stage::WriteFlush);
    }

    TextTable table;
    table.setHeader({"Metric", "Value"});
    const auto row = [&table](const std::string &name,
                              const std::string &value) {
        table.beginRow();
        table.addCell(name);
        table.addCell(value);
    };
    row("frames sent", std::to_string(total.framesSent));
    row("replies received", std::to_string(total.repliesReceived));
    row("predictions served", std::to_string(total.predictions));
    row("replies/sec", std::to_string(static_cast<std::uint64_t>(fps)));
    row("p50 latency (us)", std::to_string(p50));
    row("p99 latency (us)", std::to_string(p99));
    row("p999 latency (us)", std::to_string(p999));
    row("max latency (us)", std::to_string(pmax));
    if (inProcess) {
        row("server read pauses",
            std::to_string(netStats.readPauses));
        row("responses dropped",
            std::to_string(netStats.responsesDropped));
        row("conservation", conservationOk ? "ok" : "VIOLATED");
    }
    if (controller) {
        const control::ControlStats ctlStats = controller->stats();
        row("control epochs", std::to_string(ctlStats.epochs));
        row("control retunes", std::to_string(ctlStats.decisions));
    }
    if (clustered) {
        row("router frames routed",
            std::to_string(routerStats.framesRouted));
        row("router frames replayed",
            std::to_string(routerStats.framesReplayed));
        row("router responses synthesized",
            std::to_string(routerStats.responsesSynthesized));
        row("router failovers",
            std::to_string(routerStats.failovers));
        row("router backend reconnects",
            std::to_string(routerStats.backendReconnects));
        row("backend killed",
            killed.load() ? std::to_string(killBackend) : "none");
        row("admin endpoint", adminOk ? "live" : "DEAD");
        row("router ledger", routerLedgerOk ? "ok" : "VIOLATED");
        row("backend conservation",
            backendsOk ? "ok" : "VIOLATED");
        row("fleet frame sum", fleetSumOk ? "ok" : "VIOLATED");
        row("conservation", conservationOk ? "ok" : "VIOLATED");
    }
    if (spansOn) {
        row("stage spans (1/" + std::to_string(spanEvery) + ")",
            std::to_string(spanFramesSampled) + " of " +
                std::to_string(spanFramesSeen) + " frames");
        row("span conservation",
            spanConservationOk ? "ok" : "VIOLATED");
    }
    table.print(std::cout);
    if (brokenConns > 0) {
        std::cout << "\nwarning: " << brokenConns
                  << " connection(s) broke mid-run\n";
    }

    if (spansOn) {
        std::cout << "\nSampled pipeline stage latencies ("
                  << spanFramesSampled << " of " << spanFramesSeen
                  << " frames):\n";
        TextTable stageTable;
        stageTable.setHeader({"Stage", "Samples", "p50 (us)",
                              "p99 (us)", "Mean (us)"});
        for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
            stageTable.beginRow();
            stageTable.addCell(telemetry::stageName(
                static_cast<telemetry::Stage>(s)));
            stageTable.addCell(stageTotals[s].count);
            stageTable.addCell(
                static_cast<double>(
                    telemetry::percentileFromHistogram(
                        stageHists[s], 0.50)) /
                1000.0);
            stageTable.addCell(
                static_cast<double>(
                    telemetry::percentileFromHistogram(
                        stageHists[s], 0.99)) /
                1000.0);
            stageTable.addCell(
                stageTotals[s].count == 0
                    ? 0.0
                    : static_cast<double>(stageTotals[s].sumNs) /
                          static_cast<double>(
                              stageTotals[s].count) /
                          1000.0);
        }
        stageTable.print(std::cout);
    }

    // Publish the summary as netload.* gauges so --telemetry-out
    // folds it into the RunReport.
    if (auto *g = telemetry::gauge("netload.frames.sent"))
        g->set(static_cast<std::int64_t>(total.framesSent));
    if (auto *g = telemetry::gauge("netload.replies.received"))
        g->set(static_cast<std::int64_t>(total.repliesReceived));
    if (auto *g = telemetry::gauge("netload.predictions.served"))
        g->set(static_cast<std::int64_t>(total.predictions));
    if (auto *g = telemetry::gauge("netload.latency.p50.us"))
        g->set(static_cast<std::int64_t>(p50));
    if (auto *g = telemetry::gauge("netload.latency.p99.us"))
        g->set(static_cast<std::int64_t>(p99));
    if (auto *g = telemetry::gauge("netload.latency.p999.us"))
        g->set(static_cast<std::int64_t>(p999));
    if (auto *g = telemetry::gauge("netload.conservation.ok"))
        g->set(conservationOk ? 1 : 0);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n"
            << "  \"connections\": " << cfg.connections << ",\n"
            << "  \"rate_per_connection\": " << cfg.ratePerConn
            << ",\n"
            << "  \"duration_ms\": " << cfg.durationMs << ",\n"
            << "  \"frame_events\": " << cfg.frameEvents << ",\n"
            << "  \"large_pct\": " << cfg.largePct << ",\n"
            << "  \"seed\": " << cfg.seed << ",\n"
            << "  \"in_process\": " << (inProcess ? "true" : "false")
            << ",\n"
            << "  \"frames_sent\": " << total.framesSent << ",\n"
            << "  \"replies_received\": " << total.repliesReceived
            << ",\n"
            << "  \"predictions_served\": " << total.predictions
            << ",\n"
            << "  \"broken_connections\": " << brokenConns << ",\n"
            << "  \"replies_per_second\": " << fps << ",\n"
            << "  \"latency_us\": {\"p50\": " << p50
            << ", \"p99\": " << p99 << ", \"p999\": " << p999
            << ", \"max\": " << pmax
            << ", \"samples\": " << latencies.size() << "},\n";
        if (clustered) {
            out << "  \"cluster\": {\n"
                << "    \"backends\": " << clusterN << ",\n"
                << "    \"killed_backend\": "
                << (killed.load()
                        ? static_cast<std::int64_t>(killBackend)
                        : -1)
                << ",\n"
                << "    \"kill_after_frames\": " << killAfterFrames
                << ",\n"
                << "    \"reset_every\": " << resetEvery << ",\n"
                << "    \"admin_ok\": "
                << (adminOk ? "true" : "false") << ",\n"
                << "    \"router\": {"
                << "\"frames_in\": " << routerStats.framesIn
                << ", \"frames_routed\": "
                << routerStats.framesRouted
                << ", \"frames_replayed\": "
                << routerStats.framesReplayed
                << ", \"migration_frames\": "
                << routerStats.migrationFrames
                << ", \"responses_out\": "
                << routerStats.responsesOut
                << ", \"responses_synthesized\": "
                << routerStats.responsesSynthesized
                << ", \"responses_dropped\": "
                << routerStats.responsesDropped
                << ", \"failovers\": " << routerStats.failovers
                << ", \"backend_reconnects\": "
                << routerStats.backendReconnects
                << ", \"inflight\": " << routerStats.inFlightTotal
                << ", \"parked\": " << routerStats.parkedFrames
                << ", \"backends_live\": "
                << routerStats.backendsLive << "},\n";
            const auto jsonArray = [&out](const char *key,
                                          auto &&value,
                                          std::size_t n) {
                out << "    \"" << key << "\": [";
                for (std::size_t i = 0; i < n; ++i)
                    out << (i ? ", " : "") << value(i);
                out << "],\n";
            };
            jsonArray("backend_frames_in",
                      [&](std::size_t i) {
                          return backendNet[i].framesIn;
                      },
                      clusterN);
            jsonArray("backend_responses_out",
                      [&](std::size_t i) {
                          return backendNet[i].responsesOut;
                      },
                      clusterN);
            jsonArray("backend_frames_decoded",
                      [&](std::size_t i) {
                          return backendEngine[i].framesDecoded;
                      },
                      clusterN);
            out << "    \"router_ledger_ok\": "
                << (routerLedgerOk ? "true" : "false") << ",\n"
                << "    \"backends_ok\": "
                << (backendsOk ? "true" : "false") << ",\n"
                << "    \"fleet_sum_ok\": "
                << (fleetSumOk ? "true" : "false") << "\n"
                << "  },\n";
        }
        if (inProcess) {
            out << "  \"server\": {"
                << "\"frames_in\": " << netStats.framesIn
                << ", \"responses_out\": " << netStats.responsesOut
                << ", \"responses_dropped\": "
                << netStats.responsesDropped
                << ", \"read_pauses\": " << netStats.readPauses
                << ", \"accepted\": " << netStats.accepted << "},\n"
                << "  \"engine\": {"
                << "\"submitted\": " << engineStats.framesSubmitted
                << ", \"rejected\": " << engineStats.framesRejected
                << ", \"decoded\": " << engineStats.framesDecoded
                << ", \"inline\": " << engineStats.framesInline
                << ", \"shed\": " << engineStats.fault.shedFrames
                << ", \"predictions\": " << engineStats.predictions
                << "},\n";
        }
        if (controller) {
            const control::ControlStats ctlStats =
                controller->stats();
            out << "  \"control\": {"
                << "\"epochs\": " << ctlStats.epochs
                << ", \"retunes\": " << ctlStats.decisions
                << ", \"sessions_observed\": "
                << ctlStats.sessionsObserved << "},\n";
        }
        if (spansOn) {
            out << "  \"stage_spans\": {"
                << "\"sample_every\": " << spanEvery
                << ", \"frames_seen\": " << spanFramesSeen
                << ", \"sampled\": " << spanFramesSampled;
            for (std::size_t s = 0; s < telemetry::kStageCount;
                 ++s) {
                const char *name = telemetry::stageName(
                    static_cast<telemetry::Stage>(s));
                out << ", \"" << name
                    << "\": " << stageTotals[s].count << ", \""
                    << name << "_p50_ns\": "
                    << telemetry::percentileFromHistogram(
                           stageHists[s], 0.50)
                    << ", \"" << name << "_p99_ns\": "
                    << telemetry::percentileFromHistogram(
                           stageHists[s], 0.99)
                    << ", \"" << name << "_sum_ns\": "
                    << stageTotals[s].sumNs;
            }
            out << ", \"conservation_ok\": "
                << (spanConservationOk ? "true" : "false")
                << "},\n";
        }
        out << "  \"conservation_ok\": "
            << (conservationOk ? "true" : "false") << "\n"
            << "}\n";
    }
    return conservationOk && spanConservationOk ? 0 : 1;
}
