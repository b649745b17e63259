/**
 * @file
 * The `serve` and `route` workloads: an open loop over TCP.
 *
 * One generator thread drives 4 net::Client connections with 4
 * sessions each, sending 256-event frames of calibrated streams
 * (encoded at set-up) at a fixed 4,000 frames/s, about 1M events/s.
 * It busy-polls its sockets through the send window instead of
 * sleeping, times each frame from its scheduled send time, and
 * records how late it ran.
 *
 *  - serve: the target is one net::Server (1 reactor) over an
 *    engine::Engine with 2 workers, so per-frame socket work and the
 *    worker park/wake path dominate.
 *  - route: the target is a cluster::Router in front of 2 net::Server
 *    backends whose engines are serial (workers = 0, 1 reactor
 *    each), so the router hop and its pipelined backend connections
 *    carry the difference.
 *
 * Either server sustains a multiple of the offered rate, so the
 * latency measured is service time, not a growing backlog.
 */

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <deque>

#include "bench.hh"
#include "cluster/router.hh"
#include "engine/engine.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "telemetry/span.hh"

namespace perfbench
{

namespace
{

namespace net = hotpath::net;
namespace cluster = hotpath::cluster;
namespace telemetry = hotpath::telemetry;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSessions = 16;
constexpr std::uint32_t kFrameEvents = 256;
/** 4,000 frames/s. */
constexpr std::int64_t kIntervalNs = 250'000;
constexpr std::size_t kBackends = 2;
constexpr int kSetups = 3;
/** Traced run: server stage spans and client spans on 1 frame in
 *  this many. */
constexpr std::uint64_t kSpanEvery = 16;
/** How long the generator waits for the last answers. */
constexpr std::int64_t kLingerNs = 2'000'000'000;

engine::EngineConfig
engineConfig(std::size_t workers)
{
    // Serving defaults: tau 50, uncapped fragment cache, Block
    // policy, 16 shards.
    engine::EngineConfig config;
    config.workerThreads = workers;
    config.sessions.shardCount = 16;
    return config;
}

/** One set-up: inputs, the serving stack and connected clients.
 *  Members are destroyed in reverse: clients, router, servers,
 *  engines. */
struct Stack
{
    StreamSet streams;
    std::vector<std::unique_ptr<engine::Engine>> engines;
    std::vector<std::unique_ptr<net::Server>> servers;
    std::unique_ptr<cluster::Router> router;
    std::vector<std::unique_ptr<net::Client>> clients;
    std::int64_t setupNs = 0;
};

std::unique_ptr<Stack>
setUp(std::uint64_t seed, bool routed, bool traced, Result &result)
{
    const std::int64_t start = nowNs();
    auto stack = std::make_unique<Stack>();
    stack->streams = buildStreams(seed, kSessions, kFrameEvents);

    net::ServerConfig serverConfig;
    serverConfig.reactorThreads = 1;
    serverConfig.spanSampleEvery = traced ? kSpanEvery : 0;
    const std::size_t backends = routed ? kBackends : 1;
    cluster::RouterConfig routerConfig;
    for (std::size_t b = 0; b < backends; ++b) {
        stack->engines.push_back(std::make_unique<engine::Engine>(
            engineConfig(routed ? 0 : 2)));
        stack->servers.push_back(std::make_unique<net::Server>(
            *stack->engines.back(), serverConfig));
        if (!stack->servers.back()->start()) {
            result.fail("server did not start");
            return nullptr;
        }
        routerConfig.backends.push_back(
            {"127.0.0.1", stack->servers.back()->port()});
    }
    std::uint16_t port = stack->servers.front()->port();
    if (routed) {
        stack->router = std::make_unique<cluster::Router>(routerConfig);
        if (!stack->router->start()) {
            result.fail("router did not start");
            return nullptr;
        }
        port = stack->router->port();
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
        net::ClientConfig clientConfig;
        clientConfig.port = port;
        stack->clients.push_back(
            std::make_unique<net::Client>(clientConfig));
        if (!stack->clients.back()->connect()) {
            result.fail("client could not connect");
            return nullptr;
        }
    }
    stack->setupNs = nowNs() - start;
    return stack;
}

/** What one timed run measured. */
struct Phase
{
    std::vector<FrameRecord> records;
    HostRecord host;
    Slices slices{0, 1.0};
    double peakRssMb = 0;
    std::int64_t wallNs = 0;
    std::int64_t programCpuNs = 0;
    std::uint64_t eventsAnswered = 0;
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
    /** Replies that matched no outstanding frame, or the wrong one. */
    std::uint64_t strayReplies = 0;
    std::uint64_t brokenConnections = 0;
};

/** The open-loop generator; see the file comment. */
Phase
drive(Stack &stack, double seconds, SpanLog *spans)
{
    Phase phase;
    const std::vector<SessionStream> &sessions = stack.streams.sessions;
    const std::uint64_t total = static_cast<std::uint64_t>(
        (seconds * 1e9 + kWarmupNs) / static_cast<double>(kIntervalNs));
    phase.records.reserve(total);
    phase.host.lateNs.reserve(total);
    std::vector<std::uint32_t> frameOf;
    frameOf.reserve(total);
    std::vector<std::uint64_t> sentTo(kSessions, 0);
    std::vector<std::deque<std::size_t>> outstanding(kSessions);
    std::vector<pollfd> fds(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c)
        fds[c] = {stack.clients[c]->socketFd(), POLLIN, 0};
    std::vector<net::PredictionReply> replies;

    // Wake for each send on time, not up to 50 us late.
    prctl(PR_SET_TIMERSLACK, 1UL);
    const std::int64_t cpuStart = processCpuNs();
    const std::int64_t genStart = threadCpuNs();
    const std::int64_t start = nowNs() + 1'000'000;
    phase.slices = Slices(start + kWarmupNs, seconds);
    std::uint64_t k = 0;
    std::uint64_t lost = 0;
    while (true) {
        std::int64_t now = nowNs();
        phase.host.turn(now);
        if (phase.slices.due(now))
            phase.slices.read({now, processCpuNs() - threadCpuNs(),
                               phase.eventsAnswered});

        // Send every frame that is due. Frame k goes to session
        // k % 16 on connection (k % 16) % 4.
        while (k < total && start + static_cast<std::int64_t>(k) *
                                        kIntervalNs <=
                                now) {
            const std::size_t s = k % kSessions;
            const SessionStream &stream = sessions[s];
            const std::uint32_t f = static_cast<std::uint32_t>(
                sentTo[s]++ % stream.frames());
            const std::int64_t due =
                start + static_cast<std::int64_t>(k) * kIntervalNs;
            phase.records.push_back(
                {static_cast<std::uint32_t>(s), due, -1, 0});
            frameOf.push_back(f);
            phase.host.lateNs.push_back(now - due);
            net::Client &client = *stack.clients[s % kConnections];
            if (client.sendFrame(stream.bytes->data() + stream.offsets[f],
                                 stream.lengths[f])) {
                outstanding[s].push_back(k);
                ++phase.sent;
            } else {
                ++lost;
            }
            if (spans && k % kSpanEvery == 0) {
                const std::int64_t end = nowNs();
                spans->add("loadgen.late", k, "client.frame", due, now);
                spans->add("client.send", k, "client.frame", now, end);
            }
            ++k;
            now = nowNs();
        }

        // Wait for answers until the next frame is due (after the
        // last one, in short naps that do not read as host stalls).
        const std::int64_t waitNs =
            k < total ? std::max<std::int64_t>(
                            0, start +
                                   static_cast<std::int64_t>(k) *
                                       kIntervalNs -
                                   nowNs())
                      : kIntervalNs;
        const timespec timeout{waitNs / 1'000'000'000,
                               waitNs % 1'000'000'000};
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) > 0) {
            for (std::size_t c = 0; c < kConnections; ++c) {
                if (fds[c].fd < 0 || fds[c].revents == 0)
                    continue;
                const std::int64_t readStart = nowNs();
                replies.clear();
                const int got = stack.clients[c]->poll(replies, 0);
                const std::int64_t decoded = nowNs();
                if (got < 0) {
                    ++phase.brokenConnections;
                    fds[c].fd = -1;
                }
                for (const net::PredictionReply &reply : replies) {
                    const std::uint64_t s = reply.session - 1;
                    if (reply.isState || s >= kSessions ||
                        outstanding[s].empty()) {
                        ++phase.strayReplies;
                        continue;
                    }
                    const std::size_t i = outstanding[s].front();
                    outstanding[s].pop_front();
                    ++phase.answered;
                    if (reply.sequence != frameOf[i]) {
                        ++phase.strayReplies;
                        continue;
                    }
                    FrameRecord &r = phase.records[i];
                    r.latencyNs = decoded - r.dueNs;
                    r.digest = digest(reply.predictions.data(),
                                      reply.predictions.size());
                    phase.eventsAnswered +=
                        sessions[s].eventsIn(frameOf[i]);
                    if (spans && i % kSpanEvery == 0) {
                        spans->add("client.reply_decode", i,
                                   "client.frame", readStart, decoded);
                        spans->add("client.frame", i, "", r.dueNs,
                                   decoded);
                    }
                }
            }
        }

        if (k == total && phase.answered + lost == total &&
            phase.slices.complete())
            break;
        if (k == total && now > start +
                                    static_cast<std::int64_t>(total) *
                                        kIntervalNs +
                                    kLingerNs)
            break;
    }
    const std::int64_t end = nowNs();
    phase.peakRssMb = peakRssMb();
    phase.wallNs = end - start;
    phase.programCpuNs =
        (processCpuNs() - cpuStart) - (threadCpuNs() - genStart);
    phase.host.threads = liveThreads();
    return phase;
}

/** Stage means (exact sumNs / count) over the servers' recorders. */
struct StageMeans
{
    double us[telemetry::kStageCount] = {};

    double
    operator[](telemetry::Stage stage) const
    {
        return us[static_cast<std::size_t>(stage)];
    }

    double
    sum() const
    {
        double total = 0;
        for (double v : us)
            total += v;
        return total;
    }
};

/** Layer counters read after the drain. */
struct Ledger
{
    StageMeans stages;
    std::uint64_t readPauses = 0;
    std::uint64_t responsesDropped = 0;
    std::uint64_t busyNs = 0;
    std::uint64_t idleNs = 0;
    cluster::RouterStats router;
    double backendSkew = 0;
};

/**
 * Drain the stack and check the conservation ledgers net_loadgen
 * checks: client/server/engine for every server, and for the router
 * an empty ledger (nothing in flight or parked, nothing dropped)
 * plus an exact fleet sum.
 */
Ledger
drainAndCheck(Stack &stack, const Phase &phase, Result &result)
{
    Ledger ledger;
    std::uint64_t clientSent = 0;
    std::uint64_t clientReplies = 0;
    for (const auto &client : stack.clients) {
        clientSent += client->stats().framesSent;
        clientReplies += client->stats().responsesReceived;
    }
    if (clientSent != phase.sent || clientReplies != phase.answered)
        result.fail("client counters disagree with the generator");
    if (phase.strayReplies || phase.brokenConnections)
        result.fail(std::to_string(phase.strayReplies) +
                    " stray replies, " +
                    std::to_string(phase.brokenConnections) +
                    " broken connections");

    if (stack.router) {
        stack.router->drain();
        ledger.router = stack.router->stats();
        std::uint64_t maxSent = 0;
        std::uint64_t sumSent = 0;
        const std::vector<cluster::BackendSnapshot> fleet =
            stack.router->topology();
        for (const cluster::BackendSnapshot &b : fleet) {
            maxSent = std::max(maxSent, b.framesSent);
            sumSent += b.framesSent;
        }
        ledger.backendSkew =
            sumSent ? static_cast<double>(maxSent) * fleet.size() /
                          static_cast<double>(sumSent)
                    : 0.0;
        stack.router->stop();
        const cluster::RouterStats &rs = ledger.router;
        if (rs.framesIn != clientSent || clientReplies != clientSent)
            result.fail("router ledger: frames in != frames sent");
        if (rs.framesIn != rs.responsesOut + rs.responsesSynthesized +
                               rs.responsesDropped ||
            rs.responsesDropped != 0 || rs.inFlightTotal != 0 ||
            rs.parkedFrames != 0)
            result.fail("router ledger did not close");
    }

    std::uint64_t fleetIn = 0;
    for (std::size_t b = 0; b < stack.servers.size(); ++b) {
        net::Server &server = *stack.servers[b];
        server.stop();
        const net::NetStats ns = server.stats();
        const engine::EngineStats es = stack.engines[b]->stats();
        const std::uint64_t absorbed =
            es.framesRejected + es.fault.injectedDrops +
            es.fault.shedFrames + es.framesDecoded;
        if (es.framesSubmitted != absorbed ||
            es.framesDecoded != ns.responsesOut + ns.responsesDropped)
            result.fail("server/engine ledger did not close");
        if (!stack.router && (clientSent != ns.framesIn ||
                               clientReplies != ns.responsesOut))
            result.fail("client/server ledger did not close");
        fleetIn += ns.framesIn;
        ledger.readPauses += ns.readPauses;
        ledger.responsesDropped += ns.responsesDropped;
        for (std::size_t w = 0; w < es.workerBusyNs.size(); ++w) {
            ledger.busyNs += es.workerBusyNs[w];
            ledger.idleNs += es.workerIdleNs[w];
        }
    }
    if (stack.router) {
        const cluster::RouterStats &rs = ledger.router;
        if (fleetIn != rs.framesRouted + rs.framesReplayed +
                           rs.migrationFrames)
            result.fail("fleet sum != frames the router sent");
    }

    // Stage means over every server's recorder.
    for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        for (const auto &server : stack.servers) {
            const telemetry::StageTotals t = server->spanRecorder().totals(
                static_cast<telemetry::Stage>(i));
            count += t.count;
            sum += t.sumNs;
        }
        ledger.stages.us[i] =
            count ? static_cast<double>(sum) / count / 1000.0 : 0.0;
    }
    return ledger;
}

void
printPhase(const char *label, const Phase &phase, const Score &tally)
{
    std::printf("%s: %llu frames sent, %llu answered in %.3f s (with "
                "warm-up); %.1f program CPU ns/event; ok %llu, within "
                "1 ms %llu\n",
                label, static_cast<unsigned long long>(phase.sent),
                static_cast<unsigned long long>(phase.answered),
                static_cast<double>(phase.wallNs) / 1e9,
                static_cast<double>(phase.programCpuNs) /
                    static_cast<double>(phase.eventsAnswered),
                static_cast<unsigned long long>(tally.ok),
                static_cast<unsigned long long>(tally.within));
    printRun(label, phase.records, phase.slices, phase.host);
}

} // namespace

Result
runServing(const Options &options, bool routed)
{
    Result result;
    const std::string name = routed ? "route" : "serve";
    // Generator, server, router and workers share one processor. On a
    // virtualised host, a hand-off between threads on different
    // processors can wake a halted virtual CPU, and the hypervisor's
    // time to do that can double p50 for minutes after a multi-core
    // burst; on one processor a hand-off is a context switch.
    if (pinToOneProcessor() < 0)
        std::printf("%s: could not pin to one processor; running "
                    "unpinned\n",
                    name.c_str());
    const engine::SessionConfig sessionConfig =
        engineConfig(0).sessions.session;
    if (!options.trace) {
        // Measure on the process's first set-up, so peak RSS does not
        // depend on the heap the extra set-ups leave behind; time the
        // extra set-ups afterwards.
        std::unique_ptr<Stack> stack =
            setUp(options.seed, routed, false, result);
        if (!stack)
            return result;
        std::vector<double> setups{static_cast<double>(stack->setupNs) /
                                   1e9};
        const Phase phase = drive(*stack, options.seconds, nullptr);
        drainAndCheck(*stack, phase, result);
        const Score tally = checkAnswers(stack->streams, phase.records,
                                         sessionConfig, result);
        printPhase(name.c_str(), phase, tally);
        stack.reset();
        for (int i = 1; i < kSetups; ++i) {
            std::unique_ptr<Stack> extra =
                setUp(options.seed, routed, false, result);
            if (!extra)
                return result;
            setups.push_back(static_cast<double>(extra->setupNs) / 1e9);
        }
        result.attempted = tally.attempted;
        result.failed = tally.attempted - tally.ok;
        result.metrics = endToEndMetrics(setups, phase.peakRssMb, tally,
                                         phase.slices, phase.records);
        return result;
    }

    // Traced run: an untraced phase for the overhead baseline, then
    // the same phase with server stage spans and client spans.
    double untracedCpu = 0;
    {
        std::unique_ptr<Stack> stack =
            setUp(options.seed, routed, false, result);
        if (!stack)
            return result;
        const Phase phase = drive(*stack, options.seconds, nullptr);
        drainAndCheck(*stack, phase, result);
        printPhase((name + " untraced").c_str(), phase,
                   checkAnswers(stack->streams, phase.records,
                                sessionConfig, result));
        untracedCpu = phase.slices.cpuNsPerEvent();
    }
    std::unique_ptr<Stack> stack = setUp(options.seed, routed, true, result);
    if (!stack)
        return result;
    SpanLog spans;
    const Phase phase = drive(*stack, options.seconds, &spans);
    const Ledger ledger = drainAndCheck(*stack, phase, result);
    const Score tally =
        checkAnswers(stack->streams, phase.records, sessionConfig, result);
    printPhase((name + " traced").c_str(), phase, tally);
    if (!options.spansOut.empty() && !spans.write(options.spansOut))
        result.fail("could not write spans to " + options.spansOut);

    using telemetry::Stage;
    const StageMeans &st = ledger.stages;
    LayerFigures f;
    measureWireAndSession(stack->streams, sessionConfig, f);
    f.workerBusyShare =
        ledger.busyNs + ledger.idleNs
            ? static_cast<double>(ledger.busyNs) /
                  static_cast<double>(ledger.busyNs + ledger.idleNs)
            : 0.0;
    f.queueWaitUs = st[Stage::QueueWait];
    f.predictUs = st[Stage::Predict];
    f.serverReadUs = st[Stage::Read];
    f.serverDecodeUs = st[Stage::Decode];
    f.serverEncodeUs = st[Stage::Encode];
    f.serverWriteFlushUs = st[Stage::WriteFlush];
    f.readPauses = static_cast<double>(ledger.readPauses);
    f.responsesDropped = static_cast<double>(ledger.responsesDropped);
    f.clientSendUs = spans.meanUs("client.send");
    f.clientReplyDecodeUs = spans.meanUs("client.reply_decode");
    f.framesReplayed = static_cast<double>(ledger.router.framesReplayed);
    f.responsesSynthesized =
        static_cast<double>(ledger.router.responsesSynthesized);
    f.backendSkew = ledger.backendSkew;
    std::vector<std::int64_t> late = phase.host.lateNs;
    f.lateUsP50 = static_cast<double>(quantile(late, 0.5)) / 1000.0;
    f.lateUsMax =
        late.empty() ? 0.0 : static_cast<double>(late.back()) / 1000.0;
    f.stallsOver1ms = static_cast<double>(phase.host.stallsOver1ms);
    f.generatorThreads = static_cast<double>(phase.host.generatorThreads);
    const double tracedCpu = phase.slices.cpuNsPerEvent();
    f.traceOverheadPct =
        untracedCpu > 0 ? 100.0 * (tracedCpu - untracedCpu) / untracedCpu
                        : 0.0;

    // The latency budget of sampled frames: client-observed mean =
    // generator lateness + client spans + server stage means +
    // remainder. On route the remainder is the router hop (with both
    // loopback legs through it); on serve it is unattributed.
    const double clientMean = spans.meanUs("client.frame");
    const double lateMean = spans.meanUs("loadgen.late");
    const double remainder = clientMean - lateMean - f.clientSendUs -
                             f.clientReplyDecodeUs - st.sum();
    (routed ? f.routerHopUs : f.unattributedUs) = remainder;
    std::printf(
        "%s budget (sampled frames, mean us): client %.1f = late %.1f + "
        "send %.1f + read %.1f + decode %.1f + queue_wait %.1f + predict "
        "%.1f + encode %.1f + write_flush %.1f + reply_decode %.1f + %s "
        "%.1f\n",
        name.c_str(), clientMean, lateMean, f.clientSendUs, st[Stage::Read],
        st[Stage::Decode], st[Stage::QueueWait], st[Stage::Predict],
        st[Stage::Encode], st[Stage::WriteFlush], f.clientReplyDecodeUs,
        routed ? "router hop" : "unattributed", remainder);

    result.attempted = tally.attempted;
    result.failed = tally.attempted - tally.ok;
    result.metrics = layerMetrics(f);
    return result;
}

} // namespace perfbench
