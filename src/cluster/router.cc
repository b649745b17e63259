/**
 * @file
 * cluster::Router implementation; see router.hh for the design.
 */

#include "cluster/router.hh"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <sstream>
#include <thread>

#include "engine/wire_format.hh"
#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::cluster
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * How long a backend may owe replies, with none waiting in its
 * socket, before it is failed over. A hung backend keeps its socket
 * open, so no read error ever reports it; without a deadline its
 * ledger would strand and drain() would wait out drainTimeoutMs.
 *
 * The loop itself stalls for seconds at a time (a send to a full
 * socket blocks up to the client's responseTimeoutMs; a connect probe
 * sleeps between attempts), so failSilentBackends() reads a backend's
 * socket before judging it. Measured that way on a 4-vCPU VM, the
 * longest a working backend owed replies with none waiting was
 * 8.7 ms under `net_loadgen --cluster=3 --rate=0` (Release, where the
 * loop left replies unread for up to 9.0 s), 8.9 ms over the ASan +
 * UBSan ctest run and 122 ms over the TSan one (a backend working
 * through 688 KB frames), so one second is eight times the worst.
 */
constexpr Clock::duration kReplyDeadline = std::chrono::seconds(1);

/** What one pollfd in the router loop's array refers to. */
struct PollTarget
{
    enum class Kind : std::uint8_t
    {
        Wakeup,
        Listener,
        Client,
        Backend
    } kind = Kind::Wakeup;
    std::uint64_t id = 0;
};

} // namespace

Router::Router(RouterConfig config)
    : cfg(std::move(config)),
      admin({{"/stats", "application/json",
              [this] { return statsJson(); }},
             {"/topology", "application/json",
              [this] { return topologyJson(); }}},
            draining)
{
    for (const BackendAddress &address : cfg.backends) {
        const std::uint64_t id = nextBackendId++;
        backends.push_back(makeBackendLocked(id, address));
    }
    nextCommandBackendId.store(nextBackendId,
                               std::memory_order_relaxed);
}

Router::~Router() { stop(); }

std::unique_ptr<Router::Backend>
Router::makeBackendLocked(std::uint64_t id,
                          const BackendAddress &address)
{
    auto backend = std::make_unique<Backend>();
    backend->id = id;
    backend->address = address;
    backend->client = makeClient(id, address);
    backend->tmInFlight = telemetry::gauge(
        "cluster.backend." + std::to_string(id) + ".inflight");
    return backend;
}

std::unique_ptr<net::Client>
Router::makeClient(std::uint64_t id,
                   const BackendAddress &address) const
{
    net::ClientConfig cc;
    cc.host = address.host;
    cc.port = address.port;
    cc.connectAttempts = cfg.connectAttempts;
    cc.retryBaseMs = cfg.retryBaseMs;
    // Distinct jitter stream per backend so a fleet-wide reconnect
    // storm (every backend restarted at once) spreads apart.
    cc.retryJitterSeed = cfg.retryJitterSeed ^ id;
    return std::make_unique<net::Client>(cc);
}

bool
Router::start()
{
    if (started.load())
        return false;

    listener = net::listenTcp(cfg.bindAddress, cfg.port, &boundPort);
    if (!listener.valid()) {
        warn("cluster: frontend bind failed");
        return false;
    }
    wakeup = net::Fd(::eventfd(0, EFD_NONBLOCK));
    if (!wakeup.valid()) {
        warn("cluster: eventfd creation failed");
        listener.reset();
        return false;
    }
    if (cfg.adminPort >= 0 &&
        !admin.listen(cfg.bindAddress,
                      static_cast<std::uint16_t>(cfg.adminPort))) {
        warn("cluster: admin bind failed");
        listener.reset();
        wakeup.reset();
        return false;
    }

    for (auto &backend : backends) {
        if (backend->client->connect()) {
            backend->alive = true;
            ring.addNode(backend->id);
        } else {
            warn("cluster: backend unreachable at start");
            backend->dead = true;
        }
    }

    stopping.store(false);
    draining.store(false);
    started.store(true);
    publishTopology();
    routerThread = std::thread([this] { routerLoop(); });
    admin.start(cfg.tickMs);
    return true;
}

std::uint64_t
Router::addBackend(const BackendAddress &address)
{
    const std::uint64_t id =
        nextCommandBackendId.fetch_add(1, std::memory_order_relaxed);
    Command command;
    command.kind = Command::Kind::AddBackend;
    command.address = address;
    command.id = id;
    {
        std::lock_guard<std::mutex> lock(cmdMu);
        commands.push_back(std::move(command));
    }
    wakeRouter();
    return id;
}

void
Router::removeBackend(std::uint64_t id)
{
    Command command;
    command.kind = Command::Kind::RemoveBackend;
    command.id = id;
    {
        std::lock_guard<std::mutex> lock(cmdMu);
        commands.push_back(std::move(command));
    }
    wakeRouter();
}

void
Router::wakeRouter()
{
    if (!wakeup.valid())
        return;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t wrote =
        ::write(wakeup.get(), &one, sizeof(one));
}

// Router thread --------------------------------------------------

void
Router::routerLoop()
{
    std::vector<pollfd> pfds;
    std::vector<PollTarget> targets;
    bool listenerClosed = false;

    while (!stopping.load(std::memory_order_relaxed)) {
        // Drain pending control commands first: a topology change
        // must be visible before the frames that follow it.
        for (;;) {
            Command command;
            {
                std::lock_guard<std::mutex> lock(cmdMu);
                if (commands.empty())
                    break;
                command = std::move(commands.front());
                commands.pop_front();
            }
            executeCommand(command);
        }

        if (draining.load(std::memory_order_relaxed) &&
            !listenerClosed) {
            listener.reset(); // new connections refused from here on
            listenerClosed = true;
        }

        // Fail over silent backends before recovery, so a backend
        // that broke by a send timeout is not reconnected and replayed
        // (where it would block the loop again) but removed.
        failSilentBackends();
        // Recover any backend whose connection broke since the last
        // pass (send failure or read error).
        for (auto &backend : backends) {
            if (backend->needsRecovery && !backend->dead)
                handleBackendBroken(*backend);
        }
        reapRetiring();

        pfds.clear();
        targets.clear();
        pfds.push_back({wakeup.get(), POLLIN, 0});
        targets.push_back({PollTarget::Kind::Wakeup, 0});
        if (listener.valid()) {
            pfds.push_back({listener.get(), POLLIN, 0});
            targets.push_back({PollTarget::Kind::Listener, 0});
        }
        for (auto it = conns.begin(); it != conns.end();) {
            const std::uint64_t id = it->first;
            // Advance first: closeClient(id) below erases the entry.
            const ClientConn &conn = (it++)->second;
            // A half-closed (or broken) client closes once it is owed
            // nothing and flushed; until then its EOF would read as
            // ready on every pass, so poll only writes and errors.
            const std::size_t pending = conn.framed.pendingBytes();
            const bool reading = !conn.framed.readClosed();
            if (!reading && conn.inFlight == 0 && pending == 0) {
                closeClient(id);
                continue;
            }
            const short events = static_cast<short>(
                (reading ? POLLIN : 0) | (pending ? POLLOUT : 0));
            pfds.push_back({conn.framed.fd(), events, 0});
            targets.push_back({PollTarget::Kind::Client, id});
        }
        for (const auto &backend : backends) {
            if (!backend->alive)
                continue;
            const int fd = backend->client->socketFd();
            if (fd < 0)
                continue;
            pfds.push_back({fd, POLLIN, 0});
            targets.push_back(
                {PollTarget::Kind::Backend, backend->id});
        }

        const int ready = ::poll(pfds.data(), pfds.size(),
                                 static_cast<int>(cfg.tickMs));
        if (ready < 0 && errno != EINTR)
            break;

        for (std::size_t i = 0; ready > 0 && i < pfds.size(); ++i) {
            const short revents = pfds[i].revents;
            if (revents == 0)
                continue;
            switch (targets[i].kind) {
            case PollTarget::Kind::Wakeup: {
                std::uint64_t buf = 0;
                while (::read(wakeup.get(), &buf, sizeof(buf)) > 0) {
                }
                break;
            }
            case PollTarget::Kind::Listener:
                acceptPending();
                break;
            case PollTarget::Kind::Client: {
                auto it = conns.find(targets[i].id);
                if (it == conns.end())
                    break;
                ClientConn &conn = it->second;
                if (revents & POLLOUT)
                    conn.framed.flush();
                // A hang-up or error on a half-closed client means it
                // is gone both ways.
                if ((revents & (POLLIN | POLLHUP | POLLERR)) &&
                    (conn.framed.readClosed() ||
                     !handleClientReadable(conn)))
                    closeClient(targets[i].id);
                break;
            }
            case PollTarget::Kind::Backend: {
                for (auto &backend : backends) {
                    if (backend->id == targets[i].id) {
                        handleBackendReadable(*backend);
                        break;
                    }
                }
                break;
            }
            }
        }

        refreshDerived();
        publishTopology();
    }
}

void
Router::acceptPending()
{
    for (;;) {
        net::Fd conn(::accept4(listener.get(), nullptr, nullptr,
                          SOCK_NONBLOCK));
        if (!conn.valid())
            return; // EAGAIN (or a transient error): back to poll
        net::setNoDelay(conn.get());
        const std::uint64_t id = nextConnId++;
        ClientConn client;
        client.framed = net::FramedConn(
            std::move(conn), cfg.maxInBufferBytes, cfg.maxOutBufferBytes);
        client.id = id;
        conns.emplace(id, std::move(client));
        accepted.add();
        active.add(1);
    }
}

bool
Router::handleClientReadable(ClientConn &conn)
{
    for (;;) {
        std::size_t got = 0;
        const net::IoStatus status =
            conn.framed.read(cfg.readChunkBytes, got);
        if (status != net::IoStatus::Ok)
            return status != net::IoStatus::Failed;
        // Route after every read, as the server does, so the input
        // cap only ever holds an incomplete tail.
        const net::ScanResult scanned =
            conn.framed.scan([&](const net::FrameSlice &frame) {
                framesIn.add();
                // The ledger owns a copy: replay after a backend
                // break outlives the sealed buffer.
                const std::uint8_t *bytes =
                    frame.buffer->data() + frame.offset;
                routeFrame(frame.header,
                           std::vector<std::uint8_t>(
                               bytes, bytes + frame.length),
                           conn.id);
                return net::FrameVerdict::Next;
            });
        if (scanned.resyncs != 0) {
            resynced.add(scanned.resyncs);
            resyncBytes.add(scanned.resyncBytes);
        }
        if (!scanned.withinCap)
            return false;
        if (got < cfg.readChunkBytes)
            return true;
    }
}

Router::Backend *
Router::findBackend(std::uint64_t id)
{
    for (auto &backend : backends)
        if (backend->id == id)
            return backend.get();
    return nullptr;
}

void
Router::routeFrame(const wire::FrameHeader &header,
                   std::vector<std::uint8_t> frame,
                   std::uint64_t client_conn)
{
    const std::uint64_t session = header.session;
    if (ring.empty() && routes.find(session) == routes.end()) {
        // No backends and no route: the router is the fleet; answer
        // with an empty prediction reply so the client's accounting
        // never strands a frame.
        synthesizeReply(session, header.sequence, client_conn);
        return;
    }

    SessionRoute &route = routes[session];
    Pending entry;
    entry.sequence = header.sequence;
    entry.clientConn = client_conn;
    entry.bytes = std::move(frame);

    if (route.migrating) {
        route.parked.push_back(std::move(entry));
        bumpClientInFlight(client_conn, 1);
        return;
    }
    if (!route.assigned) {
        if (ring.empty()) {
            synthesizeReply(session, header.sequence, client_conn);
            return;
        }
        route.owner = ring.ownerOf(session);
        route.assigned = true;
    } else if (!ring.contains(route.owner)) {
        // Owner vanished since the route was assigned; rehash or,
        // if nobody is left, answer directly.
        if (ring.empty()) {
            synthesizeReply(session, header.sequence, client_conn);
            return;
        }
        route.owner = ring.ownerOf(session);
    }
    Backend *backend = findBackend(route.owner);
    HOTPATH_ASSERT(backend != nullptr,
                   "route owner is not a known backend");
    bumpClientInFlight(client_conn, 1);
    framesRouted.add();
    sendToBackend(*backend, session, std::move(entry));
}

void
Router::bumpClientInFlight(std::uint64_t client_conn,
                           std::int64_t delta)
{
    auto it = conns.find(client_conn);
    if (it == conns.end())
        return;
    it->second.inFlight = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(it->second.inFlight) + delta);
}

void
Router::sendToBackend(Backend &backend, std::uint64_t session,
                      Pending entry)
{
    auto &queue = backend.ledger[session];
    queue.push_back(std::move(entry));
    if (backend.inFlight++ == 0)
        backend.lastReply = Clock::now(); // the reply deadline starts
    ++backend.framesSent;
    const Pending &sent = queue.back();
    if (backend.alive &&
        !backend.client->sendFrame(sent.bytes.data(),
                                   sent.bytes.size())) {
        backend.alive = false;
        backend.needsRecovery = true;
    }
    // Not alive: the entry stays ledgered; the recovery pass replays
    // it after a reconnect or fails it over.
}

void
Router::handleBackendReadable(Backend &backend)
{
    std::vector<net::PredictionReply> replies;
    const int got = backend.client->poll(replies, 0);
    if (got < 0) {
        backend.alive = false;
        backend.needsRecovery = true;
        return;
    }
    if (!replies.empty())
        backend.lastReply = Clock::now();
    for (const net::PredictionReply &reply : replies)
        settleReply(backend, reply);
}

bool
Router::settleReply(Backend &backend,
                    const net::PredictionReply &reply)
{
    auto it = backend.ledger.find(reply.session);
    if (it == backend.ledger.end())
        return false;
    auto &queue = it->second;
    auto match = queue.end();
    for (auto entry = queue.begin(); entry != queue.end(); ++entry) {
        if (entry->sequence != reply.sequence)
            continue;
        // An export request is answered by a SessionState frame;
        // everything else by a Predictions frame.
        if ((entry->phase == Pending::Phase::Export) !=
            reply.isState)
            continue;
        match = entry;
        break;
    }
    if (match == queue.end())
        return false;
    const Pending entry = std::move(*match);
    queue.erase(match);
    if (queue.empty())
        backend.ledger.erase(it);
    --backend.inFlight;

    switch (entry.phase) {
    case Pending::Phase::Normal:
        forwardReply(entry.clientConn, reply);
        break;
    case Pending::Phase::Export:
        handleExportReply(reply);
        break;
    case Pending::Phase::Import:
        finishMigration(reply.session);
        break;
    }
    return true;
}

void
Router::forwardReply(std::uint64_t client_conn,
                     const net::PredictionReply &reply)
{
    bumpClientInFlight(client_conn, -1);
    auto it = conns.find(client_conn);
    if (it == conns.end()) {
        responsesDropped.add();
        return;
    }
    replyScratch.clear();
    if (reply.isState)
        wire::appendSessionStateFrame(replyScratch, reply.session,
                                      reply.sequence, reply.state);
    else
        wire::appendPredictionFrame(replyScratch, reply.session,
                                    reply.sequence,
                                    reply.predictions.data(),
                                    reply.predictions.size());
    sendReply(it->second, responsesOut);
}

void
Router::synthesizeReply(std::uint64_t session,
                        std::uint64_t sequence,
                        std::uint64_t client_conn)
{
    auto it = conns.find(client_conn);
    if (it == conns.end()) {
        responsesDropped.add();
        return;
    }
    replyScratch.clear();
    wire::appendPredictionFrame(replyScratch, session, sequence,
                                nullptr, 0);
    sendReply(it->second, responsesSynthesized);
}

void
Router::sendReply(ClientConn &conn, telemetry::CounterStat &sent)
{
    // A refused reply is dropped, not sent, so the ledger
    // frames in == out + synthesized + dropped still closes.
    if (!conn.framed.append(replyScratch.data(), replyScratch.size())) {
        responsesDropped.add();
        return;
    }
    // Count before the bytes can leave: a client holding its last
    // reply may read /stats next and must find it counted.
    sent.add();
    // WouldBlock: POLLOUT resumes the flush. After a failed write the
    // client closes once nothing is owed - never here: this may run
    // inside the client's own scan.
    conn.framed.flush();
}

void
Router::closeClient(std::uint64_t conn_id)
{
    auto it = conns.find(conn_id);
    if (it == conns.end())
        return;
    conns.erase(it);
    closed.add();
    active.add(-1);
}

// Failure handling -----------------------------------------------

void
Router::handleBackendBroken(Backend &backend)
{
    backend.needsRecovery = false;
    // A fresh client: the old reassembly buffer may hold a torn
    // reply from the dead connection and must not leak into the new
    // stream.
    backend.client = makeClient(backend.id, backend.address);
    if (backend.client->connect()) {
        backend.alive = true;
        // A deadline to answer the replay. It cannot keep a hung
        // backend alive: a send to one times out only after
        // responseTimeoutMs without progress, by when its replies
        // are past the reply deadline, so failSilentBackends() has
        // failed it over before this pass could reconnect it.
        backend.lastReply = Clock::now();
        backendReconnects.add();
        replayToSelf(backend);
        return;
    }
    failover(backend);
}

void
Router::failSilentBackends()
{
    const auto silent = [](const Backend &backend) {
        return backend.inFlight != 0 &&
               Clock::now() - backend.lastReply > kReplyDeadline;
    };
    for (auto &backend : backends) {
        if (backend->dead || !silent(*backend))
            continue;
        // The deadline counts wall time, and a stalled loop (a
        // blocked send, a connect probe) leaves replies unread in
        // the socket: read them before judging a connected backend.
        if (backend->alive) {
            handleBackendReadable(*backend);
            if (!silent(*backend))
                continue;
        }
        warn("cluster: backend owes replies and answered none within "
             "the reply deadline; failing it over");
        backend->client->close();
        failover(*backend);
    }
}

void
Router::replayToSelf(Backend &backend)
{
    // Re-send every ledgered frame on the fresh connection. The
    // backend may process a frame twice (its first reply died with
    // the old connection) but the router answers each client frame
    // exactly once: the ledger entry is still open.
    for (auto &[session, queue] : backend.ledger) {
        for (const Pending &entry : queue) {
            if (!backend.client->sendFrame(entry.bytes.data(),
                                           entry.bytes.size())) {
                backend.alive = false;
                backend.needsRecovery = true;
                return;
            }
            framesReplayed.add();
        }
    }
}

void
Router::failover(Backend &backend)
{
    backend.dead = true;
    backend.alive = false;
    backend.needsRecovery = false; // a dead backend is not recovered
    ring.removeNode(backend.id);
    failovers.add();
    rehashes.add();

    // Rehash the dead backend's sessions. There is nobody left to
    // export from, so these sessions lose their predictor history -
    // the price of failover - while sessions on surviving backends
    // keep their owners (the consistent-hash property) and stay
    // byte-identical to an undisturbed run.
    for (auto &[session, route] : routes) {
        if (route.migrating) {
            if (route.owner == backend.id) {
                // The export request will never be answered: adopt
                // the target without history.
                route.owner = route.pendingOwner;
                route.migrating = false;
                unparkSession(session, route);
            } else if (route.pendingOwner == backend.id) {
                // The import target died; the ledgered import frame
                // is redistributed below to the new target.
                if (ring.empty()) {
                    route.migrating = false;
                    route.assigned = false;
                    unparkSession(session, route);
                } else {
                    route.pendingOwner = ring.ownerOf(session);
                }
            }
        } else if (route.owner == backend.id) {
            route.owner = ring.empty() ? 0 : ring.ownerOf(session);
            route.assigned = !ring.empty();
        }
    }
    redistributeLedger(backend);
    publishTopology();
}

void
Router::redistributeLedger(Backend &backend)
{
    auto ledger = std::move(backend.ledger);
    backend.ledger.clear();
    backend.inFlight = 0;
    for (auto &[session, queue] : ledger) {
        for (Pending &entry : queue) {
            switch (entry.phase) {
            case Pending::Phase::Export:
                // The migration this export belonged to was
                // abandoned in failover(); nothing to do.
                break;
            case Pending::Phase::Import: {
                auto rit = routes.find(session);
                if (rit == routes.end() || !rit->second.migrating)
                    break; // migration abandoned
                Backend *target =
                    findBackend(rit->second.pendingOwner);
                if (target == nullptr || target->dead) {
                    rit->second.migrating = false;
                    rit->second.assigned = false;
                    unparkSession(session, rit->second);
                    break;
                }
                framesReplayed.add();
                sendToBackend(*target, session, std::move(entry));
                break;
            }
            case Pending::Phase::Normal: {
                auto rit = routes.find(session);
                Backend *target =
                    (rit != routes.end() && rit->second.assigned &&
                     !rit->second.migrating)
                        ? findBackend(rit->second.owner)
                        : nullptr;
                if (target == nullptr || target->dead) {
                    synthesizeToConn(session, entry.sequence,
                                     entry.clientConn);
                    break;
                }
                framesReplayed.add();
                sendToBackend(*target, session, std::move(entry));
                break;
            }
            }
        }
    }
}

void
Router::synthesizeToConn(std::uint64_t session,
                         std::uint64_t sequence,
                         std::uint64_t client_conn)
{
    bumpClientInFlight(client_conn, -1);
    synthesizeReply(session, sequence, client_conn);
}

// Migration ------------------------------------------------------

void
Router::rehashSessions()
{
    for (auto &[session, route] : routes) {
        if (route.migrating) {
            // Chained topology change: retarget the move if its
            // destination left the ring before the import was sent
            // (an in-flight import completes and re-chains in
            // finishMigration).
            if (!ring.empty() &&
                !ring.contains(route.pendingOwner))
                route.pendingOwner = ring.ownerOf(session);
            continue;
        }
        if (ring.empty())
            continue; // routeFrame answers directly from here on
        const std::uint64_t newOwner = ring.ownerOf(session);
        if (!route.assigned) {
            // Headless route (total failover in the past): adopt
            // the new owner directly; there is no history to move.
            route.owner = newOwner;
            route.assigned = true;
            unparkSession(session, route);
            continue;
        }
        if (newOwner == route.owner)
            continue;
        startMigration(session, route, newOwner);
    }
}

void
Router::startMigration(std::uint64_t session, SessionRoute &route,
                       std::uint64_t new_owner)
{
    Backend *old = findBackend(route.owner);
    if (old == nullptr || !old->alive || old->dead) {
        // No history to move; the new owner rebuilds from scratch.
        route.owner = new_owner;
        route.assigned = true;
        return;
    }
    route.migrating = true;
    route.pendingOwner = new_owner;

    wire::SessionState request;
    request.request = true;
    Pending entry;
    entry.sequence = migrationSequence++;
    entry.clientConn = 0;
    entry.phase = Pending::Phase::Export;
    wire::appendSessionStateFrame(entry.bytes, session,
                                  entry.sequence, request);
    migrationFrames.add();
    sendToBackend(*old, session, std::move(entry));
}

void
Router::handleExportReply(const net::PredictionReply &reply)
{
    const std::uint64_t session = reply.session;
    auto rit = routes.find(session);
    if (rit == routes.end() || !rit->second.migrating)
        return; // migration abandoned while the export was in flight
    SessionRoute &route = rit->second;
    Backend *target = findBackend(route.pendingOwner);
    if (target == nullptr || target->dead) {
        // Target died and nobody replaced it: finish without state.
        route.migrating = false;
        route.owner =
            ring.empty() ? 0 : ring.ownerOf(session);
        route.assigned = !ring.empty();
        unparkSession(session, route);
        return;
    }

    Pending entry;
    entry.sequence = migrationSequence++;
    entry.clientConn = 0;
    entry.phase = Pending::Phase::Import;
    wire::appendSessionStateFrame(entry.bytes, session,
                                  entry.sequence, reply.state);
    migrationFrames.add();
    migrationBytes.add(entry.bytes.size());
    sendToBackend(*target, session, std::move(entry));
}

void
Router::finishMigration(std::uint64_t session)
{
    auto rit = routes.find(session);
    if (rit == routes.end() || !rit->second.migrating)
        return;
    SessionRoute &route = rit->second;
    route.owner = route.pendingOwner;
    route.migrating = false;
    sessionsMigrated.add();
    if (!ring.empty() && !ring.contains(route.owner)) {
        // The destination left the ring while the import was in
        // flight (chained topology change): move again.
        startMigration(session, route, ring.ownerOf(session));
        return;
    }
    unparkSession(session, route);
}

void
Router::unparkSession(std::uint64_t session, SessionRoute &route)
{
    while (!route.parked.empty()) {
        Pending entry = std::move(route.parked.front());
        route.parked.pop_front();
        Backend *target =
            route.assigned ? findBackend(route.owner) : nullptr;
        if (target == nullptr || target->dead) {
            synthesizeToConn(session, entry.sequence,
                             entry.clientConn);
            continue;
        }
        framesRouted.add();
        sendToBackend(*target, session, std::move(entry));
    }
}

void
Router::reapRetiring()
{
    // A retiring backend leaves the fleet - and the topology - once
    // its ledger is empty and no route points at it. A backend that
    // died by failover (dead but not retiring) stays visible in the
    // topology as not-alive instead; only an operator-requested
    // removal disappears.
    bool removed = false;
    for (auto it = backends.begin(); it != backends.end();) {
        Backend &backend = **it;
        if (!backend.retiring) {
            ++it;
            continue;
        }
        if (backend.alive) {
            if (backend.inFlight != 0) {
                ++it;
                continue;
            }
            bool referenced = false;
            for (const auto &[session, route] : routes) {
                if ((route.assigned &&
                     route.owner == backend.id) ||
                    (route.migrating &&
                     route.pendingOwner == backend.id)) {
                    referenced = true;
                    break;
                }
            }
            if (referenced) {
                ++it;
                continue;
            }
            backend.client->close();
        }
        if (backend.tmInFlight)
            backend.tmInFlight->set(0);
        it = backends.erase(it);
        removed = true;
    }
    if (removed)
        publishTopology();
}

void
Router::executeCommand(const Command &command)
{
    switch (command.kind) {
    case Command::Kind::AddBackend: {
        auto backend = makeBackendLocked(command.id, command.address);
        Backend *raw = backend.get();
        backends.push_back(std::move(backend));
        if (raw->client->connect()) {
            raw->alive = true;
            ring.addNode(raw->id);
            rehashes.add();
            rehashSessions();
        } else {
            warn("cluster: addBackend connect failed");
            raw->dead = true;
        }
        publishTopology();
        break;
    }
    case Command::Kind::RemoveBackend: {
        Backend *backend = findBackend(command.id);
        if (backend == nullptr || backend->dead ||
            backend->retiring)
            break;
        ring.removeNode(backend->id);
        backend->retiring = true;
        rehashes.add();
        rehashSessions();
        publishTopology();
        break;
    }
    }
}

// Bookkeeping ----------------------------------------------------

void
Router::refreshDerived()
{
    std::size_t inflight = 0;
    std::size_t live = 0;
    for (const auto &backend : backends) {
        inflight += backend->inFlight;
        if (backend->alive)
            ++live;
        if (backend->tmInFlight)
            backend->tmInFlight->set(
                static_cast<std::int64_t>(backend->inFlight));
    }
    std::size_t parked = 0;
    for (const auto &[session, route] : routes)
        parked += route.parked.size();

    inFlightTotal.set(static_cast<std::int64_t>(inflight));
    parkedFrames.set(static_cast<std::int64_t>(parked));
    backendsLive.set(static_cast<std::int64_t>(live));
    sessionsTracked.set(static_cast<std::int64_t>(routes.size()));

    bool flushed = true;
    for (const auto &[id, conn] : conns) {
        if (conn.framed.pendingBytes() > 0) {
            flushed = false;
            break;
        }
    }
    bool recovering = false;
    for (const auto &backend : backends) {
        if (backend->needsRecovery) {
            recovering = true;
            break;
        }
    }
    quiescent.store(inflight == 0 && parked == 0 && flushed &&
                        !recovering,
                    std::memory_order_relaxed);
}

void
Router::publishTopology()
{
    std::vector<BackendSnapshot> snapshot;
    snapshot.reserve(backends.size());
    for (const auto &backend : backends) {
        BackendSnapshot row;
        row.id = backend->id;
        row.host = backend->address.host;
        row.port = backend->address.port;
        row.alive = backend->alive;
        row.retiring = backend->retiring;
        row.inFlight = backend->inFlight;
        row.framesSent = backend->framesSent;
        snapshot.push_back(std::move(row));
    }
    for (const auto &[session, route] : routes) {
        const std::uint64_t owner =
            route.migrating ? route.pendingOwner : route.owner;
        for (auto &row : snapshot)
            if (row.id == owner)
                ++row.sessionsOwned;
    }
    std::lock_guard<std::mutex> lock(topoMu);
    topoSnapshot = std::move(snapshot);
}

// Shutdown -------------------------------------------------------

void
Router::drain()
{
    if (!started.load() || draining.load())
        return;
    draining.store(true);
    wakeRouter();
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(cfg.drainTimeoutMs);
    const auto tick = std::chrono::milliseconds(cfg.tickMs);
    // Quiet must hold for a few consecutive observations: a frame
    // can be read off a client socket after an instantaneous
    // "everything answered" snapshot.
    int quietPasses = 0;
    while (Clock::now() < deadline && quietPasses < 3) {
        if (quiescent.load(std::memory_order_relaxed))
            ++quietPasses;
        else
            quietPasses = 0;
        std::this_thread::sleep_for(tick);
    }
}

void
Router::stop()
{
    if (!started.load())
        return;
    drain();
    stopping.store(true);
    wakeRouter();
    if (routerThread.joinable())
        routerThread.join();
    admin.stop();
    // Connections still open at stop() close here, so the ledger
    // (closed == accepted) and the active gauge both settle.
    const std::uint64_t open = conns.size();
    conns.clear();
    if (open > 0) {
        closed.add(open);
        active.add(-static_cast<std::int64_t>(open));
    }
    for (auto &backend : backends) {
        backend->client->close();
        backend->alive = false;
    }
    listener.reset();
    wakeup.reset();
    started.store(false);
}

// Introspection --------------------------------------------------

RouterStats
Router::stats() const
{
    RouterStats out;
    out.accepted = accepted.get();
    out.closed = closed.get();
    out.framesIn = framesIn.get();
    out.framesRouted = framesRouted.get();
    out.framesReplayed = framesReplayed.get();
    out.migrationFrames = migrationFrames.get();
    out.migrationBytes = migrationBytes.get();
    out.responsesOut = responsesOut.get();
    out.responsesSynthesized = responsesSynthesized.get();
    out.responsesDropped = responsesDropped.get();
    out.framesResynced = resynced.get();
    out.resyncBytesSkipped = resyncBytes.get();
    out.rehashes = rehashes.get();
    out.sessionsMigrated = sessionsMigrated.get();
    out.backendReconnects = backendReconnects.get();
    out.failovers = failovers.get();
    out.activeConnections = static_cast<std::size_t>(active.get());
    out.backendsLive = static_cast<std::size_t>(backendsLive.get());
    out.inFlightTotal = static_cast<std::size_t>(inFlightTotal.get());
    out.sessionsTracked =
        static_cast<std::size_t>(sessionsTracked.get());
    out.parkedFrames = static_cast<std::size_t>(parkedFrames.get());
    return out;
}

std::vector<BackendSnapshot>
Router::topology() const
{
    std::lock_guard<std::mutex> lock(topoMu);
    return topoSnapshot;
}

std::string
Router::statsJson() const
{
    // Flat JSON only - scalar numbers and flat numeric arrays - so
    // engine_top can scan it with string searches instead of a JSON
    // parser (the same contract as the server's /stats).
    const RouterStats rs = stats();
    std::ostringstream os;
    os << '{';
    os << "\"cluster_accepted\":" << rs.accepted
       << ",\"cluster_active\":" << rs.activeConnections
       << ",\"cluster_frames_in\":" << rs.framesIn
       << ",\"cluster_frames_routed\":" << rs.framesRouted
       << ",\"cluster_frames_replayed\":" << rs.framesReplayed
       << ",\"cluster_migration_frames\":" << rs.migrationFrames
       << ",\"cluster_migration_bytes\":" << rs.migrationBytes
       << ",\"cluster_responses_out\":" << rs.responsesOut
       << ",\"cluster_responses_synthesized\":"
       << rs.responsesSynthesized
       << ",\"cluster_responses_dropped\":" << rs.responsesDropped
       << ",\"cluster_rehash_events\":" << rs.rehashes
       << ",\"cluster_sessions_migrated\":" << rs.sessionsMigrated
       << ",\"cluster_backend_reconnects\":" << rs.backendReconnects
       << ",\"cluster_failovers\":" << rs.failovers
       << ",\"cluster_backends_live\":" << rs.backendsLive
       << ",\"cluster_inflight\":" << rs.inFlightTotal
       << ",\"cluster_sessions_tracked\":" << rs.sessionsTracked
       << ",\"cluster_parked_frames\":" << rs.parkedFrames
       << ",\"cluster_frames_resynced\":" << rs.framesResynced
       << ",\"cluster_resync_bytes_skipped\":"
       << rs.resyncBytesSkipped;
    std::vector<BackendSnapshot> topo;
    {
        std::lock_guard<std::mutex> lock(topoMu);
        topo = topoSnapshot;
    }
    const auto arr = [&os, &topo](const char *key, auto &&field) {
        os << ",\"" << key << "\":[";
        for (std::size_t i = 0; i < topo.size(); ++i) {
            if (i != 0)
                os << ',';
            os << field(topo[i]);
        }
        os << ']';
    };
    arr("backend_ids", [](const BackendSnapshot &row) {
        return row.id;
    });
    arr("backend_alive", [](const BackendSnapshot &row) {
        return static_cast<std::uint64_t>(row.alive ? 1 : 0);
    });
    arr("backend_inflight", [](const BackendSnapshot &row) {
        return static_cast<std::uint64_t>(row.inFlight);
    });
    arr("backend_sessions", [](const BackendSnapshot &row) {
        return static_cast<std::uint64_t>(row.sessionsOwned);
    });
    arr("backend_frames_sent", [](const BackendSnapshot &row) {
        return row.framesSent;
    });
    os << '}';
    return os.str();
}

std::string
Router::topologyJson() const
{
    std::vector<BackendSnapshot> topo;
    {
        std::lock_guard<std::mutex> lock(topoMu);
        topo = topoSnapshot;
    }
    std::ostringstream os;
    os << "{\"backends\":[";
    for (std::size_t i = 0; i < topo.size(); ++i) {
        const BackendSnapshot &row = topo[i];
        if (i != 0)
            os << ',';
        os << "{\"id\":" << row.id << ",\"host\":\"" << row.host
           << "\",\"port\":" << row.port
           << ",\"alive\":" << (row.alive ? "true" : "false")
           << ",\"retiring\":" << (row.retiring ? "true" : "false")
           << ",\"inflight\":" << row.inFlight
           << ",\"sessions\":" << row.sessionsOwned
           << ",\"frames_sent\":" << row.framesSent << '}';
    }
    os << "]}";
    return os.str();
}

} // namespace hotpath::cluster
