/**
 * @file
 * net::Server implementation; see server.hh for the design.
 */

#include "net/server.hh"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <sstream>

#include "engine/wire_format.hh"
#include "support/logging.hh"
#include "telemetry/percentiles.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::net
{

namespace
{

/** epoll data value reserved for the wakeup eventfd. */
constexpr std::uint64_t kWakeupId = 0;

/** Bits of the routing tag that carry the connection id; the top 16
 *  carry the reactor index. Tag 0 never names a connection (ids start
 *  at 1), so frames submitted by non-network producers are simply not
 *  answered over a socket. */
constexpr std::uint64_t kConnTagMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t
makeTag(std::size_t reactor_index, std::uint64_t conn_id)
{
    return (static_cast<std::uint64_t>(reactor_index) << 48) |
           (conn_id & kConnTagMask);
}

volatile std::sig_atomic_t gDrainRequested = 0;

void
onDrainSignal(int)
{
    gDrainRequested = 1;
}

} // namespace

thread_local const Server::Reactor *Server::ownReactor = nullptr;

void
Server::installSignalHandlers()
{
    std::signal(SIGTERM, onDrainSignal);
    std::signal(SIGINT, onDrainSignal);
}

bool
Server::signalDrainRequested()
{
    return gDrainRequested != 0;
}

Server::Server(engine::Engine &engine, ServerConfig config)
    : eng(engine), cfg(std::move(config)),
      spans(telemetry::SpanConfig{cfg.spanSampleEvery}),
      admin({{"/stats", "application/json",
              [this] { return statsJson(); }}},
            draining)
{
    if (cfg.reactorThreads == 0)
        cfg.reactorThreads = 1;
    if (cfg.tickMs == 0)
        cfg.tickMs = 1;
    if (cfg.faults.enabled())
        injector = std::make_unique<fault::FaultInjector>(cfg.faults);
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
    HOTPATH_ASSERT(!started.load(), "server already started");

    listener = listenTcp(cfg.bindAddress, cfg.port, &boundPort);
    if (!listener.valid()) {
        warn(detail::concat("net: bind ", cfg.bindAddress, ":",
                            cfg.port, " failed: ",
                            std::strerror(errno)));
        return false;
    }
    if (cfg.adminPort >= 0 &&
        !admin.listen(cfg.bindAddress,
                      static_cast<std::uint16_t>(cfg.adminPort))) {
        warn(detail::concat("net: admin bind ", cfg.bindAddress, ":",
                            cfg.adminPort, " failed: ",
                            std::strerror(errno)));
        listener.reset();
        return false;
    }

    reactors.clear();
    for (std::size_t i = 0; i < cfg.reactorThreads; ++i) {
        auto reactor = std::make_unique<Reactor>();
        reactor->index = i;
        reactor->epoll = Fd(::epoll_create1(0));
        reactor->wakeup = Fd(::eventfd(0, EFD_NONBLOCK));
        if (!reactor->epoll.valid() || !reactor->wakeup.valid()) {
            warn("net: epoll/eventfd creation failed");
            reactors.clear();
            listener.reset();
            return false;
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kWakeupId;
        ::epoll_ctl(reactor->epoll.get(), EPOLL_CTL_ADD,
                    reactor->wakeup.get(), &ev);
        reactors.push_back(std::move(reactor));
    }

    // Route every completed frame back to the connection that sent
    // it. The callback runs on an engine worker, or on the reactor
    // itself when the engine ran the frame inline; it only encodes
    // the reply and posts it to the owning reactor's inbox. For a
    // span-sampled frame the encode is timed (the engine already
    // timed queue-wait/decode/predict; see FrameOutcome::spanSampled).
    eng.setFrameCallback([this](const engine::FrameOutcome &o) {
        const std::uint64_t conn = o.tag & kConnTagMask;
        const std::size_t reactor = static_cast<std::size_t>(
            o.tag >> 48);
        if (conn == 0 || reactor >= reactors.size())
            return;
        std::vector<std::uint8_t> reply;
        if (o.stateReply != nullptr) {
            // Session-state export: the engine already encoded the
            // snapshot reply; forward its bytes verbatim.
            reply = *o.stateReply;
        } else if (o.spanSampled) {
            const std::uint64_t start = telemetry::monotonicNanos();
            wire::appendPredictionFrame(reply, o.session, o.sequence,
                                        o.predictions,
                                        o.predictionCount);
            spans.recordStage(telemetry::Stage::Encode,
                              telemetry::monotonicNanos() - start);
        } else {
            wire::appendPredictionFrame(reply, o.session, o.sequence,
                                        o.predictions,
                                        o.predictionCount);
        }
        postReply(reactor, conn, std::move(reply), o.spanSampled);
    });

    // The server samples at the socket-read boundary; the engine
    // records the stages it owns against this recorder.
    if (spans.enabled())
        eng.setSpanRecorder(&spans);

    stopping.store(false);
    draining.store(false);
    started.store(true);
    for (auto &reactor : reactors) {
        Reactor *r = reactor.get();
        r->thread = std::thread([this, r] { reactorLoop(r->index); });
    }
    acceptor = std::thread([this] { acceptLoop(); });
    admin.start(cfg.tickMs);
    return true;
}

void
Server::acceptPending()
{
    while (true) {
        Fd conn(::accept4(listener.get(), nullptr, nullptr,
                          SOCK_NONBLOCK));
        if (!conn.valid()) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            acceptFailures.add();
            return;
        }
        if (injector && injector->armed(fault::Site::AcceptFail) &&
            injector->shouldInject(fault::Site::AcceptFail)) {
            acceptFailures.add();
            continue; // Fd closes the socket: connection refused.
        }
        setNoDelay(conn.get());

        const std::uint64_t id =
            nextConnId.fetch_add(1, std::memory_order_relaxed);
        Reactor &reactor = *reactors[id % reactors.size()];
        {
            std::lock_guard<std::mutex> lock(reactor.inboxMu);
            reactor.pendingConns.push_back(std::move(conn));
            reactor.pendingConnIds.push_back(id);
            reactor.flushed.store(false, std::memory_order_relaxed);
        }
        accepted.add();
        wakeReactor(reactor);
    }
}

void
Server::acceptLoop()
{
    while (!stopping.load() && !draining.load()) {
        if (waitFor(listener.get(), POLLIN, cfg.tickMs))
            acceptPending();
    }
    // On drain, sweep the backlog one last time: a client that
    // finished its TCP handshake before drain() began is owed
    // service even if this thread had not accepted it yet.
    if (draining.load() && !stopping.load())
        acceptPending();
}

void
Server::wakeReactor(Reactor &reactor)
{
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(reactor.wakeup.get(), &one, sizeof(one));
}

void
Server::postReply(std::size_t reactor_index, std::uint64_t conn_id,
                  std::vector<std::uint8_t> bytes, bool sampled)
{
    Reactor &reactor = *reactors[reactor_index];
    {
        std::lock_guard<std::mutex> lock(reactor.inboxMu);
        reactor.pendingReplies.push_back(
            {conn_id, std::move(bytes), sampled});
        reactor.flushed.store(false, std::memory_order_relaxed);
    }
    // The reactor's own thread (a frame the engine ran inline) drains
    // its inbox at the end of the sweep; only other threads wake it.
    if (ownReactor != &reactor)
        wakeReactor(reactor);
}

void
Server::reactorLoop(std::size_t index)
{
    Reactor &reactor = *reactors[index];
    ownReactor = &reactor;
    std::array<epoll_event, 64> events;
    auto lastTick = std::chrono::steady_clock::now();
    const auto tickLen = std::chrono::milliseconds(cfg.tickMs);

    while (!stopping.load()) {
        const int n = ::epoll_wait(reactor.epoll.get(),
                                   events.data(),
                                   static_cast<int>(events.size()),
                                   static_cast<int>(cfg.tickMs));
        if (stopping.load())
            break;
        drainInbox(reactor);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == kWakeupId) {
                std::uint64_t drainCounter = 0;
                while (::read(reactor.wakeup.get(), &drainCounter,
                              sizeof(drainCounter)) > 0) {
                }
                continue;
            }
            const auto it = reactor.conns.find(id);
            if (it == reactor.conns.end())
                continue; // closed earlier this sweep
            Connection &conn = it->second;
            if (events[i].events & EPOLLOUT) {
                conn.writable = true;
                flushOutput(conn);
            }
            if (events[i].events &
                (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
                handleReadable(reactor, conn,
                               (events[i].events &
                                (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0,
                               /*last_ready=*/i + 1 == n);
            }
        }

        const auto now = std::chrono::steady_clock::now();
        if (now - lastTick >= tickLen) {
            lastTick = now;
            maintenance(reactor, index);
        }
        // Also picks up the replies this thread posted to itself
        // while sweeping and resuming (see postReply).
        drainInbox(reactor);
    }
}

void
Server::drainInbox(Reactor &reactor)
{
    std::vector<Fd> conns;
    std::vector<std::uint64_t> ids;
    std::deque<Reactor::Reply> replies;
    {
        std::lock_guard<std::mutex> lock(reactor.inboxMu);
        conns.swap(reactor.pendingConns);
        ids.swap(reactor.pendingConnIds);
        replies.swap(reactor.pendingReplies);
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
        Connection conn;
        conn.id = ids[i];
        conn.framed = FramedConn(std::move(conns[i]), cfg.maxInBufferBytes,
                                 cfg.maxOutBufferBytes);
        conn.lastActivityTick = reactor.tick;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        ev.data.u64 = conn.id;
        if (::epoll_ctl(reactor.epoll.get(), EPOLL_CTL_ADD,
                        conn.framed.fd(), &ev) != 0) {
            closed.add();
            continue;
        }
        const std::uint64_t id = conn.id;
        reactor.conns.emplace(id, std::move(conn));
        active.add(1);
    }

    for (auto &reply : replies) {
        const auto it = reactor.conns.find(reply.conn);
        if (it == reactor.conns.end()) {
            // The connection died before its reply; account for the
            // orphaned response so conservation still balances.
            responsesDropped.add();
            // A sampled reply that will never flush still owes its
            // write-flush record (zero: nothing was written).
            if (reply.sampled)
                spans.recordStage(telemetry::Stage::WriteFlush, 0);
            continue;
        }
        Connection &conn = it->second;
        if (conn.inFlight > 0)
            --conn.inFlight;
        if (!conn.framed.append(reply.bytes.data(), reply.bytes.size())) {
            // The reply would overflow the backlog cap.
            responsesDropped.add();
            if (reply.sampled)
                spans.recordStage(telemetry::Stage::WriteFlush, 0);
            continue;
        }
        if (reply.sampled)
            conn.spanWrites.emplace_back(
                conn.framed.flushedBytes() + conn.framed.pendingBytes(),
                telemetry::monotonicNanos());
        responsesOut.add();
        flushOutput(conn);
        if (connDone(conn))
            closeConnection(reactor, conn.id);
    }
}

bool
Server::connDone(const Connection &conn) const
{
    // Leftover reassembly bytes are deliberately not considered:
    // once the peer half-closed, an incomplete tail frame can never
    // complete, and processInput has already consumed every frame
    // that did.
    return conn.framed.readClosed() && !conn.paused && conn.inFlight == 0 &&
           conn.framed.pendingBytes() == 0;
}

void
Server::handleReadable(Reactor &reactor, Connection &conn,
                       bool to_eagain, bool last_ready)
{
    if (injector && injector->armed(fault::Site::ConnReset) &&
        injector->shouldInject(fault::Site::ConnReset)) {
        resets.add();
        closeConnection(reactor, conn.id);
        return;
    }

    // Start of the Read stage for frames extracted below: the moment
    // the socket came back readable.
    if (spans.enabled())
        conn.readStartNs = telemetry::monotonicNanos();

    while (!conn.paused && !conn.framed.readClosed()) {
        std::size_t n = 0;
        const IoStatus status = conn.framed.read(cfg.readChunkBytes, n);
        if (status == IoStatus::Ok) {
            bytesIn.add(n);
            conn.lastActivityTick = reactor.tick;
            reactor.sawReads = true;
            // A full read leaves more bytes to read; after a short
            // one, and with no other connection ready, the reactor
            // has nothing else waiting.
            const bool short_read = n < cfg.readChunkBytes;
            if (!processInput(reactor, conn, last_ready && short_read)) {
                closeConnection(reactor, conn.id);
                return;
            }
            // A short read emptied the socket. Edge-triggered epoll
            // raises a fresh edge for every byte or FIN that arrives
            // after the event was reported, so stopping here misses
            // nothing - except a FIN that was already queued when it
            // was reported. That event carried EPOLLRDHUP (or
            // EPOLLHUP/EPOLLERR) and no further edge will come, so
            // then, and when resuming a paused connection, read on
            // to EAGAIN or 0.
            if (short_read && !to_eagain)
                break;
            continue;
        }
        if (status == IoStatus::Eof || status == IoStatus::WouldBlock)
            break;
        // ECONNRESET and friends: the peer is gone.
        closeConnection(reactor, conn.id);
        return;
    }
    if (connDone(conn))
        closeConnection(reactor, conn.id);
}

bool
Server::processInput(Reactor &reactor, Connection &conn,
                     bool may_inline)
{
    const ScanResult scanned =
        conn.framed.scan([&](const FrameSlice &frame) {
            // Sampling decision at the ingest boundary: a sampled
            // frame is timestamped here (end of Read, start of
            // QueueWait) and carries span_ns through the engine.
            std::uint64_t span_ns = 0;
            if (spans.sampleFrame()) {
                span_ns = telemetry::monotonicNanos();
                spans.recordStage(telemetry::Stage::Read,
                                  span_ns - conn.readStartNs);
            }
            // Only the frame that ends the buffer may run on this
            // thread, and only when nothing else waits for the
            // reactor. Earlier frames go to their shard's worker, so
            // under load the workers, not the reactor, decode and
            // predict.
            const engine::SubmitStatus submitted =
                eng.trySubmitShared(frame.buffer, frame.offset,
                                    frame.length,
                                    makeTag(reactor.index, conn.id),
                                    span_ns,
                                    may_inline &&
                                        frame.offset + frame.length ==
                                            frame.buffer->size());
            if (submitted == engine::SubmitStatus::Backpressure) {
                // Park the slice and stop reading this socket: the
                // kernel buffer fills and TCP pushes back.
                conn.parkedBuf = frame.buffer;
                conn.parkedOff = frame.offset;
                conn.parkedLen = frame.length;
                conn.parkedSpanNs = span_ns;
                conn.paused = true;
                readPauses.add();
                return FrameVerdict::Stop;
            }
            if (submitted == engine::SubmitStatus::Accepted) {
                ++conn.inFlight;
                framesIn.add();
            }
            // Rejected frames were counted by the engine (rejected
            // at the door); no reply will come, nothing in flight.
            return FrameVerdict::Next;
        });
    if (scanned.resyncs != 0) {
        resynced.add(scanned.resyncs);
        resyncBytes.add(scanned.resyncBytes);
    }
    // A peer that buffers more than the cap without completing a
    // frame is speaking a different protocol; cut it loose.
    return scanned.withinCap;
}

void
Server::flushOutput(Connection &conn)
{
    while (conn.writable && conn.framed.pendingBytes() > 0) {
        std::size_t want = conn.framed.pendingBytes();
        bool split = false;
        if (want > 1 && injector &&
            injector->armed(fault::Site::SockPartialWrite)) {
            std::uint64_t aux = 0;
            if (injector->shouldInject(fault::Site::SockPartialWrite,
                                       &aux)) {
                want = 1 + static_cast<std::size_t>(
                               aux % (want - 1));
                split = true;
            }
        }
        const std::uint64_t before = conn.framed.flushedBytes();
        const IoStatus status = conn.framed.flush(want);
        const std::uint64_t flushed = conn.framed.flushedBytes();
        bytesOut.add(flushed - before);
        // Sampled replies fully behind the flushed watermark have
        // completed their write-flush stage.
        while (!conn.spanWrites.empty() &&
               conn.spanWrites.front().first <= flushed) {
            spans.recordStage(telemetry::Stage::WriteFlush,
                              telemetry::monotonicNanos() -
                                  conn.spanWrites.front().second);
            conn.spanWrites.pop_front();
        }
        if (status == IoStatus::WouldBlock) {
            conn.writable = false;
            break;
        }
        if (status == IoStatus::Failed) {
            // The peer reset and both buffers are gone. Drop the
            // parked frame too, so the connDone close path can run
            // once in-flight replies drain.
            settlePendingSpans(conn);
            conn.parkedBuf.reset();
            conn.parkedOff = 0;
            conn.parkedLen = 0;
            conn.parkedSpanNs = 0;
            conn.paused = false;
            break;
        }
        if (split)
            break; // deliver the rest on a later tick
    }
}

void
Server::maintenance(Reactor &reactor, std::size_t index)
{
    ++reactor.tick;

    // Resume paused connections first. handleReadable can close a
    // connection, so this runs over a snapshot of ids, never inside
    // a live map iteration.
    std::vector<std::uint64_t> pausedIds;
    for (const auto &[id, conn] : reactor.conns) {
        if (conn.paused)
            pausedIds.push_back(id);
    }
    for (const std::uint64_t id : pausedIds) {
        const auto it = reactor.conns.find(id);
        if (it == reactor.conns.end())
            continue;
        Connection &conn = it->second;
        // The parked slice keeps its original sampling decision and
        // timestamp: the park time IS queueing delay.
        // A connection that was paused is under load: its frames
        // go to the workers.
        const engine::SubmitStatus submitted = eng.trySubmitShared(
            conn.parkedBuf, conn.parkedOff, conn.parkedLen,
            makeTag(index, id), conn.parkedSpanNs,
            /*may_run_inline=*/false);
        if (submitted == engine::SubmitStatus::Backpressure)
            continue;
        if (submitted == engine::SubmitStatus::Accepted) {
            ++conn.inFlight;
            framesIn.add();
        }
        conn.parkedBuf.reset();
        conn.parkedOff = 0;
        conn.parkedLen = 0;
        conn.parkedSpanNs = 0;
        conn.paused = false;
        // Resume: drain what we already buffered, then the socket
        // (the edge may not re-fire for bytes that arrived while we
        // were not reading).
        if (spans.enabled())
            conn.readStartNs = telemetry::monotonicNanos();
        if (!processInput(reactor, conn, /*may_inline=*/false)) {
            closeConnection(reactor, id);
            continue;
        }
        if (!conn.paused)
            handleReadable(reactor, conn, /*to_eagain=*/true,
                           /*last_ready=*/false);
    }

    bool anyPaused = false;
    bool anyPartialInput = false;
    std::vector<std::uint64_t> toClose;
    std::vector<std::uint64_t> idleClose;

    for (auto &[id, conn] : reactor.conns) {
        if (conn.paused)
            anyPaused = true;
        if (conn.writable && conn.framed.pendingBytes() > 0)
            flushOutput(conn); // partial-write retries
        if (conn.framed.bufferedBytes() > 0)
            anyPartialInput = true;
        if (connDone(conn)) {
            toClose.push_back(id);
        } else if (cfg.idleTimeoutTicks != 0 && conn.inFlight == 0 &&
                   conn.framed.pendingBytes() == 0 &&
                   reactor.tick - conn.lastActivityTick >
                       cfg.idleTimeoutTicks) {
            idleClose.push_back(id);
        }
    }
    for (const std::uint64_t id : toClose)
        closeConnection(reactor, id);
    for (const std::uint64_t id : idleClose) {
        if (reactor.conns.find(id) == reactor.conns.end())
            continue;
        idleClosed.add();
        closeConnection(reactor, id);
    }

    const bool quiet = !reactor.sawReads && !anyPaused &&
                       !anyPartialInput;
    reactor.sawReads = false;
    if (quiet) {
        reactor.quietTicks.fetch_add(1, std::memory_order_relaxed);
    } else {
        reactor.quietTicks.store(0, std::memory_order_relaxed);
    }

    bool flushed = true;
    for (const auto &[id, conn] : reactor.conns) {
        if (conn.framed.pendingBytes() != 0) {
            flushed = false;
            break;
        }
    }
    if (flushed) {
        std::lock_guard<std::mutex> lock(reactor.inboxMu);
        flushed = reactor.pendingReplies.empty();
        reactor.flushed.store(flushed, std::memory_order_relaxed);
    } else {
        reactor.flushed.store(false, std::memory_order_relaxed);
    }
}

void
Server::settlePendingSpans(Connection &conn)
{
    // Sampled replies this connection will never flush: record the
    // time they did spend buffered so every sampled frame completes
    // its write-flush stage exactly once.
    if (conn.spanWrites.empty())
        return;
    const std::uint64_t now = telemetry::monotonicNanos();
    for (const auto &[target, start] : conn.spanWrites)
        spans.recordStage(telemetry::Stage::WriteFlush, now - start);
    conn.spanWrites.clear();
}

void
Server::closeConnection(Reactor &reactor, std::uint64_t conn_id)
{
    const auto it = reactor.conns.find(conn_id);
    if (it == reactor.conns.end())
        return;
    settlePendingSpans(it->second);
    // Replies still owed to this connection will find it gone and be
    // counted as dropped when they arrive (drainInbox).
    reactor.conns.erase(it); // Fd close drops the epoll entry
    closed.add();
    active.add(-1);
}

std::string
Server::statsJson() const
{
    // Flat JSON only - scalar numbers and flat numeric arrays - so
    // engine_top can scan it with string searches instead of a JSON
    // parser (the document is RunReport-shaped, not RunReport-deep).
    const NetStats net = stats();
    const engine::EngineStats es = eng.stats();
    std::ostringstream os;
    os << '{';
    os << "\"net_accepted\":" << net.accepted
       << ",\"net_closed\":" << net.closed
       << ",\"net_active\":" << net.activeConnections
       << ",\"net_frames_in\":" << net.framesIn
       << ",\"net_responses_out\":" << net.responsesOut
       << ",\"net_responses_dropped\":" << net.responsesDropped
       << ",\"net_bytes_in\":" << net.bytesIn
       << ",\"net_bytes_out\":" << net.bytesOut
       << ",\"net_read_pauses\":" << net.readPauses;
    os << ",\"engine_frames_submitted\":" << es.framesSubmitted
       << ",\"engine_frames_decoded\":" << es.framesDecoded
       << ",\"engine_frames_rejected\":" << es.framesRejected
       << ",\"engine_frames_inline\":" << es.framesInline
       << ",\"engine_events\":" << es.eventsProcessed
       << ",\"engine_predictions\":" << es.predictions
       << ",\"engine_sessions_live\":" << es.sessionsLive
       << ",\"engine_backpressure_waits\":" << es.backpressureWaits;
    const auto arr = [&os](const char *key, const auto &values) {
        os << ",\"" << key << "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i != 0)
                os << ',';
            os << static_cast<std::uint64_t>(values[i]);
        }
        os << ']';
    };
    arr("engine_queue_depth", es.queueDepth);
    arr("engine_queue_backpressure_waits",
        es.queueBackpressureWaits);
    arr("engine_worker_busy_ns", es.workerBusyNs);
    arr("engine_worker_idle_ns", es.workerIdleNs);
    os << ",\"span_sample_every\":" << spans.sampleEvery()
       << ",\"span_frames_seen\":" << spans.framesSeen()
       << ",\"span_frames_sampled\":" << spans.sampledFrames();
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
        const auto stage = static_cast<telemetry::Stage>(s);
        const telemetry::HistogramSnapshot snap =
            spans.stageSnapshot(stage);
        const char *name = telemetry::stageName(stage);
        os << ",\"stage_" << name << "_count\":" << snap.count
           << ",\"stage_" << name << "_sum_ns\":" << snap.sum
           << ",\"stage_" << name << "_p50_ns\":"
           << telemetry::percentileFromHistogram(snap, 0.50)
           << ",\"stage_" << name << "_p99_ns\":"
           << telemetry::percentileFromHistogram(snap, 0.99);
    }
    if (statsAugmenter)
        statsAugmenter(os);
    os << '}';
    return os.str();
}

void
Server::drain()
{
    if (!started.load() || draining.load())
        return;
    draining.store(true);
    if (acceptor.joinable())
        acceptor.join();
    listener.reset(); // new connections are refused from here on

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(cfg.drainTimeoutMs);
    const auto tickLen = std::chrono::milliseconds(cfg.tickMs);

    // Phase 1: wait for the read side to go quiet - no reads, no
    // parked frames, no partial input - for three consecutive ticks
    // on every reactor. Quiet is re-earned from zero so bytes
    // already in flight on the loopback get read before the engine
    // drains.
    for (auto &reactor : reactors)
        reactor->quietTicks.store(0, std::memory_order_relaxed);
    while (Clock::now() < deadline) {
        bool quiet = true;
        for (const auto &reactor : reactors) {
            if (reactor->quietTicks.load(std::memory_order_relaxed) <
                3) {
                quiet = false;
                break;
            }
        }
        if (quiet)
            break;
        std::this_thread::sleep_for(tickLen);
    }

    // Phase 2: every accepted frame is in the engine; wait for the
    // workers to finish so every reply has been posted back.
    eng.drain();

    // Phase 3: flush the replies to the sockets (bounded).
    while (Clock::now() < deadline) {
        bool flushed = true;
        for (const auto &reactor : reactors) {
            if (!reactor->flushed.load(std::memory_order_relaxed)) {
                flushed = false;
                break;
            }
        }
        if (flushed)
            break;
        for (auto &reactor : reactors)
            wakeReactor(*reactor);
        std::this_thread::sleep_for(tickLen);
    }
}

void
Server::stop()
{
    if (!started.load())
        return;
    drain();
    stopping.store(true);
    for (auto &reactor : reactors)
        wakeReactor(*reactor);
    if (acceptor.joinable())
        acceptor.join();
    admin.stop();
    for (auto &reactor : reactors) {
        if (reactor->thread.joinable())
            reactor->thread.join();
    }
    // Reactors could still submit after drain()'s quiet window;
    // now that they are joined no new submissions are possible, so
    // one more engine drain guarantees no worker is inside the
    // frame callback while it is cleared (setFrameCallback is not
    // safe against in-flight traffic).
    eng.drain();
    eng.setFrameCallback(nullptr);
    if (spans.enabled())
        eng.setSpanRecorder(nullptr);
    std::uint64_t open = 0;
    for (auto &reactor : reactors) {
        open += reactor->conns.size();
        for (auto &[id, conn] : reactor->conns)
            settlePendingSpans(conn);
        reactor->conns.clear();
    }
    if (open > 0) {
        closed.add(open);
        active.add(-static_cast<std::int64_t>(open));
    }
    started.store(false);
}

NetStats
Server::stats() const
{
    NetStats stats;
    stats.accepted = accepted.get();
    stats.closed = closed.get();
    stats.idleClosed = idleClosed.get();
    stats.resets = resets.get();
    stats.acceptFailures = acceptFailures.get();
    stats.bytesIn = bytesIn.get();
    stats.bytesOut = bytesOut.get();
    stats.framesIn = framesIn.get();
    stats.responsesOut = responsesOut.get();
    stats.responsesDropped = responsesDropped.get();
    stats.framesResynced = resynced.get();
    stats.resyncBytesSkipped = resyncBytes.get();
    stats.readPauses = readPauses.get();
    stats.activeConnections = static_cast<std::size_t>(active.get());
    return stats;
}

} // namespace hotpath::net
