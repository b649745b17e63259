/**
 * @file
 * The non-blocking TCP server that exposes engine::Engine over the
 * wire format.
 *
 * Threading model: one acceptor thread plus N reactor threads. Each
 * accepted connection is assigned to one reactor for its whole life,
 * and a reactor's connections are touched only by its own thread, so
 * connection state needs no locks. Reactors run edge-triggered epoll
 * with an eventfd wakeup for cross-thread handoff (new connections
 * from the acceptor, prediction replies from engine workers).
 *
 * Ingest path: each connection is a net::FramedConn. After every
 * read, each complete frame is handed to Engine::trySubmitShared as
 * a zero-copy slice of the connection's sealed ingest buffer, with
 * the connection id as the routing tag; corrupt regions are resynced
 * past at the next CRC-valid frame boundary.
 *
 * Backpressure chain: when a frame's shard queue is saturated,
 * trySubmitShared returns Backpressure and the reactor *stops reading that
 * socket* (the frame is parked, the kernel receive buffer fills, TCP
 * flow control pushes back to the client). Parked connections are
 * retried every maintenance tick.
 *
 * Response path: the engine's completion callback encodes each
 * decoded frame's predictions as a FrameKind::Predictions frame and
 * posts it to the owning reactor, which appends it to the
 * connection's outbound queue and flushes opportunistically (partial
 * writes and EPOLLOUT handled).
 *
 * Shutdown: drain() stops accepting, waits for the read side to go
 * quiet, drains the engine and flushes every reply before stop()
 * tears the threads down - the SIGTERM path for a serving binary
 * (see installSignalHandlers()).
 */

#ifndef HOTPATH_NET_SERVER_HH
#define HOTPATH_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.hh"
#include "net/admin_endpoint.hh"
#include "net/framed_conn.hh"
#include "net/socket.hh"
#include "support/fault_injector.hh"
#include "telemetry/span.hh"
#include "telemetry/stat.hh"

namespace hotpath
{

namespace net
{

/** Server parameters. */
struct ServerConfig
{
    /** IPv4 address to bind (dotted quad). */
    std::string bindAddress = "127.0.0.1";

    /** TCP port; 0 binds an ephemeral port (read it back with
     *  Server::port()). */
    std::uint16_t port = 0;

    /** Reactor (event-loop) threads. */
    std::size_t reactorThreads = 2;

    /** Bytes per read(2) call on a readable socket. */
    std::size_t readChunkBytes = 64 * 1024;

    /**
     * Cap on a connection's reassembly buffer. A peer that streams
     * this much without completing a frame is speaking garbage (or
     * hostile lengths) and is disconnected.
     */
    std::size_t maxInBufferBytes = std::size_t{1} << 20;

    /** Cap on a connection's unsent reply backlog; replies beyond it
     *  are dropped (counted) rather than buffering without bound. */
    std::size_t maxOutBufferBytes = std::size_t{1} << 20;

    /** Reactor maintenance tick in milliseconds (paused-connection
     *  retry, idle sweep, flush retry). */
    std::uint64_t tickMs = 10;

    /**
     * Close a connection after this many maintenance ticks without
     * inbound traffic (0 = never). Connections with replies still
     * owed - in flight in the engine or posted but not yet written
     * to the socket - are exempt until they are answered and
     * flushed.
     */
    std::uint64_t idleTimeoutTicks = 0;

    /** Deterministic fault plan for the socket-level sites
     *  (SockPartialWrite, ConnReset, AcceptFail). */
    fault::FaultPlan faults;

    /** Longest drain() will wait for reply flushing, in
     *  milliseconds. */
    std::uint64_t drainTimeoutMs = 5000;

    /**
     * Admin (introspection) HTTP listener port: -1 disables it, 0
     * binds an ephemeral port (read it back with
     * Server::adminPort()). The listener binds `bindAddress` on a
     * thread of its own (net::AdminEndpoint) and serves GETs of
     * /metrics (Prometheus text), /healthz (drain state) and /stats
     * (flat JSON counters consumed by examples/engine_top).
     */
    int adminPort = -1;

    /** Sample every Nth inbound frame for pipeline stage spans at
     *  the socket-read boundary (telemetry/span.hh); 0 = off. */
    std::uint64_t spanSampleEvery = 0;
};

/** Aggregate serving counters (mirrored in net.* telemetry). */
struct NetStats
{
    /** Connections accepted. */
    std::uint64_t accepted = 0;
    /** Connections closed for any reason. */
    std::uint64_t closed = 0;
    /** Connections closed by the idle sweep. */
    std::uint64_t idleClosed = 0;
    /** Connections dropped by an injected reset. */
    std::uint64_t resets = 0;
    /** Accepts refused (injected or real accept failure). */
    std::uint64_t acceptFailures = 0;
    /** Bytes read off sockets. */
    std::uint64_t bytesIn = 0;
    /** Bytes written to sockets. */
    std::uint64_t bytesOut = 0;
    /** Complete frames handed to the engine. */
    std::uint64_t framesIn = 0;
    /** Prediction replies written. */
    std::uint64_t responsesOut = 0;
    /** Replies dropped (overflow or the connection died first). */
    std::uint64_t responsesDropped = 0;
    /** Corrupt regions resynced past in the ingest stream. */
    std::uint64_t framesResynced = 0;
    /** Bytes skipped while resyncing. */
    std::uint64_t resyncBytesSkipped = 0;
    /** Times a connection was paused for shard-queue backpressure. */
    std::uint64_t readPauses = 0;
    /** Connections currently open. */
    std::size_t activeConnections = 0;
};

/** The epoll serving front end; see the file comment. */
class Server
{
  public:
    /**
     * Bind the server to `engine`. The engine must outlive the
     * server, must not be in serial mode unless reactorThreads == 1,
     * and must not yet carry traffic: start() installs the engine's
     * completion callback.
     */
    Server(engine::Engine &engine, ServerConfig config);

    /** Stops and joins everything still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spawn the acceptor and reactor threads.
     *  Returns false (with a log line) when the bind fails. */
    bool start();

    /** The bound TCP port (valid after start()). */
    std::uint16_t port() const { return boundPort; }

    /** The bound admin port (valid after start() when
     *  ServerConfig::adminPort >= 0; otherwise 0). */
    std::uint16_t adminPort() const { return admin.port(); }

    /** The server's stage-span recorder (disabled unless
     *  ServerConfig::spanSampleEvery != 0). */
    const telemetry::SpanRecorder &spanRecorder() const
    {
        return spans;
    }

    /**
     * Graceful drain: close the listener, wait for inbound traffic
     * to go quiet, drain the engine so every accepted frame is
     * answered, and flush the replies (bounded by
     * ServerConfig::drainTimeoutMs). Connections stay open - clients
     * read their last replies - until stop().
     */
    void drain();

    /** drain(), then stop and join all threads and close every
     *  connection (idempotent). */
    void stop();

    /** Aggregate serving counters. */
    NetStats stats() const;

    /**
     * Install a hook that appends extra fields to the /stats JSON
     * document. The hook runs on the admin thread with the document
     * stream positioned inside the top-level object, and must emit
     * zero or more `,"key":value` fragments (flat scalars only, per
     * the /stats contract). Install before start(); the server never
     * synchronises installation against a running admin thread. Used
     * by the control plane to surface control_* fields without a
     * net -> control dependency.
     */
    void setStatsAugmenter(std::function<void(std::ostream &)> hook)
    {
        statsAugmenter = std::move(hook);
    }

    /** The socket-fault injector, or nullptr when none is armed. */
    const fault::FaultInjector *
    faultInjector() const
    {
        return injector.get();
    }

    /**
     * Install SIGTERM/SIGINT handlers that set a process-wide drain
     * flag (async-signal-safe; the handler only stores a flag). A
     * serving binary polls signalDrainRequested() and calls drain()
     * + stop() itself - signal context never touches the server.
     */
    static void installSignalHandlers();

    /** True once SIGTERM/SIGINT was received after
     *  installSignalHandlers(). */
    static bool signalDrainRequested();

  private:
    /** One live connection; owned and touched only by its reactor. */
    struct Connection
    {
        FramedConn framed;
        std::uint64_t id = 0;
        /**
         * Frame parked by trySubmitShared Backpressure, as a slice
         * of the shared ingest buffer the scan sealed (zero-copy
         * even while parked; the refcount keeps the buffer alive).
         * parkedBuf == nullptr means nothing is parked.
         */
        std::shared_ptr<const std::vector<std::uint8_t>> parkedBuf;
        std::size_t parkedOff = 0;
        std::size_t parkedLen = 0;
        bool paused = false;
        /** Writability per last write attempt (edge-triggered). */
        bool writable = true;
        /** Frames submitted whose replies have not yet been posted
         *  back to this reactor. */
        std::uint64_t inFlight = 0;
        std::uint64_t lastActivityTick = 0;
        /** Stage spans: when this socket last became readable
         *  (start of the Read stage for frames extracted from the
         *  bytes that follow). Only maintained while sampling. */
        std::uint64_t readStartNs = 0;
        /** Enqueue timestamp of a span-sampled parked frame (0 =
         *  parked frame is unsampled or nothing parked). */
        std::uint64_t parkedSpanNs = 0;
        /** Sampled replies awaiting flush: (flushedBytes() watermark
         *  of the reply's last byte, enqueue time). */
        std::deque<std::pair<std::uint64_t, std::uint64_t>>
            spanWrites;
    };

    /** One reactor thread's state. */
    struct Reactor
    {
        Fd epoll;
        Fd wakeup; // eventfd; epoll data tag kWakeupId
        std::thread thread;
        std::size_t index = 0;
        std::unordered_map<std::uint64_t, Connection> conns;
        std::uint64_t tick = 0;
        /** Reads seen since the last maintenance pass
         *  (reactor-thread-only; feeds quiet detection). */
        bool sawReads = false;

        std::mutex inboxMu;
        std::vector<Fd> pendingConns;
        std::vector<std::uint64_t> pendingConnIds;
        struct Reply
        {
            std::uint64_t conn = 0;
            std::vector<std::uint8_t> bytes;
            /** Reply to a span-sampled frame: its write-flush stage
             *  must be recorded exactly once. */
            bool sampled = false;
        };
        std::deque<Reply> pendingReplies;

        /** Consecutive maintenance ticks with no reads, no parked
         *  frames and no partial input (read by drain()). */
        std::atomic<std::uint64_t> quietTicks{0};
        /** True when the inbox and every write buffer are empty. */
        std::atomic<bool> flushed{true};
    };

    void acceptLoop();
    /** Accept until the backlog is empty (EAGAIN). */
    void acceptPending();
    void reactorLoop(std::size_t index);
    /** True when a half-closed connection has nothing left to do
     *  (no parked frame, no reply owed, no unflushed bytes). */
    bool connDone(const Connection &conn) const;
    /** Read and submit what the socket holds. Stops after a short
     *  read unless `to_eagain` (the event reported a hang-up, or a
     *  paused connection resumes). `last_ready`: no other connection
     *  is ready in this epoll sweep. */
    void handleReadable(Reactor &reactor, Connection &conn,
                        bool to_eagain, bool last_ready);
    /** Submit every complete frame buffered; returns false when the
     *  connection must be closed. `may_inline`: nothing else waits
     *  for the reactor, so the frame that ends the buffer may run on
     *  this thread (Engine::trySubmitShared). */
    bool processInput(Reactor &reactor, Connection &conn,
                      bool may_inline);
    void flushOutput(Connection &conn);
    void maintenance(Reactor &reactor, std::size_t index);
    void drainInbox(Reactor &reactor);
    void closeConnection(Reactor &reactor, std::uint64_t conn_id);
    void postReply(std::size_t reactor_index, std::uint64_t conn_id,
                   std::vector<std::uint8_t> bytes, bool sampled);
    void wakeReactor(Reactor &reactor);
    /** The reactor whose loop runs on this thread, if any. */
    static thread_local const Reactor *ownReactor;
    /** Record the write-flush stage for sampled replies that `conn`
     *  will never flush (close/teardown), keeping the per-stage
     *  sample counts conserved. */
    void settlePendingSpans(Connection &conn);
    /** The /stats document: flat JSON (scalars and flat numeric
     *  arrays only, so engine_top can scan it without a JSON
     *  parser). */
    std::string statsJson() const;

    engine::Engine &eng;
    ServerConfig cfg;
    /** Stage-span recorder; sampling at the socket-read boundary. */
    telemetry::SpanRecorder spans;
    std::unique_ptr<fault::FaultInjector> injector;
    /** Extra /stats fields (see setStatsAugmenter). */
    std::function<void(std::ostream &)> statsAugmenter;
    Fd listener;
    std::uint16_t boundPort = 0;
    std::thread acceptor;
    std::vector<std::unique_ptr<Reactor>> reactors;
    std::atomic<bool> stopping{false};
    std::atomic<bool> draining{false};
    std::atomic<bool> started{false};
    std::atomic<std::uint64_t> nextConnId{1};

    // Serving stats (read by stats()); each also bumps the net.*
    // instrument of its name (telemetry/stat.hh).
    telemetry::CounterStat accepted{"net.connections.accepted"};
    telemetry::CounterStat closed{"net.connections.closed"};
    telemetry::CounterStat idleClosed{"net.connections.idle.closed"};
    telemetry::CounterStat resets{"net.connections.reset"};
    telemetry::CounterStat acceptFailures{"net.accept.failures"};
    telemetry::CounterStat bytesIn{"net.bytes.in"};
    telemetry::CounterStat bytesOut{"net.bytes.out"};
    telemetry::CounterStat framesIn{"net.frames.in"};
    telemetry::CounterStat responsesOut{"net.responses.out"};
    telemetry::CounterStat responsesDropped{"net.responses.dropped"};
    telemetry::CounterStat resynced{"net.frames.resynced"};
    telemetry::CounterStat resyncBytes{"net.resync.bytes.skipped"};
    telemetry::CounterStat readPauses{"net.read.pauses"};
    telemetry::GaugeStat active{"net.connections.active"};

    /** /metrics, /healthz and /stats (ServerConfig::adminPort).
     *  Declared last: its thread reads the members above. */
    AdminEndpoint admin;
};

} // namespace net
} // namespace hotpath

#endif // HOTPATH_NET_SERVER_HH
