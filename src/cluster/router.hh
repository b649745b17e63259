/**
 * @file
 * The cluster routing tier: one frontend process that consistent-
 * hashes sessions onto a fleet of net::Server backends, speaking the
 * wire format on both sides.
 *
 * Threading model: one router thread runs a ::poll loop over the
 * frontend listener, every client connection, every backend
 * connection (net::Client sockets) and an eventfd wakeup; an admin
 * thread serves the introspection HTTP endpoint. Client connections
 * are net::FramedConns, as in the server. All routing state -
 * the hash ring, the session routes, the per-backend in-flight
 * ledgers - is owned by the router thread; control operations
 * (addBackend/removeBackend) post commands through a locked queue
 * and the eventfd.
 *
 * In-flight ledger: every frame accepted from a client is recorded
 * against the backend it was routed to (per-session FIFO, keyed by
 * sequence) before it is sent, and the entry keeps the encoded frame
 * bytes. A backend reply retires the matching entry and is forwarded
 * to the owning client; a broken backend connection replays every
 * ledgered frame - to the same backend after a successful reconnect,
 * or to the session's new owner after failover - so every accepted
 * frame is answered exactly once even when a backend dies mid-burst.
 *
 * Session migration: every backend on the ring projects the same
 * number of points, so sessions move only when membership changes.
 * A topology change (addBackend/removeBackend) rebuilds the ring
 * and, for every tracked session whose owner changed, runs the
 * drain-and-rehash protocol: new frames for the session are parked;
 * a FrameKind::SessionState export request goes to the old owner;
 * the snapshot reply is re-encoded as an import frame to the new
 * owner; the import's ack completes the migration and the parked
 * frames flow to the new owner. Predictor history
 * (NET counters, fragment cache, sequence cursor) survives the move
 * bit-for-bit - see Engine::exportSession/importSession.
 *
 * Failover: when a backend connection breaks, the router retries the
 * connect (net::Client's deterministic jittered backoff); if the
 * backend stays unreachable it is declared dead, removed from the
 * ring, its sessions rehash to the survivors (history lost for those
 * sessions only - there is nobody left to export from), and its
 * ledger replays. A backend that owes replies and has answered none
 * for a reply deadline (a hung process behind an open socket) is
 * failed over the same way. With zero live backends the router
 * answers every frame itself with an empty prediction reply so the
 * tier never strands a client.
 *
 * Everything is mirrored into cluster.* telemetry instruments and an
 * admin endpoint (/metrics, /healthz, /topology, /stats), matching
 * the serving layer's observability discipline.
 */

#ifndef HOTPATH_CLUSTER_ROUTER_HH
#define HOTPATH_CLUSTER_ROUTER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.hh"
#include "net/admin_endpoint.hh"
#include "net/client.hh"
#include "net/framed_conn.hh"
#include "telemetry/stat.hh"

namespace hotpath
{

namespace cluster
{

/** Address of one backend net::Server. */
struct BackendAddress
{
    /** Backend IPv4 address (dotted quad). */
    std::string host = "127.0.0.1";

    /** Backend TCP port. */
    std::uint16_t port = 0;
};

/** Router parameters. */
struct RouterConfig
{
    /** IPv4 address the frontend listener binds (dotted quad). */
    std::string bindAddress = "127.0.0.1";

    /** Frontend TCP port; 0 binds an ephemeral port (read it back
     *  with Router::port()). */
    std::uint16_t port = 0;

    /** Initial backend fleet; start() connects to each in order. */
    std::vector<BackendAddress> backends;

    /** Connect attempts per backend (initial connect and the
     *  reconnect probe before failover declares it dead). */
    std::uint32_t connectAttempts = 4;

    /** Backend connect backoff base, in milliseconds
     *  (ClientConfig::retryBaseMs). */
    std::uint64_t retryBaseMs = 5;

    /** Seed for the backends' deterministic connect jitter
     *  (ClientConfig::retryJitterSeed, xored with the backend id). */
    std::uint64_t retryJitterSeed = 0;

    /** Router maintenance tick in milliseconds (poll timeout,
     *  drain-quiet granularity). */
    std::uint64_t tickMs = 10;

    /** Bytes per read(2) on a readable client socket. */
    std::size_t readChunkBytes = 64 * 1024;

    /** Cap on a client connection's reassembly buffer; a client
     *  streaming this much without completing a frame is cut off. */
    std::size_t maxInBufferBytes = std::size_t{1} << 20;

    /** Cap on a client connection's unsent reply backlog; replies
     *  beyond it are dropped (counted). */
    std::size_t maxOutBufferBytes = std::size_t{1} << 20;

    /** Longest drain() waits for in-flight frames and reply flushes,
     *  in milliseconds. */
    std::uint64_t drainTimeoutMs = 5000;

    /**
     * Admin (introspection) HTTP listener port: -1 disables it, 0
     * binds an ephemeral port (read it back with
     * Router::adminPort()). A net::AdminEndpoint serves GETs of
     * /metrics (Prometheus text), /healthz (drain state), /topology
     * (the ring: backends, liveness, in-flight, owned sessions) and
     * /stats (flat JSON consumed by examples/engine_top).
     */
    int adminPort = -1;
};

/** Aggregate router counters (mirrored in cluster.* telemetry). */
struct RouterStats
{
    /** Client connections accepted. */
    std::uint64_t accepted = 0;
    /** Client connections closed. */
    std::uint64_t closed = 0;
    /** Complete frames accepted from clients. */
    std::uint64_t framesIn = 0;
    /** Client frames forwarded to a backend (first send). */
    std::uint64_t framesRouted = 0;
    /** Ledgered frames re-sent after a reconnect or failover. */
    std::uint64_t framesReplayed = 0;
    /** Export/import frames the router itself sent to backends. */
    std::uint64_t migrationFrames = 0;
    /** Payload bytes moved by session migration (export replies +
     *  import frames). */
    std::uint64_t migrationBytes = 0;
    /** Replies forwarded to clients. */
    std::uint64_t responsesOut = 0;
    /** Replies the router synthesized itself (no live backends). */
    std::uint64_t responsesSynthesized = 0;
    /** Replies dropped (client gone or its backlog overflowed). */
    std::uint64_t responsesDropped = 0;
    /** Corrupt regions resynced past in client input. */
    std::uint64_t framesResynced = 0;
    /** Bytes skipped while resyncing client input. */
    std::uint64_t resyncBytesSkipped = 0;
    /** Topology rebuilds (add/remove/failover). */
    std::uint64_t rehashes = 0;
    /** Sessions whose state completed a migration. */
    std::uint64_t sessionsMigrated = 0;
    /** Backend connections re-established after a break. */
    std::uint64_t backendReconnects = 0;
    /** Backends declared dead and failed over. */
    std::uint64_t failovers = 0;
    /** Client connections currently open. */
    std::size_t activeConnections = 0;
    /** Backends currently connected. */
    std::size_t backendsLive = 0;
    /** Ledger entries currently awaiting a backend reply. */
    std::size_t inFlightTotal = 0;
    /** Sessions with a tracked route. */
    std::size_t sessionsTracked = 0;
    /** Frames parked behind an in-progress migration. */
    std::size_t parkedFrames = 0;
};

/** One backend's row in Router::topology(). */
struct BackendSnapshot
{
    /** Stable backend id (ring node id). */
    std::uint64_t id = 0;
    /** Backend address. */
    std::string host;
    /** Backend port. */
    std::uint16_t port = 0;
    /** True while the backend's connection is up. */
    bool alive = false;
    /** True while the backend is draining out (removeBackend). */
    bool retiring = false;
    /** Ledger entries awaiting this backend's reply. */
    std::size_t inFlight = 0;
    /** Sessions currently routed to this backend. */
    std::size_t sessionsOwned = 0;
    /** Frames this backend has been sent (routed + replayed +
     *  migration traffic). */
    std::uint64_t framesSent = 0;
};

/** The consistent-hash routing frontend; see the file comment. */
class Router
{
  public:
    /** Configure a router; nothing runs until start(). */
    explicit Router(RouterConfig config);

    /** Stops and joins everything still running. */
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Connect the configured backends, bind the frontend listener
     * and spawn the router (and admin) threads. Returns false when
     * the bind or every configured backend connect fails; backends
     * that fail to connect individually are reported dead in
     * topology() but do not fail start().
     */
    bool start();

    /** The bound frontend port (valid after start()). */
    std::uint16_t port() const { return boundPort; }

    /** The bound admin port (valid after start() when
     *  RouterConfig::adminPort >= 0; otherwise 0). */
    std::uint16_t adminPort() const { return admin.port(); }

    /**
     * Add a backend to the fleet (asynchronous: posts a command to
     * the router thread). The router connects it, rebuilds the ring
     * and migrates every session whose owner changed. Returns the
     * new backend's id. Observe completion via stats().rehashes or
     * topology().
     */
    std::uint64_t addBackend(const BackendAddress &address);

    /**
     * Retire a backend (asynchronous). Its ring points are removed
     * immediately, every session it owned migrates out through the
     * drain-and-rehash protocol, and the connection closes once its
     * ledger is empty. Unknown ids are ignored.
     */
    void removeBackend(std::uint64_t id);

    /**
     * Graceful drain: stop accepting, wait until every accepted
     * frame has been answered and flushed (bounded by
     * RouterConfig::drainTimeoutMs). Client connections stay open
     * until stop().
     */
    void drain();

    /** drain(), then stop and join all threads (idempotent). */
    void stop();

    /** Aggregate routing counters. */
    RouterStats stats() const;

    /** Per-backend fleet snapshot (id order). */
    std::vector<BackendSnapshot> topology() const;

  private:
    /** A frame awaiting its backend reply. */
    struct Pending
    {
        /** Matches the reply's echoed sequence. */
        std::uint64_t sequence = 0;
        /** Client connection owed the reply (0 = router-internal
         *  migration traffic). */
        std::uint64_t clientConn = 0;
        /** What the entry is waiting for. */
        enum class Phase : std::uint8_t
        {
            Normal, ///< client frame; Predictions reply
            Export, ///< export request; SessionState reply
            Import  ///< import frame; Predictions ack
        } phase = Phase::Normal;
        /** Encoded frame bytes, kept for replay. */
        std::vector<std::uint8_t> bytes;
    };

    /** One backend and its in-flight ledger. */
    struct Backend
    {
        std::uint64_t id = 0;
        BackendAddress address;
        std::unique_ptr<net::Client> client;
        /** Connection believed up. */
        bool alive = false;
        /** Draining out after removeBackend(). */
        bool retiring = false;
        /** Permanently gone (failover or retirement complete). */
        bool dead = false;
        /** Connection broke; the recovery pass must reconnect or
         *  fail over. */
        bool needsRecovery = false;
        /** Per-session FIFO of frames awaiting replies. */
        std::unordered_map<std::uint64_t, std::deque<Pending>>
            ledger;
        std::size_t inFlight = 0;
        /** When a reply last arrived, or the backend last began to
         *  owe one (inFlight left 0, or a reconnect replayed). */
        std::chrono::steady_clock::time_point lastReply;
        std::uint64_t framesSent = 0;
        /** Eagerly registered per-backend in-flight gauge. */
        telemetry::Gauge *tmInFlight = nullptr;
    };

    /** One frontend (client) connection. */
    struct ClientConn
    {
        net::FramedConn framed;
        std::uint64_t id = 0;
        /** Frames accepted whose replies have not yet been posted
         *  back to this connection. */
        std::uint64_t inFlight = 0;
    };

    /** Where a session's frames go right now. */
    struct SessionRoute
    {
        std::uint64_t owner = 0;
        /** True once `owner` has been assigned from the ring (owner
         *  id 0 is a valid backend, so 0 alone cannot mean
         *  "unassigned"). */
        bool assigned = false;
        /** Migration target while `migrating` is set. */
        std::uint64_t pendingOwner = 0;
        bool migrating = false;
        /** Frames parked until the migration completes. */
        std::deque<Pending> parked;
    };

    /** Control commands posted to the router thread. */
    struct Command
    {
        enum class Kind : std::uint8_t
        {
            AddBackend,
            RemoveBackend
        } kind = Kind::AddBackend;
        BackendAddress address;
        std::uint64_t id = 0;
    };

    /** Build a Backend (client + per-backend gauge); no connect. */
    std::unique_ptr<Backend>
    makeBackendLocked(std::uint64_t id,
                      const BackendAddress &address);
    /** A fresh, unconnected client for backend `id` at `address`. */
    std::unique_ptr<net::Client>
    makeClient(std::uint64_t id, const BackendAddress &address) const;
    /** The backend with `id`, or nullptr. */
    Backend *findBackend(std::uint64_t id);
    void routerLoop();
    void acceptPending();
    /** Read a client socket and route its frames; returns false
     *  when the connection must be closed. */
    bool handleClientReadable(ClientConn &conn);
    /** Route one accepted frame (or park it behind a migration). */
    void routeFrame(const wire::FrameHeader &header,
                    std::vector<std::uint8_t> frame,
                    std::uint64_t client_conn);
    /** Adjust a client connection's owed-reply count (no-op when
     *  the connection is gone). */
    void bumpClientInFlight(std::uint64_t client_conn,
                            std::int64_t delta);
    /** Ledger a frame against `backend` and send it. */
    void sendToBackend(Backend &backend, std::uint64_t session,
                       Pending entry);
    void handleBackendReadable(Backend &backend);
    /** Retire the ledger entry matching a reply; returns false when
     *  nothing matched (stale reply after a replay). */
    bool settleReply(Backend &backend,
                     const net::PredictionReply &reply);
    /** Forward a backend reply to its client connection. */
    void forwardReply(std::uint64_t client_conn,
                      const net::PredictionReply &reply);
    /** Answer a frame with an empty synthesized prediction reply
     *  (no live backends). */
    void synthesizeReply(std::uint64_t session,
                         std::uint64_t sequence,
                         std::uint64_t client_conn);
    /** synthesizeReply() plus the owed-reply decrement, for frames
     *  that were already counted against their connection. */
    void synthesizeToConn(std::uint64_t session,
                          std::uint64_t sequence,
                          std::uint64_t client_conn);
    /** Queue replyScratch on a client, count it in `sent` and flush
     *  the client's replies. A reply that would take the client's
     *  backlog past maxOutBufferBytes is dropped (counted) instead. */
    void sendReply(ClientConn &conn, telemetry::CounterStat &sent);
    void closeClient(std::uint64_t conn_id);
    /** Reconnect a broken backend and replay its ledger, or declare
     *  it dead and fail its sessions over. */
    void handleBackendBroken(Backend &backend);
    /** Fail over every live backend, connected or broken, that owes
     *  replies and has answered none within kReplyDeadline
     *  (router.cc); a connected one's socket is read first. */
    void failSilentBackends();
    /** Re-send every ledgered frame on a freshly reconnected
     *  backend connection. */
    void replayToSelf(Backend &backend);
    /** Remove a dead backend from the ring and rehash its sessions
     *  and ledger onto the survivors. */
    void failover(Backend &backend);
    /** Move a dead backend's ledger entries to each session's new
     *  owner (or synthesize replies when nobody is left). */
    void redistributeLedger(Backend &backend);
    /** Rebuild ownership after a ring change: start migrations for
     *  sessions whose owner moved (live old owner) or rehash them
     *  directly (dead old owner). */
    void rehashSessions();
    /** Begin the drain-and-rehash protocol for one session: park
     *  new frames and send the export request to the old owner. */
    void startMigration(std::uint64_t session, SessionRoute &route,
                        std::uint64_t new_owner);
    /** Progress a migration on a SessionState export reply. */
    void handleExportReply(const net::PredictionReply &reply);
    /** Complete a migration on the import ack. */
    void finishMigration(std::uint64_t session);
    /** Flush a migrated/abandoned session's parked frames. */
    void unparkSession(std::uint64_t session, SessionRoute &route);
    /** Close retiring backends whose ledgers drained. */
    void reapRetiring();
    void executeCommand(const Command &command);
    void wakeRouter();
    /** Recompute the derived gauges and the quiescence flag (router
     *  thread, once per loop pass). */
    void refreshDerived();
    /** Refresh the locked topology snapshot (router thread only). */
    void publishTopology();
    /** The /stats document: flat JSON (scalars and flat numeric
     *  arrays only; engine_top scans it without a JSON parser). */
    std::string statsJson() const;
    /** The /topology document (JSON). */
    std::string topologyJson() const;

    RouterConfig cfg;
    HashRing ring;
    net::Fd listener;
    std::uint16_t boundPort = 0;
    net::Fd wakeup; ///< eventfd: command queue + stop/drain nudges
    std::thread routerThread;
    std::atomic<bool> stopping{false};
    std::atomic<bool> draining{false};
    std::atomic<bool> started{false};
    /** Set while the router thread considers itself fully idle (no
     *  in-flight frames, no parked frames, everything flushed). */
    std::atomic<bool> quiescent{true};

    std::uint64_t nextConnId = 1;
    std::uint64_t nextBackendId = 0;
    /** Sequence source for router-generated migration frames. */
    std::uint64_t migrationSequence = 1;

    // Router-thread-owned state.
    std::unordered_map<std::uint64_t, ClientConn> conns;
    /** Reply encode buffer, reused for every reply. */
    std::vector<std::uint8_t> replyScratch;
    std::vector<std::unique_ptr<Backend>> backends;
    std::unordered_map<std::uint64_t, SessionRoute> routes;

    std::mutex cmdMu;
    std::deque<Command> commands;
    std::atomic<std::uint64_t> nextCommandBackendId{0};

    mutable std::mutex topoMu;
    std::vector<BackendSnapshot> topoSnapshot;

    // Routing stats (read by stats()); a named stat also bumps the
    // cluster.* instrument of that name (telemetry/stat.hh).
    telemetry::CounterStat accepted{"cluster.connections.accepted"};
    telemetry::CounterStat closed{"cluster.connections.closed"};
    telemetry::CounterStat framesIn{"cluster.frames.in"};
    telemetry::CounterStat framesRouted{"cluster.frames.routed"};
    telemetry::CounterStat framesReplayed{"cluster.frames.replayed"};
    telemetry::CounterStat migrationFrames{"cluster.migration.frames"};
    telemetry::CounterStat migrationBytes{"cluster.migration.bytes"};
    telemetry::CounterStat responsesOut{"cluster.responses.out"};
    telemetry::CounterStat responsesSynthesized{
        "cluster.responses.synthesized"};
    telemetry::CounterStat responsesDropped{"cluster.responses.dropped"};
    telemetry::CounterStat resynced{"cluster.frames.resynced"};
    telemetry::CounterStat resyncBytes{"cluster.resync.bytes.skipped"};
    telemetry::CounterStat rehashes{"cluster.rehash.events"};
    telemetry::CounterStat sessionsMigrated{"cluster.sessions.migrated"};
    telemetry::CounterStat backendReconnects{
        "cluster.backend.reconnects"};
    telemetry::CounterStat failovers{"cluster.failovers"};
    telemetry::GaugeStat active{"cluster.connections.active"};
    // Derived levels, published once per router pass.
    telemetry::GaugeStat backendsLive{"cluster.backends.live"};
    telemetry::GaugeStat inFlightTotal{"cluster.backend.inflight"};
    telemetry::GaugeStat parkedFrames{"cluster.frames.parked"};
    telemetry::GaugeStat sessionsTracked;

    /** /metrics, /healthz, /stats and /topology
     *  (RouterConfig::adminPort). Declared last: its thread reads the
     *  members above. */
    net::AdminEndpoint admin;
};

} // namespace cluster
} // namespace hotpath

#endif // HOTPATH_CLUSTER_ROUTER_HH
