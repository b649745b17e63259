/**
 * @file
 * Sharded session registry with striped locks and LRU idle eviction.
 *
 * Sessions are partitioned across shards by a mixed hash of the
 * session id; each shard holds its own mutex, hash map and LRU list,
 * so concurrent traffic for different clients contends only when it
 * lands on the same stripe. A capacity cap bounds the table's memory:
 * creating a session in a full shard evicts that shard's
 * least-recently-active session first (idle clients fall out, hot
 * clients stay resident).
 *
 * The shard partition doubles as the engine's ordering domain: the
 * engine assigns every shard to exactly one worker, so all activity
 * on one session is serialized without per-session locks.
 *
 * Two access planes share the stripes:
 *
 *  - The worker plane (`lockShard()` + the `*Locked` variants) is
 *    the frame hot path. The owning worker takes the stripe lock
 *    ONCE per drained batch and then touches its sessions lock-free,
 *    so the per-frame cost is a hash lookup, not a mutex round trip.
 *    Visitor callbacks are `FunctionRef`s - no `std::function`
 *    allocation per frame.
 *  - The cross-thread plane (everything else: `withSession`,
 *    `peekSession`, `evictIdle`, export/import) locks per call,
 *    exactly as before. This is how admin threads, idle sweeps and
 *    migration interleave safely with worker batches. `stats` reads
 *    atomics and takes no lock.
 */

#ifndef HOTPATH_ENGINE_SESSION_TABLE_HH
#define HOTPATH_ENGINE_SESSION_TABLE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/session.hh"
#include "support/function_ref.hh"
#include "telemetry/stat.hh"

namespace hotpath
{

namespace engine
{

/** Session table parameters. */
struct SessionTableConfig
{
    /** Lock stripes; rounded up to a power of two. */
    std::size_t shardCount = 16;

    /**
     * Cap on resident sessions across the whole table (0 = no cap).
     * Enforced per shard at ceil(maxSessions / shardCount).
     */
    std::size_t maxSessions = 0;

    /** Configuration for every created session. */
    SessionConfig session;
};

/** Lifetime counters for the table. */
struct SessionTableStats
{
    /** Sessions created (including re-creations after eviction). */
    std::uint64_t created = 0;
    /** Sessions evicted by the LRU capacity cap. */
    std::uint64_t evicted = 0;
    /** Sessions retired by evictIdle() (idle sweep). */
    std::uint64_t idleEvicted = 0;
    /** Poisoned sessions replaced in place
     *  (rebuildSessionLocked). */
    std::uint64_t rebuilt = 0;
    /** Session creations refused by the allocation-failure hook. */
    std::uint64_t allocFailures = 0;
    /** Sessions currently resident. */
    std::size_t live = 0;
};

/** Non-allocating visitor over a mutable session. */
using SessionFn = support::FunctionRef<void(Session &)>;
/** Non-allocating visitor over a read-only session. */
using ConstSessionFn = support::FunctionRef<void(const Session &)>;

/** Striped-lock session map; see file comment. */
class ShardedSessionTable
{
  public:
    /** Build an empty table with config.shardCount stripes. */
    explicit ShardedSessionTable(SessionTableConfig config);

    /** Actual shard count (power of two). */
    std::size_t shardCount() const { return shards.size(); }

    /** Shard that owns `session_id` (stable mixed hash). */
    std::size_t shardOf(std::uint64_t session_id) const;

    // Worker plane (batch-scoped shard ownership) ------------------

    /**
     * Acquire shard `shard_index`'s stripe lock and hand it to the
     * caller. The engine's worker takes this once per drained batch;
     * while held, the worker may use the `*Locked` variants below on
     * any session of that shard without further locking. Lock-wait
     * time is recorded in engine.table.lock.wait.ns when telemetry
     * is attached.
     */
    std::unique_lock<std::mutex> lockShard(std::size_t shard_index);

    /**
     * withSession() without the lock round trip: the caller must
     * hold `session_id`'s shard lock (lockShard). Same semantics
     * otherwise - find-or-create with LRU/cap/alloc-hook handling,
     * activity stamp, LRU refresh; returns false only when creation
     * was refused by the allocation-failure hook.
     */
    bool withSessionLocked(std::uint64_t session_id, SessionFn fn);

    /**
     * Replace a poisoned session with a fresh one in place (same id,
     * same LRU position; counters and predictor state are discarded).
     * The caller must hold `session_id`'s shard lock (lockShard).
     * `init` runs on the replacement - the engine uses it to arm
     * re-admission backoff. Creates the session if it was not
     * resident (eviction may have raced the rebuild). The
     * allocation-failure hook is NOT consulted: recovery must not be
     * starved by the fault it is recovering from.
     */
    void rebuildSessionLocked(std::uint64_t session_id,
                              SessionFn init);

    /** installSession() for a caller already holding the shard
     *  lock. */
    void installSessionLocked(std::uint64_t session_id,
                              SessionFn init);

    /** peekSession() for a caller already holding the shard lock. */
    bool peekSessionLocked(std::uint64_t session_id,
                           ConstSessionFn fn) const;

    // Cross-thread plane (per-call locking) ------------------------

    /**
     * Run `fn` on the session, creating it (possibly evicting the
     * shard's LRU session) if absent. The shard lock is held for the
     * duration, serializing against every other access to sessions
     * in the same stripe. Returns false - without running `fn` - only
     * when the session had to be created and the allocation-failure
     * hook refused the allocation.
     */
    bool withSession(std::uint64_t session_id, SessionFn fn);

    /**
     * Replace (or create) a session with a fresh one and run `init`
     * on it under the shard lock - the migration import path: the
     * engine installs an exported snapshot via Session::importState.
     * Identical to rebuildSessionLocked except it takes the lock, is
     * not counted as a poison-recovery rebuild and refreshes the LRU
     * position (an imported session is active, not damaged). The
     * allocation-failure hook is NOT consulted: migration must not be
     * starved by injected allocation faults.
     */
    void installSession(std::uint64_t session_id, SessionFn init);

    /**
     * Install a hook consulted before each *new* session allocation;
     * returning true makes the allocation fail (withSession returns
     * false). Used by the fault injector to simulate allocation
     * failure; pass nullptr to uninstall. Not thread-safe against
     * concurrent table use - install before traffic starts.
     */
    void setAllocFailHook(std::function<bool()> hook);

    /**
     * Run `fn` on the session if it is resident; returns false
     * without creating anything when it is not. Does not refresh the
     * session's LRU position (peeking is not activity).
     */
    bool peekSession(std::uint64_t session_id,
                     ConstSessionFn fn) const;

    /**
     * Mutable peekSession: run `fn` on the session if resident,
     * without creating it and without refreshing its LRU position (a
     * control-plane retune is not client activity). The adaptive
     * controller's per-session knob path.
     */
    bool mutateSession(std::uint64_t session_id, SessionFn fn);

    /** Visit every resident session (shard by shard, under locks). */
    void forEach(ConstSessionFn fn) const;

    /** Drop one session; returns true if it was resident. */
    bool erase(std::uint64_t session_id);

    /**
     * Retire every session whose last activity is more than `max_age`
     * activity ticks in the past, and return how many were evicted.
     * The table keeps a logical activity clock - each withSession()
     * access is one tick - so "age" is measured in how much traffic
     * the table as a whole has seen since the session was touched,
     * not wall time; a quiet table never ages anyone out.
     */
    std::size_t evictIdle(std::uint64_t max_age);

    /** Current value of the logical activity clock (ticks). */
    std::uint64_t activityTicks() const
    {
        return activityClock.load(std::memory_order_relaxed);
    }

    /** Number of resident sessions. */
    std::size_t liveSessions() const;

    /** Lifetime counters across all shards. */
    SessionTableStats stats() const;

  private:
    struct Shard
    {
        mutable std::mutex mu;
        /** Most-recently-active session ids at the front. */
        std::list<std::uint64_t> lru;
        struct Entry
        {
            std::unique_ptr<Session> session;
            std::list<std::uint64_t>::iterator lruPos;
            /** Activity-clock tick of the last withSession access. */
            std::uint64_t lastActive = 0;
        };
        std::unordered_map<std::uint64_t, Entry> sessions;
    };

    SessionTableConfig cfg;
    std::size_t perShardCap; // 0 = uncapped
    std::vector<std::unique_ptr<Shard>> shards;
    std::function<bool()> allocFailHook;
    /** Table-wide logical clock; one tick per withSession access. */
    std::atomic<std::uint64_t> activityClock{0};

    // Table-wide stats (read by stats()); a named stat also bumps the
    // registry instrument of that name (telemetry/stat.hh).
    telemetry::CounterStat created{"engine.sessions.created"};
    telemetry::CounterStat evicted{"engine.sessions.evicted"};
    telemetry::CounterStat idleEvicted{"engine.sessions.evicted.idle"};
    telemetry::CounterStat rebuilt;
    telemetry::CounterStat allocFailures;
    telemetry::GaugeStat live{"engine.sessions.live"};
    /** Registry-only (nullptr when telemetry is not attached).
     *  Stripe-lock acquisition wait (lockShard + the cross-thread
     *  plane); a fat tail here means cross-thread sweeps are
     *  stalling behind long worker batches. */
    telemetry::Histogram *tmLockWait = nullptr;
};

} // namespace engine
} // namespace hotpath

#endif // HOTPATH_ENGINE_SESSION_TABLE_HH
