#include "engine/session_table.hh"

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::engine
{

namespace
{

/** SplitMix64 finalizer: decorrelates adjacent session ids so shard
 *  assignment stays balanced even for sequential id allocation. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

ShardedSessionTable::ShardedSessionTable(SessionTableConfig config)
    : cfg(std::move(config))
{
    const std::size_t count =
        roundUpPow2(cfg.shardCount == 0 ? 1 : cfg.shardCount);
    shards.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        shards.push_back(std::make_unique<Shard>());

    perShardCap = cfg.maxSessions == 0
        ? 0
        : (cfg.maxSessions + count - 1) / count;

    tmLockWait = telemetry::histogram("engine.table.lock.wait.ns");
}

std::size_t
ShardedSessionTable::shardOf(std::uint64_t session_id) const
{
    return static_cast<std::size_t>(mix64(session_id)) &
           (shards.size() - 1);
}

std::unique_lock<std::mutex>
ShardedSessionTable::lockShard(std::size_t shard_index)
{
    Shard &shard = *shards[shard_index];
    std::unique_lock<std::mutex> lock(shard.mu, std::defer_lock);
    if (tmLockWait) {
        // Time the stripe-lock acquisition (two clock reads per
        // batch - only when telemetry is attached).
        const std::uint64_t before = telemetry::monotonicNanos();
        lock.lock();
        tmLockWait->record(telemetry::monotonicNanos() - before);
    } else {
        lock.lock();
    }
    return lock;
}

bool
ShardedSessionTable::withSessionLocked(std::uint64_t session_id,
                                       SessionFn fn)
{
    Shard &shard = *shards[shardOf(session_id)];
    const std::uint64_t tick =
        activityClock.fetch_add(1, std::memory_order_relaxed) + 1;

    auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
        if (allocFailHook && allocFailHook()) {
            allocFailures.add();
            return false;
        }
        if (perShardCap != 0 &&
            shard.sessions.size() >= perShardCap) {
            // Shard full: drop its least-recently-active session.
            const std::uint64_t victim = shard.lru.back();
            shard.lru.pop_back();
            shard.sessions.erase(victim);
            evicted.add();
            live.add(-1);
        }
        shard.lru.push_front(session_id);
        Shard::Entry entry;
        entry.session =
            std::make_unique<Session>(session_id, cfg.session);
        entry.lruPos = shard.lru.begin();
        it = shard.sessions.emplace(session_id, std::move(entry))
                 .first;
        created.add();
        live.add(1);
    } else if (it->second.lruPos != shard.lru.begin()) {
        // Refresh recency: this session is active again.
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         it->second.lruPos);
    }
    it->second.lastActive = tick;

    fn(*it->second.session);
    return true;
}

bool
ShardedSessionTable::withSession(std::uint64_t session_id,
                                 SessionFn fn)
{
    auto lock = lockShard(shardOf(session_id));
    return withSessionLocked(session_id, fn);
}

void
ShardedSessionTable::rebuildSessionLocked(std::uint64_t session_id,
                                          SessionFn init)
{
    Shard &shard = *shards[shardOf(session_id)];

    auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
        // Evicted between poisoning and rebuild: recreate.
        shard.lru.push_front(session_id);
        Shard::Entry entry;
        entry.session =
            std::make_unique<Session>(session_id, cfg.session);
        entry.lruPos = shard.lru.begin();
        entry.lastActive =
            activityClock.load(std::memory_order_relaxed);
        it = shard.sessions.emplace(session_id, std::move(entry))
                 .first;
        created.add();
        live.add(1);
    } else {
        it->second.session =
            std::make_unique<Session>(session_id, cfg.session);
    }
    rebuilt.add();
    init(*it->second.session);
}

void
ShardedSessionTable::installSessionLocked(std::uint64_t session_id,
                                          SessionFn init)
{
    Shard &shard = *shards[shardOf(session_id)];

    auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end()) {
        shard.lru.push_front(session_id);
        Shard::Entry entry;
        entry.session =
            std::make_unique<Session>(session_id, cfg.session);
        entry.lruPos = shard.lru.begin();
        it = shard.sessions.emplace(session_id, std::move(entry))
                 .first;
        created.add();
        live.add(1);
    } else {
        it->second.session =
            std::make_unique<Session>(session_id, cfg.session);
        if (it->second.lruPos != shard.lru.begin())
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lruPos);
    }
    it->second.lastActive =
        activityClock.load(std::memory_order_relaxed);
    init(*it->second.session);
}

void
ShardedSessionTable::installSession(std::uint64_t session_id,
                                    SessionFn init)
{
    auto lock = lockShard(shardOf(session_id));
    installSessionLocked(session_id, init);
}

void
ShardedSessionTable::setAllocFailHook(std::function<bool()> hook)
{
    allocFailHook = std::move(hook);
}

bool
ShardedSessionTable::peekSessionLocked(std::uint64_t session_id,
                                       ConstSessionFn fn) const
{
    const Shard &shard = *shards[shardOf(session_id)];
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end())
        return false;
    fn(*it->second.session);
    return true;
}

bool
ShardedSessionTable::peekSession(std::uint64_t session_id,
                                 ConstSessionFn fn) const
{
    const Shard &shard = *shards[shardOf(session_id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end())
        return false;
    fn(*it->second.session);
    return true;
}

bool
ShardedSessionTable::mutateSession(std::uint64_t session_id,
                                   SessionFn fn)
{
    Shard &shard = *shards[shardOf(session_id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end())
        return false;
    fn(*it->second.session);
    return true;
}

void
ShardedSessionTable::forEach(ConstSessionFn fn) const
{
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        for (const auto &[id, entry] : shard->sessions)
            fn(*entry.session);
    }
}

bool
ShardedSessionTable::erase(std::uint64_t session_id)
{
    Shard &shard = *shards[shardOf(session_id)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.sessions.find(session_id);
    if (it == shard.sessions.end())
        return false;
    shard.lru.erase(it->second.lruPos);
    shard.sessions.erase(it);
    live.add(-1);
    return true;
}

std::size_t
ShardedSessionTable::evictIdle(std::uint64_t max_age)
{
    const std::uint64_t now =
        activityClock.load(std::memory_order_relaxed);
    std::size_t retired = 0;
    for (const auto &shard_ptr : shards) {
        Shard &shard = *shard_ptr;
        std::lock_guard<std::mutex> lock(shard.mu);
        // Per-shard LRU order matches lastActive order (every touch
        // moves the entry to the front with a newer tick), so the
        // sweep only ever inspects the stale tail.
        while (!shard.lru.empty()) {
            const std::uint64_t victim = shard.lru.back();
            const auto it = shard.sessions.find(victim);
            HOTPATH_ASSERT(it != shard.sessions.end(),
                           "LRU entry without a session");
            // `now` was sampled before this shard's lock: a racing
            // withSession can stamp a newer tick, and unsigned
            // `now - lastActive` would wrap to ~2^64 and evict a
            // session touched an instant ago.
            if (it->second.lastActive > now ||
                now - it->second.lastActive <= max_age)
                break;
            shard.lru.pop_back();
            shard.sessions.erase(it);
            ++retired;
            idleEvicted.add();
            live.add(-1);
        }
    }
    return retired;
}

std::size_t
ShardedSessionTable::liveSessions() const
{
    return static_cast<std::size_t>(live.get());
}

SessionTableStats
ShardedSessionTable::stats() const
{
    SessionTableStats stats;
    stats.created = created.get();
    stats.evicted = evicted.get();
    stats.idleEvicted = idleEvicted.get();
    stats.rebuilt = rebuilt.get();
    stats.allocFailures = allocFailures.get();
    stats.live = liveSessions();
    return stats;
}

} // namespace hotpath::engine
