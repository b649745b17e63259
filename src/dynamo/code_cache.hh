/**
 * @file
 * The managed code cache: a size-bounded arena of linked fragments.
 *
 * The library's one fragment cache. It is the executing cache of the
 * Dynamo loop - it owns the stitched fragments the Machine dispatches
 * through (sim/dispatch.hh), the exit-stub link graph between them,
 * and the capacity-management policies the paper's Section 6
 * discussion motivates measuring - and it is each serving session's
 * cache (engine/session.hh), which uses only the FlushAll and
 * EvictLru policies and never links.
 *
 * Storage: a resident fragment is a 24-byte CodeFragment record. Its
 * link bookkeeping (stitched sequence, optimization ratio, exit
 * stubs, inbound links) lives in a side table keyed by head
 * (FragmentLinks), filled only by stitched inserts, exits and stub
 * patching, so a cache that never links pays nothing for it.
 *
 * Linking model (Dynamo's): every fragment exit is initially a stub -
 * a short trampoline that returns control to the runtime. When the
 * exit's target head acquires its own fragment, the stub is patched
 * into a direct branch-to-fragment ("linked"): subsequent transfers
 * bypass the runtime entirely. Two moments patch stubs:
 *
 *  - insert-time: creating a fragment for head H immediately links
 *    every resident stub that targets H (Dynamo links both directions
 *    at fragment creation using its exit-stub lists);
 *  - exit-time: the first exit to an already-resident target pays the
 *    one runtime round trip that performs the patch (recordExit
 *    returns ExitKind::PatchedNow).
 *
 * Unlink-on-evict invariant: evicting fragment F reverts every
 * inbound linked stub to stub state (the neighbours fall back to the
 * runtime round trip) and detaches F's own outbound links from its
 * targets' inbound lists. verifyLinkInvariants() checks the whole
 * graph and is exercised by tests/dynamo_cache_test.cc.
 *
 * Capacity policies (CachePolicy):
 *
 *  - FlushAll:     Dynamo's production choice - exceeding capacity
 *                  empties the whole cache (unlinking is free because
 *                  everything goes);
 *  - EvictLru:     least-recently-executed fragment granularity, each
 *                  victim paying individual link repair;
 *  - EvictFifo:    formation-order fragment granularity (no touch
 *                  bookkeeping on the hot path);
 *  - Generational: fragments are grouped into insertion generations
 *                  and the oldest resident generation is dropped
 *                  wholesale - the middle ground between piecemeal
 *                  eviction and total flushes.
 *
 * Telemetry: every cache counts into the process-wide dynamo.cache.*
 * instruments, and the resident gauges are the sum over the live
 * caches - each adds its own deltas and withdraws its share when it
 * is destroyed.
 */

#ifndef HOTPATH_DYNAMO_CODE_CACHE_HH
#define HOTPATH_DYNAMO_CODE_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/dispatch.hh"

namespace hotpath
{

namespace telemetry
{
class Counter;
class Gauge;
class Histogram;
} // namespace telemetry

/** Capacity-management policy of the managed code cache. */
enum class CachePolicy : std::uint8_t
{
    /** Wholesale flush on capacity pressure (Dynamo's policy). */
    FlushAll,
    /** Evict least-recently-executed fragments one by one. */
    EvictLru,
    /** Evict oldest-formed fragments one by one. */
    EvictFifo,
    /** Drop the oldest insertion generation wholesale. */
    Generational,
};

/** Number of distinct cache policies (sweep loops). */
constexpr std::size_t kCachePolicyCount = 4;

/** Stable lower-case policy name for tables and JSON. */
const char *cachePolicyName(CachePolicy policy);

/** Why a fragment left the cache (eviction telemetry buckets). */
enum class EvictReason : std::uint8_t
{
    /** Piecemeal capacity eviction (EvictLru / EvictFifo). */
    Capacity,
    /** Generation drop (Generational policy). */
    Generation,
    /** Wholesale flush (capacity under FlushAll, or flushAll()). */
    Flush,
};

/** Number of distinct eviction reasons. */
constexpr std::size_t kEvictReasonCount = 3;

/** Stable lower-case reason name for tables and metrics. */
const char *evictReasonName(EvictReason reason);

/** Code-cache geometry and policy. */
struct CodeCacheConfig
{
    /** Arena capacity in bytes; 0 = unlimited. */
    std::uint64_t capacityBytes = 0;

    /** What to do when an insert exceeds the capacity. */
    CachePolicy policy = CachePolicy::FlushAll;

    /** Emitted code bytes per trace instruction. */
    std::uint32_t bytesPerInstr = 4;

    /** Bytes of one exit-stub trampoline. */
    std::uint32_t stubBytes = 16;

    /** Inserts per generation (Generational policy granularity). */
    std::uint32_t generationInserts = 64;
};

/** One fragment exit: a stub until its target fragment is resident. */
struct ExitStub
{
    /** Head key the exit transfers to. */
    std::uint32_t target = 0;

    /** True once the stub is patched branch-to-fragment. */
    bool linked = false;
};

/**
 * One resident fragment. The record is all a cache that never links
 * (a serving session's) stores per fragment; link bookkeeping lives
 * in FragmentLinks.
 */
struct CodeFragment
{
    /** Head key (BlockId at CFG granularity, PathIndex at path
     *  granularity). */
    std::uint32_t key = 0;

    /** Trace instructions the fragment was formed from. */
    std::uint32_t instructions = 0;

    /** Cache-clock stamp: the last use under FlushAll and EvictLru,
     *  the formation order under EvictFifo and Generational. */
    std::uint64_t stamp = 0;

    /** Executions entered at this fragment's head (find() hits). */
    std::uint64_t executions = 0;
};

static_assert(sizeof(CodeFragment) <= 24,
              "a resident fragment must stay a 24-byte record");

/**
 * A resident fragment's link bookkeeping, kept beside the fragment
 * (keyed by its head) only once a stitched insert, an exit or a stub
 * patch needs it.
 */
struct FragmentLinks
{
    /** Optimized instructions per original instruction (<= 1 once
     *  the trace optimizer ran; 1.0 for layout-only fragments). */
    double ratio = 1.0;

    /** The stitched block sequence (empty at path granularity). */
    StitchedFragment stitched;

    /** Outbound exits, in creation order. */
    std::vector<ExitStub> stubs;

    /** Keys of fragments holding a linked stub targeting this one. */
    std::vector<std::uint32_t> inbound;
};

/** What one insert did to the cache. */
struct InsertStats
{
    /** A wholesale capacity flush preceded the insert (FlushAll). */
    bool flushed = false;

    /** Fragments evicted to make room (piecemeal policies). */
    std::uint32_t evicted = 0;

    /** Resident stubs patched to the new fragment at insert time. */
    std::uint32_t linksMade = 0;
};

/** How one recorded fragment exit dispatched. */
enum class ExitKind : std::uint8_t
{
    /** The stub was already patched: direct branch, no runtime. */
    Linked,
    /** Target was resident but the stub was fresh: this exit paid
     *  the runtime round trip that patched it. */
    PatchedNow,
    /** Target not resident: runtime round trip through the stub. */
    Unlinked,
};

/**
 * The managed code cache. Single-threaded, like the Machine that
 * dispatches through it; the serving tier wraps per-session caches in
 * its own striped locks.
 */
class CodeCache
{
  public:
    /** Build an empty cache with the given geometry. */
    explicit CodeCache(CodeCacheConfig config = {});

    /** Withdraw this cache's share of the resident gauges. */
    ~CodeCache();

    CodeCache(const CodeCache &) = delete;
    CodeCache &operator=(const CodeCache &) = delete;

    /**
     * Insert a fragment for `key` (asserts no fragment is resident
     * for it). Applies the capacity policy first, then links every
     * resident stub targeting `key`. A stitched sequence or a ratio
     * other than 1.0 is kept in the fragment's FragmentLinks; path-
     * granularity callers pass neither.
     */
    InsertStats insert(std::uint32_t key, std::uint32_t instructions,
                       double ratio = 1.0,
                       StitchedFragment stitched = {});

    /**
     * Fragment lookup for execution: bumps the execution count and
     * the hit/miss telemetry, and under FlushAll and EvictLru
     * refreshes the stamp. nullptr when not resident.
     */
    CodeFragment *find(std::uint32_t key);

    /** Bookkeeping-silent lookup (no touch, no telemetry). */
    const CodeFragment *peek(std::uint32_t key) const;

    /**
     * The link bookkeeping of resident fragment `key`; nullptr when
     * it has none (no stitched insert, no exit, no inbound link) or
     * is not resident.
     */
    const FragmentLinks *linksOf(std::uint32_t key) const;

    /** True when a fragment for `key` is resident. */
    bool contains(std::uint32_t key) const;

    /**
     * Record a fragment exit from `from` to `to` and return how it
     * dispatched. Creates the stub on first exit to `to`; patches it
     * immediately when `to` is resident. `from` must be resident.
     */
    ExitKind recordExit(std::uint32_t from, std::uint32_t to);

    /**
     * Evict one fragment, repairing the link graph (see file
     * comment). Returns false when `key` was not resident.
     */
    bool evict(std::uint32_t key, EvictReason reason);

    /** Drop every fragment (phase-change or capacity flush). */
    void flushAll();

    /**
     * Reinstall a fragment exactly as exported (migration import):
     * the execution count and stamp are kept, so eviction order after
     * an import matches the exporting cache. Bookkeeping-silent
     * unlike insert(): no capacity policy, no counters or trace, and
     * not counted as formed; only the resident gauges follow the
     * occupancy. Asserts no fragment is resident for `key`.
     */
    void restore(std::uint32_t key, std::uint32_t instructions,
                 std::uint64_t executions, std::uint64_t stamp);

    /** The cache clock: the last stamp handed out. */
    std::uint64_t clockValue() const { return clock; }

    /** Reset the cache clock to an exported value (migration
     *  import), so stamps handed out next continue the exporter's. */
    void setClockValue(std::uint64_t value) { clock = value; }

    /** Resident fragment count. */
    std::size_t size() const { return fragments.size(); }

    /** Arena bytes currently occupied. */
    std::uint64_t residentBytes() const { return occupancy; }

    /** Configured capacity in bytes (0 = unlimited). */
    std::uint64_t capacityBytes() const { return cfg.capacityBytes; }

    /** Configured capacity policy. */
    CachePolicy policy() const { return cfg.policy; }

    /** Fragments formed over the lifetime (across flushes). */
    std::uint64_t fragmentsFormed() const { return formed; }

    /** Wholesale flushes performed. */
    std::uint64_t flushes() const { return flushCount; }

    /** Piecemeal + generation evictions over the lifetime. */
    std::uint64_t evictions() const;

    /** Evictions bucketed by reason. */
    std::uint64_t
    evictionsBy(EvictReason reason) const
    {
        return evicted[static_cast<std::size_t>(reason)];
    }

    /** Stubs patched branch-to-fragment over the lifetime. */
    std::uint64_t linksMade() const { return linkMade; }

    /** Linked stubs reverted by evictions/flushes. */
    std::uint64_t linksBroken() const { return linkBroken; }

    /** Currently linked stubs across all resident fragments. */
    std::uint64_t liveLinks() const { return linkMade - linkBroken; }

    /** Visit every resident fragment (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &entry : fragments)
            fn(entry.second);
    }

    /**
     * Whole-graph link audit for tests: every linked stub's target
     * is resident and lists the owner as inbound; every inbound
     * entry has a matching linked stub; no stub targets its owner's
     * pending list twice; every link entry belongs to a resident
     * fragment. Returns true when consistent; on failure fills
     * `error` (when non-null) with the first violation.
     */
    bool verifyLinkInvariants(std::string *error = nullptr) const;

  private:
    void applyCapacityPolicy(std::uint64_t incoming_bytes,
                             InsertStats &stats);
    void evictVictims(std::uint64_t incoming_bytes,
                      InsertStats &stats);
    void evictOldestGeneration(InsertStats &stats);
    /** Arena bytes of a resident fragment: code plus its stubs. */
    std::uint64_t bytesOf(const CodeFragment &fragment) const;
    /** Link the stub at `stub_index` of `from` to resident `to`. */
    void patchStub(std::uint32_t from, FragmentLinks &from_links,
                   std::size_t stub_index, std::uint32_t to);
    /** Add the occupancy change since the last call to the resident
     *  gauges. */
    void publishGauges();

    CodeCacheConfig cfg;
    /** True when find() refreshes the stamp (FlushAll, EvictLru). */
    bool stampOnUse;
    std::unordered_map<std::uint32_t, CodeFragment> fragments;
    /** head -> link bookkeeping, for resident fragments that have
     *  any. */
    std::unordered_map<std::uint32_t, FragmentLinks> links;
    /** target key -> owners of unlinked stubs awaiting that target. */
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        pendingStubs;

    std::uint64_t occupancy = 0;
    std::uint64_t formed = 0;
    std::uint64_t flushCount = 0;
    std::uint64_t evicted[kEvictReasonCount] = {0, 0, 0};
    std::uint64_t linkMade = 0;
    std::uint64_t linkBroken = 0;
    std::uint64_t clock = 0;
    /** What this cache has added to the resident gauges. */
    std::int64_t publishedBytes = 0;
    std::int64_t publishedFragments = 0;

    // Telemetry handles; nullptr when telemetry is not attached.
    telemetry::Counter *tmHits = nullptr;
    telemetry::Counter *tmMisses = nullptr;
    telemetry::Counter *tmInserts = nullptr;
    telemetry::Counter *tmFlushes = nullptr;
    telemetry::Counter *tmLinksMade = nullptr;
    telemetry::Counter *tmLinksBroken = nullptr;
    telemetry::Counter *tmEvictions[kEvictReasonCount] = {nullptr,
                                                          nullptr,
                                                          nullptr};
    telemetry::Counter *tmDispatchLinked = nullptr;
    telemetry::Counter *tmDispatchUnlinked = nullptr;
    telemetry::Gauge *tmResidentBytes = nullptr;
    telemetry::Gauge *tmResidentFragments = nullptr;
    telemetry::Histogram *tmFragmentBytes = nullptr;
};

} // namespace hotpath

#endif // HOTPATH_DYNAMO_CODE_CACHE_HH
