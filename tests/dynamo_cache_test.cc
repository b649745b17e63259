/**
 * @file
 * Tests for the managed code cache and the Dynamo-loop execution
 * contract: exit-stub linking lifecycle, unlink-on-evict repair,
 * capacity policies, and the byte-identity of interpreter-vs-fragment
 * execution under every CachePolicy and a seeded fault plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cfg/builder.hh"
#include "dynamo/cfg_engine.hh"
#include "dynamo/code_cache.hh"
#include "progen/presets.hh"
#include "sim/machine.hh"
#include "telemetry/telemetry.hh"

using namespace hotpath;

namespace
{

/** Shorthand: a cache with the given capacity/policy and the default
 *  geometry (4 bytes/instr, 16-byte stubs). */
CodeCache
makeCache(std::uint64_t capacity_bytes, CachePolicy policy,
          std::uint32_t generation_inserts = 64)
{
    CodeCacheConfig config;
    config.capacityBytes = capacity_bytes;
    config.policy = policy;
    config.generationInserts = generation_inserts;
    return CodeCache(config);
}

std::string
invariantError(const CodeCache &cache)
{
    std::string error;
    cache.verifyLinkInvariants(&error);
    return error;
}

} // namespace

TEST(CodeCacheTest, ExitStubLinkingLifecycle)
{
    CodeCache cache = makeCache(0, CachePolicy::FlushAll);
    cache.insert(1, 10);

    // Target absent: the first exit materializes an unlinked stub,
    // repeat exits keep paying the runtime round trip.
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::Unlinked);
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::Unlinked);
    EXPECT_EQ(cache.linksMade(), 0u);

    // Creation-time linking: inserting the target patches the
    // waiting stub immediately.
    const InsertStats insert = cache.insert(2, 10);
    EXPECT_EQ(insert.linksMade, 1u);
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::Linked);

    // Exit-time linking: a fresh stub to an already-resident target
    // pays exactly one patching round trip, then branches directly.
    EXPECT_EQ(cache.recordExit(2, 1), ExitKind::PatchedNow);
    EXPECT_EQ(cache.recordExit(2, 1), ExitKind::Linked);

    EXPECT_EQ(cache.linksMade(), 2u);
    EXPECT_EQ(cache.liveLinks(), 2u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, StubsOccupyArenaBytes)
{
    CodeCache cache = makeCache(0, CachePolicy::FlushAll);
    cache.insert(1, 10); // 40 code bytes
    EXPECT_EQ(cache.residentBytes(), 40u);
    cache.recordExit(1, 2); // one 16-byte trampoline
    EXPECT_EQ(cache.residentBytes(), 56u);
    cache.recordExit(1, 2); // existing stub: no new bytes
    EXPECT_EQ(cache.residentBytes(), 56u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, LinkThenEvictUnlinksEveryInboundStub)
{
    CodeCache cache = makeCache(0, CachePolicy::EvictLru);
    cache.insert(1, 10);
    cache.insert(2, 10);
    cache.insert(3, 10);

    // Link the triangle around fragment 2.
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::PatchedNow);
    EXPECT_EQ(cache.recordExit(3, 2), ExitKind::PatchedNow);
    EXPECT_EQ(cache.recordExit(2, 3), ExitKind::PatchedNow);
    EXPECT_EQ(cache.liveLinks(), 3u);

    // Evicting 2 reverts BOTH inbound stubs (1->2, 3->2) and
    // detaches its own outbound link (2->3): all three break.
    EXPECT_TRUE(cache.evict(2, EvictReason::Capacity));
    EXPECT_EQ(cache.linksBroken(), 3u);
    EXPECT_EQ(cache.liveLinks(), 0u);
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);

    // The neighbours' stubs fell back to stub state, not away: the
    // next exit is a runtime round trip, not a crash.
    ASSERT_NE(cache.linksOf(1), nullptr);
    ASSERT_EQ(cache.linksOf(1)->stubs.size(), 1u);
    EXPECT_FALSE(cache.linksOf(1)->stubs[0].linked);
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::Unlinked);

    // Re-inserting the head re-links every waiting neighbour at
    // creation time.
    const InsertStats again = cache.insert(2, 10);
    EXPECT_EQ(again.linksMade, 2u);
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::Linked);
    EXPECT_EQ(cache.recordExit(3, 2), ExitKind::Linked);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, SelfLinkDiesWithTheFragment)
{
    CodeCache cache = makeCache(0, CachePolicy::EvictLru);
    cache.insert(7, 10);
    EXPECT_EQ(cache.recordExit(7, 7), ExitKind::PatchedNow);
    EXPECT_EQ(cache.recordExit(7, 7), ExitKind::Linked);
    EXPECT_TRUE(cache.evict(7, EvictReason::Capacity));
    EXPECT_EQ(cache.linksBroken(), 1u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, FlushAllBreaksEveryLiveLink)
{
    CodeCache cache = makeCache(0, CachePolicy::FlushAll);
    cache.insert(1, 10);
    cache.insert(2, 10);
    cache.recordExit(1, 2);
    cache.recordExit(2, 1);
    cache.recordExit(1, 9); // unlinked stub: breaks nothing
    ASSERT_EQ(cache.liveLinks(), 2u);

    cache.flushAll();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.linksBroken(), 2u);
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.evictionsBy(EvictReason::Flush), 2u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);

    // Pending stubs died with the flush: a new fragment for the old
    // stub target links nothing.
    EXPECT_EQ(cache.insert(9, 10).linksMade, 0u);
}

TEST(CodeCacheTest, LruAndFifoPickDifferentVictims)
{
    // Two 40-byte fragments fill an 80-byte arena; touching the
    // older one before the third insert splits the policies.
    CodeCache lru = makeCache(80, CachePolicy::EvictLru);
    lru.insert(1, 10);
    lru.insert(2, 10);
    EXPECT_NE(lru.find(1), nullptr); // 1 is now most recently used
    EXPECT_EQ(lru.insert(3, 10).evicted, 1u);
    EXPECT_TRUE(lru.contains(1));
    EXPECT_FALSE(lru.contains(2));

    CodeCache fifo = makeCache(80, CachePolicy::EvictFifo);
    fifo.insert(1, 10);
    fifo.insert(2, 10);
    EXPECT_NE(fifo.find(1), nullptr); // touches don't matter to FIFO
    EXPECT_EQ(fifo.insert(3, 10).evicted, 1u);
    EXPECT_FALSE(fifo.contains(1)); // oldest-formed goes first
    EXPECT_TRUE(fifo.contains(2));

    EXPECT_EQ(lru.evictionsBy(EvictReason::Capacity), 1u);
    EXPECT_EQ(fifo.evictionsBy(EvictReason::Capacity), 1u);
    EXPECT_TRUE(lru.verifyLinkInvariants()) << invariantError(lru);
    EXPECT_TRUE(fifo.verifyLinkInvariants()) << invariantError(fifo);
}

TEST(CodeCacheTest, GenerationalDropsOldestGenerationWholesale)
{
    // Two inserts per generation; arena holds four 40-byte fragments.
    CodeCache cache = makeCache(160, CachePolicy::Generational,
                                /*generation_inserts=*/2);
    cache.insert(1, 10); // generation 0
    cache.insert(2, 10); // generation 0
    cache.insert(3, 10); // generation 1
    cache.insert(4, 10); // generation 1

    const InsertStats insert = cache.insert(5, 10);
    // The whole oldest generation went, not a single victim.
    EXPECT_EQ(insert.evicted, 2u);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(4));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_EQ(cache.evictionsBy(EvictReason::Generation), 2u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, FlushAllPolicyEmptiesOnCapacityPressure)
{
    CodeCache cache = makeCache(80, CachePolicy::FlushAll);
    cache.insert(1, 10);
    cache.insert(2, 10);
    cache.recordExit(1, 2);
    const InsertStats insert = cache.insert(3, 10);
    EXPECT_TRUE(insert.flushed);
    EXPECT_EQ(insert.evicted, 0u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, InsertFindFlush)
{
    CodeCache cache = makeCache(0, CachePolicy::FlushAll);
    EXPECT_EQ(cache.find(3), nullptr);
    EXPECT_FALSE(cache.insert(3, 100).flushed);
    ASSERT_NE(cache.find(3), nullptr);
    EXPECT_EQ(cache.find(3)->instructions, 100u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.residentBytes(), 400u); // 4 bytes per instruction

    cache.flushAll();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.find(3), nullptr);
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.fragmentsFormed(), 1u); // lifetime count
}

TEST(CodeCacheTest, CapacityTriggersWholesaleFlush)
{
    // A session's 250-instruction cap under the default geometry.
    CodeCache cache = makeCache(250 * 4, CachePolicy::FlushAll);
    EXPECT_FALSE(cache.insert(1, 100).flushed);
    EXPECT_FALSE(cache.insert(2, 100).flushed);
    // 100 + 100 + 100 > 250: the third insert flushes first.
    EXPECT_TRUE(cache.insert(3, 100).flushed);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(1), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
}

TEST(CodeCacheDeathTest, DuplicateInsertPanics)
{
    CodeCache cache = makeCache(0, CachePolicy::FlushAll);
    cache.insert(1, 10);
    EXPECT_DEATH(cache.insert(1, 10), "already cached");
    EXPECT_DEATH(cache.restore(1, 10, 0, 1), "already cached");
}

TEST(CodeCacheTest, LinksLiveBesideOnlyTheFragmentsThatLink)
{
    CodeCache cache = makeCache(0, CachePolicy::EvictLru);
    cache.insert(1, 10);
    cache.insert(2, 10);
    cache.insert(3, 10, 0.5, StitchedFragment{3, {}});
    // A path-granularity insert keeps no link bookkeeping at all.
    EXPECT_EQ(cache.linksOf(1), nullptr);
    ASSERT_NE(cache.linksOf(3), nullptr);
    EXPECT_EQ(cache.linksOf(3)->ratio, 0.5);

    // An exit gives the source its stub list; patching gives the
    // target its inbound list.
    EXPECT_EQ(cache.recordExit(1, 2), ExitKind::PatchedNow);
    ASSERT_NE(cache.linksOf(1), nullptr);
    ASSERT_NE(cache.linksOf(2), nullptr);
    EXPECT_EQ(cache.linksOf(1)->stubs.size(), 1u);
    EXPECT_EQ(cache.linksOf(2)->inbound,
              std::vector<std::uint32_t>{1});

    // The bookkeeping leaves with its fragment.
    EXPECT_TRUE(cache.evict(1, EvictReason::Capacity));
    EXPECT_EQ(cache.linksOf(1), nullptr);
    EXPECT_TRUE(cache.linksOf(2)->inbound.empty());
    EXPECT_TRUE(cache.verifyLinkInvariants()) << invariantError(cache);
}

TEST(CodeCacheTest, ResidentGaugesSumOverLiveCaches)
{
    telemetry::TelemetrySession session;
    const telemetry::Gauge &bytes =
        session.registry().gauge("dynamo.cache.resident.bytes");
    const telemetry::Gauge &count =
        session.registry().gauge("dynamo.cache.resident.fragments");

    CodeCache first = makeCache(0, CachePolicy::FlushAll);
    first.insert(1, 100); // 400 code bytes
    {
        CodeCache second = makeCache(0, CachePolicy::EvictLru);
        EXPECT_EQ(bytes.get(), 400); // a new cache adds nothing
        second.insert(2, 10);
        second.recordExit(2, 3); // plus one 16-byte stub
        EXPECT_EQ(bytes.get(), 400 + 56);
        EXPECT_EQ(count.get(), 2);
    }
    // The destroyed cache withdrew exactly its own share.
    EXPECT_EQ(bytes.get(), 400);
    EXPECT_EQ(count.get(), 1);
    first.flushAll();
    EXPECT_EQ(bytes.get(), 0);
    EXPECT_EQ(count.get(), 0);
}

TEST(CodeCacheTest, RestoreKeepsStampsAndCountsSilently)
{
    CodeCache source = makeCache(120, CachePolicy::EvictLru);
    source.insert(1, 10);
    source.insert(2, 10);
    source.find(1);
    source.find(1);

    // Rebuild the cache fragment by fragment, as a migration import
    // does, then drive both identically.
    CodeCache copy = makeCache(120, CachePolicy::EvictLru);
    source.forEach([&copy](const CodeFragment &fragment) {
        copy.restore(fragment.key, fragment.instructions,
                     fragment.executions, fragment.stamp);
    });
    copy.setClockValue(source.clockValue());
    EXPECT_EQ(copy.fragmentsFormed(), 0u); // restores are not formed
    EXPECT_EQ(copy.residentBytes(), source.residentBytes());
    ASSERT_NE(copy.peek(1), nullptr);
    EXPECT_EQ(copy.peek(1)->executions, 2u);
    EXPECT_EQ(copy.peek(1)->stamp, source.peek(1)->stamp);

    // 2 is the LRU victim in both: the stamps carried the order.
    for (CodeCache *cache : {&source, &copy}) {
        cache->insert(3, 10);
        cache->insert(4, 10);
        EXPECT_FALSE(cache->contains(2));
        EXPECT_TRUE(cache->contains(1));
    }
    EXPECT_EQ(copy.clockValue(), source.clockValue());
}

namespace
{

/** Observable cache state, comparable across identically-driven
 *  instances. */
struct CacheSnapshot
{
    std::vector<std::uint32_t> residentKeys;
    std::uint64_t residentBytes = 0;
    std::uint64_t linksMade = 0;
    std::uint64_t linksBroken = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;

    bool
    operator==(const CacheSnapshot &other) const
    {
        return residentKeys == other.residentKeys &&
               residentBytes == other.residentBytes &&
               linksMade == other.linksMade &&
               linksBroken == other.linksBroken &&
               evictions == other.evictions &&
               flushes == other.flushes;
    }
};

CacheSnapshot
snapshot(const CodeCache &cache)
{
    CacheSnapshot snap;
    cache.forEach([&](const CodeFragment &fragment) {
        snap.residentKeys.push_back(fragment.key);
    });
    std::sort(snap.residentKeys.begin(), snap.residentKeys.end());
    snap.residentBytes = cache.residentBytes();
    snap.linksMade = cache.linksMade();
    snap.linksBroken = cache.linksBroken();
    snap.evictions = cache.evictions();
    snap.flushes = cache.flushes();
    return snap;
}

/** Drive a fixed pseudo-random insert/find/exit sequence. */
void
driveSequence(CodeCache &cache)
{
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    std::uint32_t last = ~0u;
    for (int i = 0; i < 4000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint32_t key = static_cast<std::uint32_t>(x % 24);
        if (cache.find(key) != nullptr) {
            if (last != ~0u && cache.contains(last))
                cache.recordExit(last, key);
            last = key;
        } else {
            cache.insert(key, 8 + key % 9);
            last = ~0u;
        }
    }
}

} // namespace

class CachePolicyDeterminism
    : public ::testing::TestWithParam<CachePolicy>
{
};

TEST_P(CachePolicyDeterminism, SameSequenceSameState)
{
    // Two caches fed the identical operation sequence must agree on
    // every observable: resident set, occupancy, link and eviction
    // traffic. Hash-map iteration order must never leak into policy
    // decisions.
    CodeCache a = makeCache(600, GetParam(), 8);
    CodeCache b = makeCache(600, GetParam(), 8);
    driveSequence(a);
    driveSequence(b);

    EXPECT_TRUE(snapshot(a) == snapshot(b))
        << "policy " << cachePolicyName(GetParam())
        << " diverged on identical input";
    EXPECT_GT(a.evictions() + a.flushes(), 0u)
        << "capacity pressure never materialized; the test is vacuous";
    EXPECT_TRUE(a.verifyLinkInvariants()) << invariantError(a);
    EXPECT_TRUE(b.verifyLinkInvariants()) << invariantError(b);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CachePolicyDeterminism,
    ::testing::Values(CachePolicy::FlushAll, CachePolicy::EvictLru,
                      CachePolicy::EvictFifo,
                      CachePolicy::Generational),
    [](const auto &info) {
        std::string name = cachePolicyName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

namespace
{

/** FNV-style digest over the exact listener event stream. */
class DigestListener : public ExecutionListener
{
  public:
    void
    onBlock(const BasicBlock &block) override
    {
        mix(0x01);
        mix(block.id);
        ++events;
    }

    void
    onTransfer(const TransferEvent &event) override
    {
        mix(0x02);
        mix(event.from);
        mix(event.to);
        mix(static_cast<std::uint64_t>(event.kind));
        mix(event.taken ? 1 : 0);
        ++events;
    }

    void
    onProgramEnd() override
    {
        mix(0x03);
        ++events;
    }

    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t events = 0;

  private:
    void
    mix(std::uint64_t value)
    {
        digest ^= value;
        digest *= 0x100000001b3ull;
    }
};

Program
makeBiasedLoop()
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 2).fallthrough("head");
    main.block("head", 3).cond("a", "b");
    main.block("a", 4).jump("latch");
    main.block("b", 4).fallthrough("latch");
    main.block("latch", 2).cond("head", "exit");
    main.block("exit", 1).ret();
    return builder.build();
}

struct IdentityRun
{
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    CfgEngineReport report;
};

/** Replay the program with the engine installed (or not) and digest
 *  the listener-visible event stream. */
IdentityRun
replay(const Program &prog, const BehaviorModel &model,
       std::uint64_t blocks, const CfgEngineConfig *config)
{
    IdentityRun run;
    DigestListener listener;
    Machine machine(prog, model, {.seed = 11});
    machine.addListener(&listener);
    if (config != nullptr) {
        CfgDynamoEngine engine(prog, *config);
        engine.attach(machine);
        machine.run(blocks);
        std::string error;
        EXPECT_TRUE(engine.codeCache().verifyLinkInvariants(&error))
            << error;
        run.report = engine.report();
    } else {
        machine.run(blocks);
    }
    run.digest = listener.digest;
    run.events = listener.events;
    return run;
}

} // namespace

class FragmentByteIdentity
    : public ::testing::TestWithParam<CachePolicy>
{
};

TEST_P(FragmentByteIdentity, CacheFullEvictionPreservesEventStream)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.7);
    model.setTakenProbability(findBlock(prog, "latch"), 0.995);
    model.finalize();

    constexpr std::uint64_t kBlocks = 80000;
    const IdentityRun interpreter =
        replay(prog, model, kBlocks, nullptr);

    // A 64-byte arena cannot hold one fragment plus its stubs, so
    // every policy churns constantly - the harshest byte-identity
    // regime.
    CfgEngineConfig config;
    config.hotThreshold = 20;
    config.cache.capacityBytes = 64;
    config.cache.policy = GetParam();
    config.cache.generationInserts = 2;
    const IdentityRun engine = replay(prog, model, kBlocks, &config);

    EXPECT_EQ(engine.digest, interpreter.digest)
        << "policy " << cachePolicyName(GetParam())
        << " changed the observable event stream";
    EXPECT_EQ(engine.events, interpreter.events);
    EXPECT_GT(engine.report.fragmentsFormed, 1u);
    EXPECT_GT(engine.report.fragmentsEvicted +
                  engine.report.cacheFlushes,
              0u)
        << "no capacity pressure; the identity check is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FragmentByteIdentity,
    ::testing::Values(CachePolicy::FlushAll, CachePolicy::EvictLru,
                      CachePolicy::EvictFifo,
                      CachePolicy::Generational),
    [](const auto &info) {
        std::string name = cachePolicyName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

TEST(FragmentByteIdentityTest, SeededAllocFailPlanPreservesStream)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.7);
    model.setTakenProbability(findBlock(prog, "latch"), 0.995);
    model.finalize();

    constexpr std::uint64_t kBlocks = 80000;
    const IdentityRun interpreter =
        replay(prog, model, kBlocks, nullptr);

    CfgEngineConfig config;
    config.hotThreshold = 20;
    config.faults.seed = 7;
    config.faults.site(fault::Site::AllocFail).everyN = 2;
    const IdentityRun engine = replay(prog, model, kBlocks, &config);

    EXPECT_EQ(engine.digest, interpreter.digest);
    EXPECT_EQ(engine.events, interpreter.events);
    EXPECT_GT(engine.report.formationsAbandoned, 0u)
        << "the fault plan never fired; the test is vacuous";
    EXPECT_GT(engine.report.fragmentsFormed, 0u)
        << "every formation failed; fragment execution went untested";
}

TEST(FragmentByteIdentityTest, PresetProgramIdentityUnderLru)
{
    // A structurally rich program (calls, branches, switches) through
    // a tight LRU cache: the identity must not depend on the loop
    // shape the other tests use.
    const ProgenPreset &preset = progenPreset("branchy");
    SyntheticProgram synth(preset.config);
    constexpr std::uint64_t kBlocks = 150000;

    const IdentityRun interpreter =
        replay(synth.program(), synth.behavior(), kBlocks, nullptr);

    CfgEngineConfig config;
    config.hotThreshold = 50;
    config.cache.capacityBytes = 2048;
    config.cache.policy = CachePolicy::EvictLru;
    const IdentityRun engine =
        replay(synth.program(), synth.behavior(), kBlocks, &config);

    EXPECT_EQ(engine.digest, interpreter.digest);
    EXPECT_EQ(engine.events, interpreter.events);
    EXPECT_GT(engine.report.fragmentBlocks, 0u);
}

TEST(CfgEngineDeterminismTest, IdenticalConfigIdenticalReport)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.6);
    model.setTakenProbability(findBlock(prog, "latch"), 0.995);
    model.finalize();

    CfgEngineConfig config;
    config.hotThreshold = 20;
    config.cache.capacityBytes = 128;
    config.cache.policy = CachePolicy::EvictLru;

    const IdentityRun first = replay(prog, model, 60000, &config);
    const IdentityRun second = replay(prog, model, 60000, &config);

    EXPECT_EQ(first.digest, second.digest);
    const CfgEngineReport &a = first.report;
    const CfgEngineReport &b = second.report;
    EXPECT_EQ(a.blocksSeen, b.blocksSeen);
    EXPECT_EQ(a.fragmentBlocks, b.fragmentBlocks);
    EXPECT_EQ(a.fragmentsFormed, b.fragmentsFormed);
    EXPECT_EQ(a.fragmentsEvicted, b.fragmentsEvicted);
    EXPECT_EQ(a.cacheFlushes, b.cacheFlushes);
    EXPECT_EQ(a.linkedExits, b.linkedExits);
    EXPECT_EQ(a.unlinkedExits, b.unlinkedExits);
    EXPECT_EQ(a.linksMade, b.linksMade);
    EXPECT_EQ(a.linksBroken, b.linksBroken);
    EXPECT_DOUBLE_EQ(a.dispatchCycles, b.dispatchCycles);
    EXPECT_DOUBLE_EQ(a.cacheManagementCycles,
                     b.cacheManagementCycles);
}
