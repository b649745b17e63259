/**
 * @file
 * Tests for the code cache's FlushAll and LRU policies, sized in
 * instructions the way a serving session sizes its cache, and their
 * system-level accounting.
 */

#include <gtest/gtest.h>

#include "dynamo/code_cache.hh"
#include "dynamo/system.hh"

using namespace hotpath;

namespace
{

PathEvent
event(PathIndex path, std::uint32_t instructions = 40)
{
    PathEvent e;
    e.path = path;
    e.head = path;
    e.blocks = 8;
    e.branches = 8;
    e.instructions = instructions;
    return e;
}

/** Code bytes per instruction in the default geometry. */
constexpr std::uint64_t kBytesPerInstr = CodeCacheConfig{}.bytesPerInstr;

/** A cache capped at `capacity_instr` instructions (0 = no cap) in
 *  the default geometry, as engine::Session builds its own. */
CodeCache
cacheOfInstructions(std::uint64_t capacity_instr, CachePolicy policy)
{
    CodeCacheConfig config;
    config.capacityBytes = capacity_instr * kBytesPerInstr;
    config.policy = policy;
    return CodeCache(config);
}

} // namespace

TEST(CachePolicyTest, LruEvictsOldestUntilFit)
{
    CodeCache cache = cacheOfInstructions(250, CachePolicy::EvictLru);
    EXPECT_FALSE(cache.insert(1, 100).flushed);
    EXPECT_FALSE(cache.insert(2, 100).flushed);
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_NE(cache.find(1), nullptr);
    const InsertStats third = cache.insert(3, 100); // evicts 2, not 1
    EXPECT_FALSE(third.flushed);
    EXPECT_EQ(third.evicted, 1u);
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_EQ(cache.find(2), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.flushes(), 0u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.residentBytes(), 200u * kBytesPerInstr);
}

TEST(CachePolicyTest, LruEvictsMultipleForLargeFragment)
{
    CodeCache cache = cacheOfInstructions(300, CachePolicy::EvictLru);
    cache.insert(1, 100);
    cache.insert(2, 100);
    cache.insert(3, 100);
    cache.insert(4, 250); // must evict at least two victims
    EXPECT_GE(cache.evictions(), 2u);
    EXPECT_LE(cache.residentBytes(), (300u + 250u) * kBytesPerInstr);
    EXPECT_NE(cache.find(4), nullptr);
}

TEST(CachePolicyTest, FlushAllStillFlushesWholesale)
{
    CodeCache cache = cacheOfInstructions(150, CachePolicy::FlushAll);
    cache.insert(1, 100);
    EXPECT_TRUE(cache.insert(2, 100).flushed);
    EXPECT_EQ(cache.flushes(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(CachePolicyTest, UnlimitedCacheNeverEvicts)
{
    CodeCache cache = cacheOfInstructions(0, CachePolicy::EvictLru);
    for (PathIndex p = 0; p < 1000; ++p)
        cache.insert(p, 100);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 1000u);
}

TEST(CachePolicyTest, FindRefreshesLruAge)
{
    CodeCache cache = cacheOfInstructions(200, CachePolicy::EvictLru);
    cache.insert(1, 100);
    cache.insert(2, 100);
    // Repeated use of 1 keeps it alive through many inserts.
    for (PathIndex p = 10; p < 20; ++p) {
        EXPECT_NE(cache.find(1), nullptr);
        cache.insert(p, 100);
    }
    EXPECT_NE(cache.find(1), nullptr);
}

TEST(CachePolicyTest, SystemChargesEvictionCost)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 1;
    config.enableFlush = false;
    config.cache.capacityBytes = 100 * config.cache.bytesPerInstr;
    config.cache.policy = CachePolicy::EvictLru;
    DynamoSystem system(config);

    std::uint64_t t = 0;
    for (PathIndex p = 0; p < 10; ++p)
        system.onPathEvent(event(p), t++);

    const DynamoReport report = system.report();
    EXPECT_GT(report.cacheEvictions, 0u);
    EXPECT_EQ(report.cacheFlushes, 0u);
    EXPECT_NEAR(report.flushCycles,
                static_cast<double>(report.cacheEvictions) *
                    config.costs.evictionCost,
                1e-9);
}

TEST(CachePolicyTest, LruSurvivesPhaseChangeWithoutDetector)
{
    // Two-phase toy: paths 0..4 hot, then 10..14 hot. With a cache
    // holding ~5 fragments, LRU must end up holding the second
    // phase's fragments without any flush.
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 2;
    config.enableFlush = false;
    config.cache.capacityBytes = 5 * 40 * config.cache.bytesPerInstr;
    config.cache.policy = CachePolicy::EvictLru;
    config.cache.stubBytes = 0; // keep the five-fragment fit exact
    DynamoSystem system(config);

    std::uint64_t t = 0;
    for (int round = 0; round < 200; ++round)
        for (PathIndex p = 0; p < 5; ++p)
            system.onPathEvent(event(p), t++);
    for (int round = 0; round < 200; ++round)
        for (PathIndex p = 10; p < 15; ++p)
            system.onPathEvent(event(p), t++);

    EXPECT_EQ(system.report().cacheFlushes, 0u);
    EXPECT_GE(system.report().cacheEvictions, 5u);
    EXPECT_EQ(system.cache().size(), 5u);
    // All resident fragments belong to the second phase.
    for (PathIndex p = 10; p < 15; ++p)
        EXPECT_NE(system.cache().peek(p), nullptr);
}
