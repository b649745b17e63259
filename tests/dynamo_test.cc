/**
 * @file
 * Tests for the Dynamo system model: the prediction-rate flush
 * monitor, cycle accounting identities, the NET-vs-path-profile
 * dispatch asymmetry, and the bail-out heuristic. The cache itself is
 * tested in tests/dynamo_cache_test.cc and tests/cache_policy_test.cc.
 */

#include <gtest/gtest.h>

#include "dynamo/system.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

PathEvent
event(PathIndex path, HeadIndex head, std::uint32_t instructions = 40)
{
    PathEvent e;
    e.path = path;
    e.head = head;
    e.blocks = 8;
    e.branches = 8;
    e.instructions = instructions;
    return e;
}

/** Feed `count` executions of `e` into the system. */
void
feed(DynamoSystem &system, const PathEvent &e, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        system.onPathEvent(e, i);
}

} // namespace

TEST(PredictionRateMonitorTest, SpikesOnRateJump)
{
    FlushHeuristicConfig config;
    config.windowEvents = 100;
    config.spikeFactor = 3.0;
    config.spikeFloor = 5;
    config.warmupWindows = 2;
    PredictionRateMonitor monitor(config);

    // Warm windows with a low rate (1 prediction per 100 events).
    bool spiked = false;
    for (int w = 0; w < 10; ++w) {
        for (int i = 0; i < 100; ++i)
            spiked |= monitor.onEvent(i == 0);
    }
    EXPECT_FALSE(spiked);

    // A phase change: 20 predictions in one window.
    for (int i = 0; i < 100; ++i)
        spiked |= monitor.onEvent(i < 20);
    EXPECT_TRUE(spiked);
}

TEST(PredictionRateMonitorTest, QuietDuringWarmup)
{
    FlushHeuristicConfig config;
    config.windowEvents = 10;
    config.warmupWindows = 5;
    PredictionRateMonitor monitor(config);
    bool spiked = false;
    for (int w = 0; w < 5; ++w) {
        for (int i = 0; i < 10; ++i)
            spiked |= monitor.onEvent(true); // wild rate, still warmup
    }
    EXPECT_FALSE(spiked);
}

TEST(DynamoSystemTest, HotPathMigratesToCache)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 10;
    config.enableFlush = false;
    DynamoSystem system(config);

    feed(system, event(0, 0), 1000);
    const DynamoReport report = system.report();

    EXPECT_EQ(report.events, 1000u);
    EXPECT_EQ(report.interpretedEvents, 10u);
    EXPECT_EQ(report.cachedEvents, 990u);
    EXPECT_EQ(report.fragmentsFormed, 1u);
    EXPECT_FALSE(report.bailedOut);
}

TEST(DynamoSystemTest, CycleAccountingIdentity)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 10;
    config.enableFlush = false;
    DynamoSystem system(config);
    feed(system, event(0, 0), 1000);
    const DynamoReport report = system.report();

    const DynamoCostConfig &costs = config.costs;
    const double expected_interpret =
        10.0 * 40 * costs.interpretPerInstr;
    const double expected_cached = 990.0 * 40 * costs.cachedPerInstr;
    // The first cached execution enters from interpreted flow and
    // the second pays the round trip that patches the self-link's
    // exit stub; the remaining 988 branch fragment-to-fragment.
    const double expected_dispatch =
        2.0 * costs.unlinkedDispatchCost +
        988.0 * costs.linkedDispatchCost;
    const double expected_formation =
        40.0 * costs.formationPerInstr;
    const double expected_profiling = 10.0 * costs.counterOpCost;

    // Accumulated double sums: compare to relative precision.
    EXPECT_NEAR(report.interpretCycles, expected_interpret,
                1e-9 * expected_interpret);
    EXPECT_NEAR(report.cachedCycles, expected_cached,
                1e-9 * expected_cached);
    EXPECT_NEAR(report.dispatchCycles, expected_dispatch,
                1e-9 * expected_dispatch);
    EXPECT_NEAR(report.formationCycles, expected_formation,
                1e-9 * expected_formation);
    EXPECT_NEAR(report.profilingCycles, expected_profiling,
                1e-9 * expected_profiling);
    EXPECT_NEAR(report.nativeCycles, 1000.0 * 40 * costs.nativePerInstr,
                1e-6);
}

TEST(DynamoSystemTest, NetBeatsPathProfileOnCachedDispatch)
{
    // Same workload through both schemes: the path-profile system
    // pays the runtime round trip plus signature shifts per cached
    // execution, so it must spend more cycles.
    DynamoConfig net_config;
    net_config.scheme = PredictionScheme::Net;
    net_config.predictionDelay = 10;
    net_config.enableFlush = false;
    DynamoSystem net(net_config);

    DynamoConfig pp_config = net_config;
    pp_config.scheme = PredictionScheme::PathProfile;
    DynamoSystem pp(pp_config);

    for (std::uint64_t i = 0; i < 5000; ++i) {
        net.onPathEvent(event(0, 0), i);
        pp.onPathEvent(event(0, 0), i);
    }

    EXPECT_LT(net.report().dynamoCycles(), pp.report().dynamoCycles());
    EXPECT_GT(net.report().speedupPercent(),
              pp.report().speedupPercent());
}

TEST(DynamoSystemTest, SpeedupPositiveForHighReuse)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 10;
    config.enableFlush = false;
    DynamoSystem system(config);
    feed(system, event(0, 0, 60), 200000);
    EXPECT_GT(system.report().speedupPercent(), 5.0);
}

TEST(DynamoSystemTest, NoReuseMeansSlowdown)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 1;
    config.enableFlush = false;
    DynamoSystem system(config);
    // Every path executes exactly once: all formation, no reuse.
    for (std::uint64_t i = 0; i < 2000; ++i)
        system.onPathEvent(event(static_cast<PathIndex>(i), 0), i);
    EXPECT_LT(system.report().speedupPercent(), 0.0);
}

TEST(DynamoSystemTest, BailOutStopsOverheadAccumulation)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 1;
    config.enableFlush = false;
    config.bailCheckEvents = 1000;
    config.bailMaxInterpretedFraction = 0.5;
    DynamoSystem system(config);

    // Every path executes exactly once: 100% interpreted flow at the
    // checkpoint, so Dynamo must give up there.
    for (std::uint64_t i = 0; i < 5000; ++i)
        system.onPathEvent(event(static_cast<PathIndex>(i), 0), i);

    const DynamoReport report = system.report();
    EXPECT_TRUE(report.bailedOut);
    EXPECT_EQ(report.nativeEvents, 4000u);
    // Once bailed, per-event cost is native: the tail of the run adds
    // exactly native cycles and forms no further fragments.
    EXPECT_GT(report.postBailCycles, 0.0);
    EXPECT_LE(report.fragmentsFormed, 1000u);
}

TEST(DynamoSystemTest, FlushHeuristicFiresOnPhaseChange)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 5;
    config.enableFlush = true;
    config.flush.windowEvents = 256;
    config.flush.spikeFactor = 3.0;
    config.flush.spikeFloor = 6;
    config.flush.warmupWindows = 2;
    DynamoSystem system(config);

    // Phase A: 4 stable hot paths.
    std::uint64_t t = 0;
    for (int round = 0; round < 2000; ++round) {
        for (PathIndex p = 0; p < 4; ++p)
            system.onPathEvent(event(p, p), t++);
    }
    const std::uint64_t flushes_before = system.report().cacheFlushes;

    // Phase B: 40 new paths go hot at once -> prediction-rate spike.
    for (int round = 0; round < 200; ++round) {
        for (PathIndex p = 100; p < 140; ++p)
            system.onPathEvent(event(p, p), t++);
    }
    EXPECT_GT(system.report().cacheFlushes, flushes_before);
}

TEST(DynamoSystemTest, CapacityFlushAccounted)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::Net;
    config.predictionDelay = 1;
    config.enableFlush = false;
    // Two 40-instr fragments fit (capacity stated in arena bytes).
    config.cache.capacityBytes = 100 * config.cache.bytesPerInstr;
    DynamoSystem system(config);

    std::uint64_t t = 0;
    for (PathIndex p = 0; p < 6; ++p)
        system.onPathEvent(event(p, p), t++);
    EXPECT_GT(system.report().cacheFlushes, 0u);
    EXPECT_GT(system.report().flushCycles, 0.0);
}

TEST(DynamoSystemTest, ReportNamesTheScheme)
{
    DynamoConfig config;
    config.scheme = PredictionScheme::PathProfile;
    config.predictionDelay = 50;
    DynamoSystem system(config);
    EXPECT_EQ(system.report().scheme, "path-profile");
    EXPECT_EQ(system.report().predictionDelay, 50u);
}
