/**
 * @file
 * Tests for the calibrated workload synthesis: the integer tier
 * builders (exact sums, bound preservation), per-benchmark target
 * reproduction (Table 1 and Table 2 statistics), and stream
 * materialization (exact frequencies, burstiness, determinism).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <unordered_set>

#include "metrics/oracle.hh"
#include "workload/spec_profile.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

WorkloadConfig
smallConfig()
{
    WorkloadConfig config;
    config.flowScale = 1e-4; // keep unit tests fast
    return config;
}

} // namespace

TEST(TierBuilderTest, GeometricExactSumAndFloor)
{
    const auto tier = buildGeometricTier(10, 5000, 50);
    ASSERT_EQ(tier.size(), 10u);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < tier.size(); ++i) {
        EXPECT_GE(tier[i], 50u);
        if (i > 0) {
            EXPECT_LE(tier[i], tier[i - 1]); // descending
        }
        sum += tier[i];
    }
    EXPECT_EQ(sum, 5000u);
}

TEST(TierBuilderTest, GeometricDegenerateAllAtFloor)
{
    const auto tier = buildGeometricTier(4, 40, 10);
    EXPECT_EQ(tier, (std::vector<std::uint64_t>{10, 10, 10, 10}));
}

TEST(TierBuilderTest, GeometricSingleElement)
{
    const auto tier = buildGeometricTier(1, 12345, 10);
    EXPECT_EQ(tier, (std::vector<std::uint64_t>{12345}));
}

TEST(TierBuilderTest, GeometricEmptyTier)
{
    EXPECT_TRUE(buildGeometricTier(0, 0, 1).empty());
}

TEST(TierBuilderDeathTest, GeometricInfeasibleSum)
{
    EXPECT_DEATH(buildGeometricTier(10, 50, 10), "infeasible");
}

TEST(TierBuilderTest, ZipfExactSumAndCap)
{
    const auto tier = buildZipfTier(100, 5000, 200);
    ASSERT_EQ(tier.size(), 100u);
    std::uint64_t sum = 0;
    for (std::uint64_t f : tier) {
        EXPECT_GE(f, 1u);
        EXPECT_LE(f, 200u);
        sum += f;
    }
    EXPECT_EQ(sum, 5000u);
    // Skewed: the first rank gets far more than the last.
    EXPECT_GT(tier.front(), tier.back() * 5);
}

TEST(TierBuilderTest, ZipfAllOnes)
{
    const auto tier = buildZipfTier(7, 7, 100);
    EXPECT_EQ(tier, std::vector<std::uint64_t>(7, 1));
}

TEST(TierBuilderTest, ZipfTightCap)
{
    // sum == n * cap: every element must be at the cap.
    const auto tier = buildZipfTier(5, 50, 10);
    EXPECT_EQ(tier, std::vector<std::uint64_t>(5, 10));
}

TEST(TierBuilderDeathTest, ZipfInfeasible)
{
    EXPECT_DEATH(buildZipfTier(5, 4, 10), "infeasible");
    EXPECT_DEATH(buildZipfTier(5, 51, 10), "infeasible");
}

TEST(SpecProfileTest, AllNineBenchmarksPresent)
{
    EXPECT_EQ(specTargets().size(), 9u);
    EXPECT_EQ(specTarget("compress").paths, 230u);
    EXPECT_EQ(specTarget("gcc").heads, 8873u);
    EXPECT_EQ(specTarget("ijpeg").paths, 62125u);
    EXPECT_DOUBLE_EQ(specTarget("deltablue").hotFlowPercent, 93.9);
    EXPECT_TRUE(specTarget("go").dynamoBailsOut);
    EXPECT_FALSE(specTarget("perl").dynamoBailsOut);
}

TEST(SpecProfileDeathTest, UnknownBenchmark)
{
    EXPECT_DEATH(specTarget("nonesuch"), "unknown benchmark");
}

class CalibratedWorkloadTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CalibratedWorkloadTest, ReproducesTable1And2Statistics)
{
    const SpecTarget &target = specTarget(GetParam());
    CalibratedWorkload workload(target, smallConfig());

    // Structural counts match the published tables exactly.
    EXPECT_EQ(workload.numPaths(), target.paths);
    EXPECT_EQ(workload.numHeads(), target.heads);
    EXPECT_EQ(workload.numHotPaths(), target.hotPaths);

    // Every head index in [0, heads) is used by some path.
    std::unordered_set<HeadIndex> used;
    for (PathIndex p = 0; p < workload.numPaths(); ++p)
        used.insert(workload.headOf(p));
    EXPECT_EQ(used.size(), target.heads);

    // Tier construction: hot paths strictly above the threshold,
    // cold paths at or below it, every path executes.
    const std::uint64_t h = workload.hotThreshold();
    std::uint64_t total = 0;
    for (PathIndex p = 0; p < workload.numPaths(); ++p) {
        const std::uint64_t f = workload.frequency(p);
        EXPECT_GE(f, 1u);
        if (p < workload.numHotPaths())
            EXPECT_GT(f, h);
        else
            EXPECT_LE(f, h);
        total += f;
    }
    EXPECT_EQ(total, workload.totalFlow());

    // Hot flow share matches the paper within rounding.
    const double hot_pct = 100.0 *
                           static_cast<double>(workload.hotFlow()) /
                           static_cast<double>(workload.totalFlow());
    EXPECT_NEAR(hot_pct, target.hotFlowPercent, 0.05);
}

TEST_P(CalibratedWorkloadTest, StreamHasExactFrequencies)
{
    const SpecTarget &target = specTarget(GetParam());
    CalibratedWorkload workload(target, smallConfig());

    OracleProfile oracle;
    std::uint64_t time = 0;
    workload.generateStream(
        0, [&](const PathEvent &event, std::uint64_t) {
            oracle.onPathEvent(event, time++);
        });

    EXPECT_EQ(oracle.totalFlow(), workload.totalFlow());
    EXPECT_EQ(oracle.numPaths(), workload.numPaths());
    for (PathIndex p = 0; p < workload.numPaths(); ++p)
        ASSERT_EQ(oracle.frequency(p), workload.frequency(p))
            << "path " << p;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CalibratedWorkloadTest,
    ::testing::Values("compress", "gcc", "go", "ijpeg", "li",
                      "m88ksim", "perl", "vortex", "deltablue"),
    [](const auto &info) { return std::string(info.param); });

TEST(CalibratedWorkloadTest2, MaterializedEqualsGenerated)
{
    CalibratedWorkload workload(specTarget("deltablue"),
                                smallConfig());
    const std::vector<PathEvent> stream = workload.materializeStream(3);

    std::vector<PathEvent> generated;
    workload.generateStream(3,
                            [&](const PathEvent &event, std::uint64_t) {
                                generated.push_back(event);
                            });
    ASSERT_EQ(stream.size(), generated.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream[i].path, generated[i].path);
        EXPECT_EQ(stream[i].head, generated[i].head);
    }
}

TEST(CalibratedWorkloadTest2, MaterializedStreamsArePinned)
{
    // FNV-1a over every event field of materializeStream(0) and (3)
    // for each benchmark, with the per-session seeds perfbench uses.
    // Any change to the sampler's draw sequence or to the event
    // fields moves a digest.
    struct Pin
    {
        const char *name;
        std::uint64_t salt0;
        std::uint64_t salt3;
    };
    const Pin pins[] = {
        {"compress", 0x17b404c7879d7947ull, 0xea4c9e1bb90c6e43ull},
        {"gcc", 0xc2d3dbd96bc31323ull, 0xf2d56f5c9b1d9b5dull},
        {"go", 0x918fcd0fc2bb8122ull, 0x7a35c2ec5faa305cull},
        {"ijpeg", 0x077e61489b5c412cull, 0xc960846b2c7d35bcull},
        {"li", 0xeedc36e4ceb1e48dull, 0x2f32d68dd9469829ull},
        {"m88ksim", 0xf3a4a7860e820c4bull, 0x0ad58ed45273d63dull},
        {"perl", 0x5e38655fc54bfbe6ull, 0xfdd003e55f9c95f2ull},
        {"vortex", 0x8fee444f76d14a24ull, 0x8d1fb6aeed34fa70ull},
        {"deltablue", 0xb4b1fe423fc9efb8ull, 0xf92525218865e654ull},
    };
    const std::vector<SpecTarget> &targets = specTargets();
    ASSERT_EQ(targets.size(), std::size(pins));
    const auto digest = [](const std::vector<PathEvent> &stream) {
        std::uint64_t h = 1469598103934665603ull;
        const auto mix = [&h](std::uint64_t v) {
            h ^= v;
            h *= 1099511628211ull;
        };
        for (const PathEvent &e : stream) {
            mix(e.path);
            mix(e.head);
            mix(e.blocks);
            mix(e.branches);
            mix(e.instructions);
        }
        return h;
    };
    for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_EQ(targets[i].name, pins[i].name);
        WorkloadConfig config;
        config.flowScale = 1e-4;
        config.seed = 1'000'003 + i;
        const CalibratedWorkload workload(targets[i], config);
        EXPECT_EQ(digest(workload.materializeStream(0)), pins[i].salt0)
            << pins[i].name << " salt 0";
        EXPECT_EQ(digest(workload.materializeStream(3)), pins[i].salt3)
            << pins[i].name << " salt 3";
    }
}

TEST(CalibratedWorkloadTest2, SaltChangesOrderNotDistribution)
{
    CalibratedWorkload workload(specTarget("compress"), smallConfig());
    const std::vector<PathEvent> a = workload.materializeStream(1);
    const std::vector<PathEvent> b = workload.materializeStream(2);
    ASSERT_EQ(a.size(), b.size());

    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].path != b[i].path;
    EXPECT_TRUE(differs);
}

TEST(CalibratedWorkloadTest2, StreamIsBursty)
{
    WorkloadConfig config = smallConfig();
    config.meanRunLength = 8.0;
    CalibratedWorkload workload(specTarget("compress"), config);
    const std::vector<PathEvent> stream = workload.materializeStream();

    std::uint64_t same = 0;
    for (std::size_t i = 1; i < stream.size(); ++i)
        same += stream[i].path == stream[i - 1].path ? 1 : 0;
    // Mean run 8 => ~7/8 of adjacent pairs share a path (fewer when a
    // path's remaining budget truncates runs).
    EXPECT_GT(static_cast<double>(same) /
                  static_cast<double>(stream.size()),
              0.6);
}

TEST(CalibratedWorkloadTest2, EventMetadataIsConsistent)
{
    CalibratedWorkload workload(specTarget("perl"), smallConfig());
    for (PathIndex p = 0; p < 50; ++p) {
        const PathEvent event = workload.eventFor(p);
        EXPECT_EQ(event.path, p);
        EXPECT_EQ(event.head, workload.headOf(p));
        EXPECT_GE(event.blocks, 2u);
        EXPECT_GE(event.instructions, event.blocks);
        EXPECT_EQ(event.branches, event.blocks);
    }
}

TEST(CalibratedWorkloadTest2, AutoRescaleKeepsColdTierFeasible)
{
    // ijpeg at 1e-4 scale cannot give all 62k paths one execution;
    // the workload must rescale its flow upward, not crash.
    CalibratedWorkload workload(specTarget("ijpeg"), smallConfig());
    EXPECT_GE(workload.totalFlow(),
              workload.numPaths() - workload.numHotPaths());
    EXPECT_EQ(workload.numPaths(), 62125u);
}

TEST(CalibratedWorkloadDeathTest, NoRescaleMeansInfeasiblePanics)
{
    WorkloadConfig config = smallConfig();
    config.autoRescale = false;
    EXPECT_DEATH(CalibratedWorkload(specTarget("ijpeg"), config),
                 "infeasible");
}
