/**
 * @file
 * Tests for the CFG-level NET trace builder: head counting on
 * backward-branch targets, tail collection with incremental
 * instrumentation accounting, head retirement and re-arming.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cfg/builder.hh"
#include "predict/net_trace_builder.hh"
#include "sim/machine.hh"

using namespace hotpath;

namespace
{

class Collector : public NetTraceSink
{
  public:
    void
    onTrace(const NetTrace &trace) override
    {
        traces.push_back(trace);
    }

    std::vector<NetTrace> traces;
};

Program
makeBiasedLoop()
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).cond("a", "b");
    main.block("a", 1).jump("latch");
    main.block("b", 1).fallthrough("latch");
    main.block("latch", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    return builder.build();
}

} // namespace

TEST(NetTraceBuilderTest, CollectsTheDominantTail)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.95);
    model.setTakenProbability(findBlock(prog, "latch"), 0.999);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 40;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 21});
    machine.addListener(&net);
    machine.run(50000);

    ASSERT_EQ(collector.traces.size(), 1u); // head owns one trace
    const NetTrace &trace = collector.traces.front();
    EXPECT_EQ(trace.head, findBlock(prog, "head"));
    // With a 95% bias the next-executing tail is statistically the
    // dominant one: head a latch.
    const std::vector<BlockId> expected = {findBlock(prog, "head"),
                                           findBlock(prog, "a"),
                                           findBlock(prog, "latch")};
    EXPECT_EQ(trace.blocks, expected);
    EXPECT_EQ(trace.endReason, PathEndReason::BackwardBranch);
}

TEST(NetTraceBuilderTest, CountsOnlyHeadArrivals)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 1000000; // never trips
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 2});
    machine.addListener(&net);
    machine.run(4000);

    // One counter update per backward arrival, nothing else: roughly
    // one per loop iteration (3 blocks), never one per block.
    EXPECT_GT(net.cost().counterUpdates, 1000u);
    EXPECT_LT(net.cost().counterUpdates, 1500u);
    EXPECT_EQ(net.countersAllocated(), 1u);
    EXPECT_TRUE(collector.traces.empty());
}

TEST(NetTraceBuilderTest, BreakpointAccountingMatchesTraceLength)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 10;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 3});
    machine.addListener(&net);
    machine.run(200);

    ASSERT_EQ(collector.traces.size(), 1u);
    EXPECT_EQ(net.collectionCost().breakpointsPlaced,
              collector.traces.front().blocks.size());
    EXPECT_EQ(net.collectionCost().breakpointsHit,
              net.collectionCost().breakpointsPlaced);
    EXPECT_EQ(net.collectionCost().tracesCollected, 1u);
}

TEST(NetTraceBuilderTest, RetiredHeadStopsCounting)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 10;
    cfg.reArm = false;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 3});
    machine.addListener(&net);
    machine.run(10000);

    // One trace, and the head stopped costing counter updates after
    // collection: ~10 arrivals counted out of ~3300 iterations.
    EXPECT_EQ(collector.traces.size(), 1u);
    EXPECT_LT(net.cost().counterUpdates, 20u);
}

TEST(NetTraceBuilderTest, ReArmCollectsFurtherTraces)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.5);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 25;
    cfg.reArm = true;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 5});
    machine.addListener(&net);
    machine.run(20000);

    // Both iteration shapes get collected over time.
    ASSERT_GE(collector.traces.size(), 2u);
    std::set<std::vector<BlockId>> shapes;
    for (const NetTrace &trace : collector.traces)
        shapes.insert(trace.blocks);
    EXPECT_GE(shapes.size(), 2u);
}

TEST(NetTraceBuilderTest, LengthCapTruncatesCollection)
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).fallthrough("c0");
    for (int i = 0; i < 12; ++i) {
        std::string block = "c";
        block += std::to_string(i);
        std::string next = "c";
        next += std::to_string(i + 1);
        main.block(block, 1).fallthrough(i == 11 ? "latch" : next);
    }
    main.block("latch", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    const Program prog = builder.build();

    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 5;
    cfg.maxBlocks = 6;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 6});
    machine.addListener(&net);
    machine.run(300);

    ASSERT_FALSE(collector.traces.empty());
    EXPECT_EQ(collector.traces.front().blocks.size(), 6u);
    EXPECT_EQ(collector.traces.front().endReason,
              PathEndReason::LengthCap);
}

TEST(NetTraceBuilderTest, SignatureMatchesCollectedTail)
{
    const Program prog = makeBiasedLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 1.0);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    NetTraceBuilderConfig cfg;
    cfg.hotThreshold = 3;
    NetTraceBuilder net(collector, cfg);

    Machine machine(prog, model, {.seed = 7});
    machine.addListener(&net);
    machine.run(100);

    ASSERT_FALSE(collector.traces.empty());
    const NetTrace &trace = collector.traces.front();
    // head taken (1), a's jump (no bit), latch taken (1).
    EXPECT_EQ(trace.signature.historyLength(), 2u);
    EXPECT_TRUE(trace.signature.bit(0));
    EXPECT_TRUE(trace.signature.bit(1));
    EXPECT_EQ(trace.branches, 3u);
}
