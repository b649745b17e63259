/**
 * @file
 * Tests for the Boa-style branch-bias trace builder: construction
 * follows per-branch argmax, correlation blindness (the paper's
 * Section 7 critique), cost accounting, and structural handling of
 * calls, indirects and length caps.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cfg/builder.hh"
#include "predict/branch_bias_predictor.hh"
#include "sim/machine.hh"
#include "sim/trace_log.hh"

using namespace hotpath;

namespace
{

struct Collector : NetTraceSink
{
    void
    onTrace(const NetTrace &trace) override
    {
        traces.push_back(trace);
    }

    std::vector<NetTrace> traces;
};

Program
makeDiamondLoop()
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

TEST(BranchBiasTest, FollowsTheDominantBranch)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.9);
    model.setTakenProbability(findBlock(prog, "latch"), 0.999);
    model.finalize();

    Collector collector;
    BranchBiasConfig config;
    config.hotThreshold = 100;
    BranchBiasTraceBuilder builder(prog, collector, config);

    Machine machine(prog, model, {.seed = 31});
    machine.addListener(&builder);
    machine.run(20000);

    ASSERT_EQ(collector.traces.size(), 1u);
    const std::vector<BlockId> expected = {findBlock(prog, "head"),
                                           findBlock(prog, "a"),
                                           findBlock(prog, "latch")};
    EXPECT_EQ(collector.traces.front().blocks, expected);
    EXPECT_EQ(collector.traces.front().endReason,
              PathEndReason::BackwardBranch);
}

TEST(BranchBiasTest, ThreeDiamondCorrelationYieldsPhantomPath)
{
    // P1 = a c e (40%), P2 = b c f (35%), P3 = a d f (25%):
    // argmax edges are a (65%), c (75%), f (60%) - the combination
    // a-c-f never executes.
    ProgramBuilder pb;
    ProcedureBuilder &main = pb.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).cond("a", "b");
    main.block("a", 1).jump("m");
    main.block("b", 1).fallthrough("m");
    main.block("m", 1).cond("c", "d");
    main.block("c", 1).jump("n");
    main.block("d", 1).fallthrough("n");
    main.block("n", 1).cond("e", "f");
    main.block("e", 1).jump("latch");
    main.block("f", 1).fallthrough("latch");
    main.block("latch", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    const Program prog = pb.build();

    TraceLog log;
    log.append(findBlock(prog, "entry"));
    auto iter = [&](const char *x, const char *y, const char *z) {
        log.append(findBlock(prog, "head"));
        log.append(findBlock(prog, x));
        log.append(findBlock(prog, "m"));
        log.append(findBlock(prog, y));
        log.append(findBlock(prog, "n"));
        log.append(findBlock(prog, z));
        log.append(findBlock(prog, "latch"));
    };
    for (int i = 0; i < 100; ++i) {
        for (int k = 0; k < 8; ++k)
            iter("a", "c", "e"); // P1 x8
        for (int k = 0; k < 7; ++k)
            iter("b", "c", "f"); // P2 x7
        for (int k = 0; k < 5; ++k)
            iter("a", "d", "f"); // P3 x5
    }

    Collector collector;
    BranchBiasConfig config;
    config.hotThreshold = 1500;
    BranchBiasTraceBuilder builder(prog, collector, config);
    log.replay(prog, {&builder});

    ASSERT_EQ(collector.traces.size(), 1u);
    const std::vector<BlockId> phantom = {
        findBlock(prog, "head"), findBlock(prog, "a"),
        findBlock(prog, "m"),    findBlock(prog, "c"),
        findBlock(prog, "n"),    findBlock(prog, "f"),
        findBlock(prog, "latch")};
    EXPECT_EQ(collector.traces.front().blocks, phantom);
}

TEST(BranchBiasTest, ProfilesEveryBranch)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    BranchBiasConfig config;
    config.hotThreshold = 1u << 30;
    BranchBiasTraceBuilder builder(prog, collector, config);

    Machine machine(prog, model, {.seed = 1});
    machine.addListener(&builder);
    machine.run(3000);

    // Per iteration (head a|b latch): head cond + a's jump or b's
    // fallthrough(no branch) + latch cond; plus the head-arrival
    // counter update. Branch-bias op count must far exceed the
    // one-per-iteration a NET builder would pay.
    EXPECT_GT(builder.cost().counterUpdates, 2500u);
    EXPECT_GT(builder.countersAllocated(), 3u);
}

TEST(BranchBiasTest, LengthCapStopsConstruction)
{
    // A loop whose body is long straight-line code.
    ProgramBuilder pb;
    ProcedureBuilder &main = pb.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).fallthrough("c0");
    for (int i = 0; i < 20; ++i) {
        std::string block = "c";
        block += std::to_string(i);
        std::string next = "c";
        next += std::to_string(i + 1);
        main.block(block, 1).fallthrough(i == 19 ? "latch" : next);
    }
    main.block("latch", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    const Program prog = pb.build();

    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    Collector collector;
    BranchBiasConfig config;
    config.hotThreshold = 5;
    config.maxBlocks = 7;
    BranchBiasTraceBuilder builder(prog, collector, config);
    Machine machine(prog, model, {.seed = 2});
    machine.addListener(&builder);
    machine.run(300);

    ASSERT_FALSE(collector.traces.empty());
    EXPECT_EQ(collector.traces.front().blocks.size(), 7u);
    EXPECT_EQ(collector.traces.front().endReason,
              PathEndReason::LengthCap);
}

TEST(BranchBiasTest, ConstructionCrossesCallsViaContinuations)
{
    ProgramBuilder pb;
    ProcedureBuilder &main = pb.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).call("helper", "after");
    main.block("after", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    ProcedureBuilder &helper = pb.proc("helper");
    helper.block("h", 1).ret();
    const Program prog = pb.build();

    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "after"), 0.95);
    model.finalize();

    Collector collector;
    BranchBiasConfig config;
    config.hotThreshold = 20;
    BranchBiasTraceBuilder builder(prog, collector, config);
    Machine machine(prog, model, {.seed = 3});
    machine.addListener(&builder);
    machine.run(5000);

    ASSERT_FALSE(collector.traces.empty());
    // Construction from "head" descends into the callee and stops at
    // the (backward) return to "after".
    bool found = false;
    for (const NetTrace &trace : collector.traces) {
        if (trace.head == findBlock(prog, "head")) {
            const std::vector<BlockId> expected = {
                findBlock(prog, "head"), findBlock(prog, "h")};
            EXPECT_EQ(trace.blocks, expected);
            EXPECT_EQ(trace.endReason,
                      PathEndReason::BackwardBranch);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}
