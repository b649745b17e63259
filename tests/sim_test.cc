/**
 * @file
 * Unit tests for the simulation layer: behaviour models (including
 * phases), machine execution semantics (branch outcomes, calls and
 * returns, restarts), determinism, and trace record/replay.
 */

#include <gtest/gtest.h>

#include "cfg/builder.hh"
#include "sim/machine.hh"
#include "sim/trace_log.hh"

using namespace hotpath;

namespace
{

Program
makeDiamondLoop()
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).cond("left", "right");
    main.block("left", 2).jump("latch");
    main.block("right", 3).fallthrough("latch");
    main.block("latch", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    return builder.build();
}

Program
makeCallProgram()
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).call("helper", "after");
    main.block("after", 1).ret();
    ProcedureBuilder &helper = builder.proc("helper");
    helper.block("h", 2).ret();
    return builder.build();
}

/** Collects every event for inspection. */
class EventRecorder : public ExecutionListener
{
  public:
    void
    onBlock(const BasicBlock &block) override
    {
        blocks.push_back(block.id);
    }

    void
    onTransfer(const TransferEvent &event) override
    {
        transfers.push_back(event);
    }

    void onProgramEnd() override { ++programEnds; }

    std::vector<BlockId> blocks;
    std::vector<TransferEvent> transfers;
    int programEnds = 0;
};

} // namespace

TEST(BehaviorModelTest, DefaultsToHalf)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.finalize();
    EXPECT_EQ(model.numPhases(), 1u);
    EXPECT_DOUBLE_EQ(
        model.takenProbability(0, findBlock(prog, "head")), 0.5);
}

TEST(BehaviorModelTest, OverridesApply)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.9);
    model.finalize();
    EXPECT_DOUBLE_EQ(
        model.takenProbability(0, findBlock(prog, "head")), 0.9);
}

TEST(BehaviorModelTest, PhaseScheduleAndInheritance)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    PhaseSpec phase0;
    phase0.lengthBlocks = 100;
    phase0.takenProbability[findBlock(prog, "head")] = 0.9;
    phase0.takenProbability[findBlock(prog, "latch")] = 0.95;
    PhaseSpec phase1; // overrides head only; latch inherited
    phase1.takenProbability[findBlock(prog, "head")] = 0.1;
    model.addPhase(phase0);
    model.addPhase(phase1);
    model.finalize();

    EXPECT_EQ(model.numPhases(), 2u);
    EXPECT_EQ(model.phaseAt(0), 0u);
    EXPECT_EQ(model.phaseAt(99), 0u);
    EXPECT_EQ(model.phaseAt(100), 1u);
    EXPECT_EQ(model.phaseAt(1u << 20), 1u);
    EXPECT_DOUBLE_EQ(
        model.takenProbability(1, findBlock(prog, "head")), 0.1);
    EXPECT_DOUBLE_EQ(
        model.takenProbability(1, findBlock(prog, "latch")), 0.95);
}

TEST(BehaviorModelDeathTest, RejectsProbabilityOnNonConditional)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "entry"), 0.9);
    EXPECT_DEATH(model.finalize(), "non-conditional");
}

TEST(MachineTest, DeterministicGivenSeed)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.finalize();

    EventRecorder rec_a;
    Machine machine_a(prog, model, {.seed = 99});
    machine_a.addListener(&rec_a);
    machine_a.run(5000);

    EventRecorder rec_b;
    Machine machine_b(prog, model, {.seed = 99});
    machine_b.addListener(&rec_b);
    machine_b.run(5000);

    EXPECT_EQ(rec_a.blocks, rec_b.blocks);
}

TEST(MachineTest, TransfersFollowCfgEdges)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.finalize();

    EventRecorder rec;
    Machine machine(prog, model, {.seed = 1});
    machine.addListener(&rec);
    machine.run(10000);

    for (const TransferEvent &event : rec.transfers) {
        const BasicBlock &from = prog.block(event.from);
        if (from.kind == BranchKind::Call) {
            EXPECT_EQ(event.to, prog.procedure(from.callee).entry);
        } else if (from.kind == BranchKind::Return) {
            continue; // dynamic target
        } else {
            bool legal = false;
            for (BlockId succ : from.successors)
                legal |= succ == event.to;
            EXPECT_TRUE(legal);
        }
        EXPECT_EQ(event.backward,
                  isBackwardTransfer(event.site, event.target));
    }
}

TEST(MachineTest, ConditionalRespectsBias)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "head"), 0.8);
    model.setTakenProbability(findBlock(prog, "latch"), 0.99);
    model.finalize();

    EventRecorder rec;
    Machine machine(prog, model, {.seed = 5});
    machine.addListener(&rec);
    machine.run(100000);

    const BlockId head = findBlock(prog, "head");
    std::uint64_t taken = 0;
    std::uint64_t total = 0;
    for (const TransferEvent &event : rec.transfers) {
        if (event.from == head) {
            ++total;
            taken += event.taken ? 1 : 0;
        }
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(taken) / total, 0.8, 0.02);
}

TEST(MachineTest, CallsPushAndReturnsPop)
{
    const Program prog = makeCallProgram();
    BehaviorModel model(prog);
    model.finalize();

    EventRecorder rec;
    Machine machine(prog, model, {.seed = 1, .restartOnExit = false});
    machine.addListener(&rec);
    const std::uint64_t executed = machine.run(100);

    // entry -> h -> after, then main returns and the run ends.
    EXPECT_EQ(executed, 3u);
    const std::vector<BlockId> expected = {
        findBlock(prog, "entry"), findBlock(prog, "h"),
        findBlock(prog, "after")};
    EXPECT_EQ(rec.blocks, expected);
    EXPECT_EQ(rec.programEnds, 1);
    EXPECT_EQ(machine.programRuns(), 1u);
}

TEST(MachineTest, RestartOnExitLoopsForever)
{
    const Program prog = makeCallProgram();
    BehaviorModel model(prog);
    model.finalize();

    Machine machine(prog, model, {.seed = 1, .restartOnExit = true});
    const std::uint64_t executed = machine.run(300);
    EXPECT_EQ(executed, 300u);
    EXPECT_EQ(machine.programRuns(), 100u);
}

TEST(MachineTest, InstructionCountMatchesBlocks)
{
    const Program prog = makeCallProgram();
    BehaviorModel model(prog);
    model.finalize();

    Machine machine(prog, model, {.seed = 1, .restartOnExit = false});
    machine.run(100);
    EXPECT_EQ(machine.instructionsExecuted(), 1u + 2 + 1);
}

TEST(MachineTest, IndirectWeightsRespected)
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("sw", 1).indirect({"t0", "t1"});
    main.block("t0", 1).jump("back");
    main.block("t1", 1).jump("back");
    main.block("back", 1).jump("sw"); // backward: loops forever
    main.block("exit", 1).ret();
    const Program prog = builder.build();

    BehaviorModel model(prog);
    model.setIndirectWeights(findBlock(prog, "sw"), {0.9, 0.1});
    model.finalize();

    EventRecorder rec;
    Machine machine(prog, model, {.seed = 17});
    machine.addListener(&rec);
    machine.run(40000);

    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    for (BlockId block : rec.blocks) {
        t0 += block == findBlock(prog, "t0") ? 1 : 0;
        t1 += block == findBlock(prog, "t1") ? 1 : 0;
    }
    const double frac =
        static_cast<double>(t0) / static_cast<double>(t0 + t1);
    EXPECT_NEAR(frac, 0.9, 0.02);
}

TEST(TraceLogTest, RecordsBlocks)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.finalize();

    TraceLog log;
    Machine machine(prog, model, {.seed = 2});
    machine.addListener(&log);
    machine.run(1000);
    EXPECT_EQ(log.size(), 1000u);
}

TEST(TraceLogTest, ReplayReproducesLiveEventStream)
{
    const Program prog = makeDiamondLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 0.98);
    model.finalize();

    TraceLog log;
    EventRecorder live;
    Machine machine(prog, model, {.seed = 3});
    machine.addListener(&log);
    machine.addListener(&live);
    machine.run(5000);

    EventRecorder replayed;
    log.replay(prog, {&replayed});

    EXPECT_EQ(replayed.blocks, live.blocks);
    // The live run has one more transfer than the replay only if the
    // machine emitted a transfer out of the last block; replay stops
    // at the last recorded block.
    ASSERT_LE(replayed.transfers.size(), live.transfers.size());
    for (std::size_t i = 0; i < replayed.transfers.size(); ++i) {
        EXPECT_EQ(replayed.transfers[i].from, live.transfers[i].from);
        EXPECT_EQ(replayed.transfers[i].to, live.transfers[i].to);
        EXPECT_EQ(replayed.transfers[i].taken, live.transfers[i].taken);
        EXPECT_EQ(replayed.transfers[i].backward,
                  live.transfers[i].backward);
        EXPECT_EQ(replayed.transfers[i].kind, live.transfers[i].kind);
    }
    EXPECT_EQ(replayed.programEnds, live.programEnds);
}

TEST(TraceLogDeathTest, ReplayRejectsIllegalTransition)
{
    const Program prog = makeDiamondLoop();
    TraceLog log;
    log.append(findBlock(prog, "entry"));
    log.append(findBlock(prog, "exit")); // entry falls through to head
    EXPECT_DEATH(log.replay(prog, {}), "illegal");
}
