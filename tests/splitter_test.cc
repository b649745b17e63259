/**
 * @file
 * Tests for the interprocedural forward-path splitter: path start and
 * termination rules (backward branches, matching returns, length
 * caps), full-coverage conservation, and signature construction along
 * the way.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cfg/builder.hh"
#include "paths/registry.hh"
#include "paths/splitter.hh"
#include "sim/machine.hh"

using namespace hotpath;

namespace
{

/** Collects path records. */
class RecordSink : public PathSink
{
  public:
    void
    onPath(const PathRecord &record) override
    {
        records.push_back(record);
    }

    std::vector<PathRecord> records;
};

/** Names a record's blocks like "head body latch". */
std::string
spell(const Program &prog, const PathRecord &record)
{
    std::string out;
    for (BlockId block : record.blocks) {
        if (!out.empty())
            out += " ";
        out += prog.block(block).label;
    }
    return out;
}

Program
makeLoop()
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

Program
makeLoopWithCall()
{
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).fallthrough("head");
    main.block("head", 1).call("helper", "after");
    main.block("after", 1).cond("head", "exit");
    main.block("exit", 1).ret();
    ProcedureBuilder &helper = builder.proc("helper");
    helper.block("h_entry", 1).fallthrough("h_body");
    helper.block("h_body", 1).ret();
    return builder.build();
}

/** Run the program and return the completed paths. */
std::vector<PathRecord>
runAndSplit(const Program &prog, const BehaviorModel &model,
            std::uint64_t blocks, SplitterConfig cfg = {},
            std::uint64_t seed = 1)
{
    RecordSink sink;
    PathSplitter splitter(sink, cfg);
    Machine machine(prog, model, {.seed = seed});
    machine.addListener(&splitter);
    machine.run(blocks);
    splitter.flush();
    return sink.records;
}

} // namespace

TEST(SplitterTest, PathsStartAtBackwardTargetsOnly)
{
    const Program prog = makeLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 0.9);
    model.finalize();

    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 2000);
    ASSERT_FALSE(records.empty());
    // Legitimate heads: the loop head (via the latch) and the program
    // entry (the restart return is a backward taken branch too).
    const BlockId head = findBlock(prog, "head");
    const BlockId entry = findBlock(prog, "entry");
    bool saw_loop_head = false;
    for (const PathRecord &record : records) {
        EXPECT_TRUE(record.head == head || record.head == entry);
        EXPECT_FALSE(record.syntheticHead);
        EXPECT_EQ(record.blocks.front(), record.head);
        saw_loop_head |= record.head == head;
    }
    EXPECT_TRUE(saw_loop_head);
}

TEST(SplitterTest, LoopPathsAreTheTwoIterationShapes)
{
    const Program prog = makeLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 0.95);
    model.finalize();

    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 20000);

    std::set<std::string> shapes;
    for (const PathRecord &record : records) {
        if (record.endReason == PathEndReason::BackwardBranch)
            shapes.insert(spell(prog, record));
    }
    EXPECT_TRUE(shapes.count("head a latch"));
    EXPECT_TRUE(shapes.count("head b latch"));
    // Besides the two iteration shapes, only loop-leaving iterations
    // ("head .. latch exit", ended by the restart return) and
    // restart-rooted paths (from "entry") may appear; every shape is
    // rooted at a genuine backward-branch target.
    for (const std::string &shape : shapes) {
        EXPECT_TRUE(shape.rfind("head ", 0) == 0 ||
                    shape.rfind("entry ", 0) == 0)
            << shape;
    }
}

TEST(SplitterTest, BackwardBranchTerminatesAndRestarts)
{
    const Program prog = makeLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 1000);
    // Loop never exits: one path per iteration after the first entry.
    for (const PathRecord &record : records) {
        EXPECT_EQ(record.endReason == PathEndReason::BackwardBranch ||
                      record.endReason == PathEndReason::StreamEnd,
                  true);
        EXPECT_EQ(record.blocks.size(), 3u);
    }
    EXPECT_GT(records.size(), 300u);
}

TEST(SplitterTest, SignatureRecordsConditionalOutcomes)
{
    const Program prog = makeLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.setTakenProbability(findBlock(prog, "head"), 1.0);
    model.finalize();

    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 100);
    ASSERT_FALSE(records.empty());
    const PathRecord &record = records.front();
    // Path "head a latch": head taken (1), a jump (no bit), latch
    // taken (1) -> history "11", rooted at head's address.
    EXPECT_EQ(record.signature.historyLength(), 2u);
    EXPECT_TRUE(record.signature.bit(0));
    EXPECT_TRUE(record.signature.bit(1));
    EXPECT_EQ(record.signature.start(),
              prog.block(findBlock(prog, "head")).addr);
    EXPECT_EQ(record.branches, 3u); // cond + jump + cond
}

TEST(SplitterTest, CallCrossingPathEndsAtTheReturn)
{
    const Program prog = makeLoopWithCall();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "after"), 0.9);
    model.finalize();

    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 5000);
    ASSERT_FALSE(records.empty());

    // Paths rooted at "head" cross into the callee and must end at
    // the return back to "after" (a backward transfer under the
    // contiguous layout); no path ever extends past that return.
    std::set<std::string> shapes;
    for (const PathRecord &record : records)
        shapes.insert(spell(prog, record));
    EXPECT_TRUE(shapes.count("head h_entry h_body")) << [&] {
        std::string all;
        for (const auto &s : shapes)
            all += "[" + s + "] ";
        return all;
    }();
    for (const std::string &shape : shapes)
        EXPECT_EQ(shape.find("h_body after"), std::string::npos);
}

TEST(SplitterTest, MatchingReturnRuleFiresOnForwardReturn)
{
    // Synthetic layout where the callee sits between the call site
    // and the continuation, making both the call and the matching
    // return forward transfers: the depth rule must terminate the
    // path at the return. Blocks are fabricated directly; the
    // splitter only reads addresses and kinds.
    BasicBlock head;   // loop head
    head.id = 0;
    head.addr = 0x100;
    head.instrCount = 1;
    head.kind = BranchKind::Call;
    BasicBlock callee; // single-block callee at a higher address
    callee.id = 1;
    callee.addr = 0x104;
    callee.instrCount = 1;
    callee.kind = BranchKind::Return;
    BasicBlock after;  // continuation, above the callee
    after.id = 2;
    after.addr = 0x108;
    after.instrCount = 1;
    after.kind = BranchKind::Jump;

    RecordSink sink;
    PathSplitter splitter(sink);

    // Arm a path at `head` via a backward branch landing on it.
    TransferEvent arm;
    arm.from = 2;
    arm.to = 0;
    arm.site = after.branchSite();
    arm.target = head.addr;
    arm.kind = BranchKind::Jump;
    arm.backward = true;
    splitter.onTransfer(arm);

    splitter.onBlock(head);
    TransferEvent call;
    call.from = 0;
    call.to = 1;
    call.site = head.branchSite();
    call.target = callee.addr;
    call.kind = BranchKind::Call;
    call.taken = true;
    call.backward = false; // forward call
    splitter.onTransfer(call);

    splitter.onBlock(callee);
    TransferEvent ret;
    ret.from = 1;
    ret.to = 2;
    ret.site = callee.branchSite();
    ret.target = after.addr;
    ret.kind = BranchKind::Return;
    ret.taken = true;
    ret.backward = false; // forward return: the depth rule must fire
    splitter.onTransfer(ret);

    ASSERT_EQ(sink.records.size(), 1u);
    const PathRecord &record = sink.records.front();
    EXPECT_EQ(record.endReason, PathEndReason::MatchingReturn);
    EXPECT_EQ(record.blocks, (std::vector<BlockId>{0, 1}));
    // The return target disambiguates the path like an indirect.
    ASSERT_EQ(record.signature.indirectTargets().size(), 1u);
    EXPECT_EQ(record.signature.indirectTargets()[0], after.addr);
}

TEST(SplitterTest, IntraproceduralVariantCutsAtCalls)
{
    const Program prog = makeLoopWithCall();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "after"), 0.9);
    model.finalize();

    SplitterConfig cfg;
    cfg.interprocedural = false;
    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 5000, cfg);
    ASSERT_FALSE(records.empty());

    // No record may contain both caller and callee blocks.
    for (const PathRecord &record : records) {
        bool has_main = false;
        bool has_helper = false;
        for (BlockId block : record.blocks) {
            const ProcId proc = prog.block(block).proc;
            has_main |= proc == 0;
            has_helper |= proc == 1;
        }
        EXPECT_FALSE(has_main && has_helper)
            << spell(prog, record);
    }
    // The "head h_entry h_body" shape of the interprocedural
    // definition must NOT appear; "head" alone (cut at the call)
    // does.
    std::set<std::string> shapes;
    for (const PathRecord &record : records)
        shapes.insert(spell(prog, record));
    EXPECT_FALSE(shapes.count("head h_entry h_body"));
    EXPECT_TRUE(shapes.count("head"));
}

TEST(SplitterTest, ReturnEndedPathsLeaveNoGapWhenContinuationIsHead)
{
    const Program prog = makeLoopWithCall();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "after"), 0.9);
    model.finalize();

    RecordSink sink;
    PathSplitter splitter(sink);
    Machine machine(prog, model, {.seed = 1});
    machine.addListener(&splitter);
    machine.run(5000);
    splitter.flush();

    // Under the contiguous layout the return back to "after" is a
    // backward branch, so "after" itself becomes a path head and only
    // the initial prefix (entry head h_entry h_body, before the first
    // backward branch) is unattributed.
    EXPECT_LE(splitter.unattributedBlocks(), 4u);
}

TEST(SplitterTest, FullCoverageAttributesEveryBlock)
{
    const Program prog = makeLoopWithCall();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "after"), 0.9);
    model.finalize();

    RecordSink sink;
    SplitterConfig cfg;
    cfg.fullCoverage = true;
    PathSplitter splitter(sink, cfg);
    Machine machine(prog, model, {.seed = 1});
    machine.addListener(&splitter);
    machine.run(5000);
    splitter.flush();

    std::uint64_t attributed = 0;
    for (const PathRecord &record : sink.records)
        attributed += record.blocks.size();
    EXPECT_EQ(attributed, machine.blocksExecuted());
    EXPECT_EQ(splitter.unattributedBlocks(), 0u);
}

TEST(SplitterTest, LengthCapTruncates)
{
    // A long straight chain inside a loop.
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
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
    const Program prog = builder.build();

    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    SplitterConfig cfg;
    cfg.maxBlocks = 8;
    const std::vector<PathRecord> records =
        runAndSplit(prog, model, 500, cfg);
    ASSERT_FALSE(records.empty());
    bool saw_cap = false;
    for (const PathRecord &record : records) {
        EXPECT_LE(record.blocks.size(), 8u);
        saw_cap |= record.endReason == PathEndReason::LengthCap;
    }
    EXPECT_TRUE(saw_cap);
}

TEST(SplitterTest, FlushEmitsPartialPath)
{
    const Program prog = makeLoop();
    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "latch"), 1.0);
    model.finalize();

    RecordSink sink;
    PathSplitter splitter(sink);
    Machine machine(prog, model, {.seed = 1});
    machine.addListener(&splitter);
    machine.run(100); // likely stops mid-path
    const std::size_t before = sink.records.size();
    splitter.flush();
    ASSERT_GE(sink.records.size(), before);
    if (sink.records.size() > before) {
        EXPECT_EQ(sink.records.back().endReason,
                  PathEndReason::StreamEnd);
    }
    // A second flush is a no-op.
    const std::size_t after = sink.records.size();
    splitter.flush();
    EXPECT_EQ(sink.records.size(), after);
}

TEST(SplitterTest, RecursiveLoopCapturedWithoutUnfolding)
{
    // Self-recursive procedure: the recursive call is a backward
    // branch (callee entry is at a lower address), terminating paths.
    ProgramBuilder builder;
    ProcedureBuilder &main = builder.proc("main");
    main.block("entry", 1).call("rec", "done");
    main.block("done", 1).ret();
    ProcedureBuilder &rec = builder.proc("rec");
    rec.block("r_entry", 1).cond("r_call", "r_base");
    rec.block("r_call", 1).call("rec", "r_after");
    rec.block("r_after", 1).fallthrough("r_base");
    rec.block("r_base", 1).ret();
    const Program prog = builder.build();

    BehaviorModel model(prog);
    model.setTakenProbability(findBlock(prog, "r_entry"), 0.8);
    model.finalize();

    MachineConfig mcfg;
    mcfg.seed = 4;
    RecordSink sink;
    PathSplitter splitter(sink);
    Machine machine(prog, model, mcfg);
    machine.addListener(&splitter);
    machine.run(20000);
    splitter.flush();

    // Recursive descent: paths rooted at r_entry (the backward call
    // target) exist and never contain two copies of r_entry.
    const BlockId r_entry = findBlock(prog, "r_entry");
    bool found = false;
    for (const PathRecord &record : sink.records) {
        std::size_t copies = 0;
        for (BlockId block : record.blocks)
            copies += block == r_entry ? 1 : 0;
        EXPECT_LE(copies, 1u);
        found |= record.head == r_entry;
    }
    EXPECT_TRUE(found);
}

TEST(RegistryTest, InternsByBlockSequence)
{
    PathRegistry registry;
    PathRecord record;
    record.head = 5;
    record.blocks = {5, 6, 7};
    record.branches = 2;
    record.instructions = 9;

    const PathIndex first = registry.intern(record);
    const PathIndex again = registry.intern(record);
    EXPECT_EQ(first, again);
    EXPECT_EQ(registry.numPaths(), 1u);

    record.blocks = {5, 6, 8};
    const PathIndex other = registry.intern(record);
    EXPECT_NE(first, other);
    EXPECT_EQ(registry.numPaths(), 2u);
    EXPECT_EQ(registry.numHeads(), 1u);
}

TEST(RegistryTest, HeadsInternSeparately)
{
    PathRegistry registry;
    EXPECT_EQ(registry.internHead(10), registry.internHead(10));
    EXPECT_NE(registry.internHead(10), registry.internHead(11));
    EXPECT_EQ(registry.numHeads(), 2u);
    EXPECT_EQ(registry.headBlock(0), 10u);
}

namespace
{

/** Captures the last forwarded path event. */
struct CaptureSink : PathEventSink
{
    void
    onPathEvent(const PathEvent &event, std::uint64_t t) override
    {
        last = event;
        lastTime = t;
        ++calls;
    }

    PathEvent last;
    std::uint64_t lastTime = 0;
    int calls = 0;
};

} // namespace

TEST(RegistryTest, EventCarriesDenseIdsAndTime)
{
    PathRegistry registry;
    CaptureSink sink;
    PathEventAdapter adapter(registry, sink);

    PathRecord record;
    record.head = 3;
    record.blocks = {3, 4};
    record.branches = 1;
    record.instructions = 5;

    adapter.onPath(record);
    EXPECT_EQ(sink.calls, 1);
    EXPECT_EQ(sink.last.path, 0u);
    EXPECT_EQ(sink.last.head, 0u);
    EXPECT_EQ(sink.last.blocks, 2u);
    EXPECT_EQ(sink.last.branches, 1u);
    EXPECT_EQ(sink.last.instructions, 5u);
    EXPECT_EQ(sink.lastTime, 0u);

    adapter.onPath(record);
    EXPECT_EQ(sink.lastTime, 1u);
    EXPECT_EQ(sink.last.path, 0u);
    EXPECT_EQ(adapter.eventsForwarded(), 2u);
}
