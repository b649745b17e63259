#include "dynamo/cfg_engine.hh"

#include "sim/machine.hh"
#include "support/logging.hh"

namespace hotpath
{

/** Receives traces from the embedded NET builder. */
class CfgDynamoEngine::Sink : public NetTraceSink
{
  public:
    explicit Sink(CfgDynamoEngine &owner) : owner(owner) {}

    void
    onTrace(const NetTrace &trace) override
    {
        owner.onTraceFormed(trace);
    }

  private:
    CfgDynamoEngine &owner;
};

CfgDynamoEngine::CfgDynamoEngine(const Program &program,
                                 CfgEngineConfig config)
    : prog(program), cfg(config), irAssigner(program, config.irGen),
      optimizer(config.optimizer), faults(config.faults),
      cache(config.cache), sink(std::make_unique<Sink>(*this))
{
    NetTraceBuilderConfig net_config;
    net_config.hotThreshold = cfg.hotThreshold;
    net_config.maxBlocks = cfg.maxTraceBlocks;
    net_config.reArm = false; // one fragment per head
    builder = std::make_unique<NetTraceBuilder>(*sink, net_config);
}

CfgDynamoEngine::~CfgDynamoEngine() = default;

void
CfgDynamoEngine::attach(Machine &machine)
{
    machine.setDispatchHook(this);
}

void
CfgDynamoEngine::onTraceFormed(const NetTrace &trace)
{
    IrSequence ir = irAssigner.traceIr(trace.blocks);
    const auto original = static_cast<double>(ir.size());
    double ratio = 1.0;
    if (cfg.optimizeFragments && !ir.empty()) {
        const OptStats opt_stats = optimizer.optimize(ir);
        ratio = opt_stats.ratio();
    }

    // Formation work happens whether or not the insert succeeds.
    stats.formationCycles += original * cfg.costs.formationPerInstr;

    if (faults.armed(fault::Site::AllocFail) &&
        faults.shouldInject(fault::Site::AllocFail)) {
        // The cache arena refused the allocation: the trace is
        // dropped and its head interprets on. NET retired the head,
        // so the next chance at this path is a secondary trace
        // spawned from some fragment's exit stub.
        ++stats.formationsAbandoned;
        return;
    }

    ++stats.fragmentsFormed;
    ratioSum += ratio;

    StitchedFragment stitched;
    stitched.head = trace.head;
    stitched.blocks.reserve(trace.blocks.size());
    for (const BlockId id : trace.blocks)
        stitched.blocks.push_back(&prog.block(id));

    chargeInsert(cache.insert(trace.head, trace.instructions, ratio,
                              std::move(stitched)));
}

void
CfgDynamoEngine::chargeInsert(const InsertStats &insert)
{
    if (insert.flushed) {
        ++stats.cacheFlushes;
        stats.cacheManagementCycles += cfg.costs.flushCost;
    }
    stats.fragmentsEvicted += insert.evicted;
    stats.cacheManagementCycles +=
        static_cast<double>(insert.evicted) * cfg.costs.evictionCost;
}

const StitchedFragment *
CfgDynamoEngine::enter(BlockId head)
{
    if (exitPending) {
        // The dispatch decision of the preceding fragment exit: the
        // exit stub either branches straight to the target fragment
        // (linked) or returns control to the runtime. A fragment
        // looping back to its own top costs nothing once linked.
        exitPending = false;
        switch (cache.recordExit(exitFrom, head)) {
          case ExitKind::Linked:
            ++stats.linkedExits;
            if (head != exitFrom)
                stats.dispatchCycles += cfg.costs.linkedDispatchCost;
            break;
          case ExitKind::PatchedNow:
            // The round trip that patched the stub; linked from now.
            ++stats.unlinkedExits;
            stats.dispatchCycles += cfg.costs.unlinkedDispatchCost;
            break;
          case ExitKind::Unlinked:
            // Runtime round trip; the stub counts the arrival so hot
            // exits spawn secondary traces (possibly arming a
            // collection that starts right here).
            ++stats.unlinkedExits;
            stats.dispatchCycles += cfg.costs.unlinkedDispatchCost;
            builder->noteArrival(head);
            syncProfilingCost();
            break;
        }
    }

    // The interpreter stays in charge while the builder is
    // mid-collection: the tail must be observed, not executed from
    // the cache.
    if (builder->collecting())
        return nullptr;

    if (cache.find(head) == nullptr)
        return nullptr;
    const FragmentLinks *links = cache.linksOf(head);
    HOTPATH_ASSERT(links != nullptr, "resident fragment not stitched");
    activeRatio = links->ratio;
    return &links->stitched;
}

void
CfgDynamoEngine::onFragmentBlock(const ExecutionRecord &record,
                                 const StitchedFragment &fragment,
                                 std::size_t position)
{
    (void)fragment;
    (void)position;
    const BasicBlock &block = *record.block;
    ++stats.blocksSeen;
    stats.instructionsSeen += block.instrCount;
    stats.nativeCycles += block.instrCount * cfg.costs.nativePerInstr;

    // Optimized execution: fewer instructions at native speed.
    ++stats.fragmentBlocks;
    stats.fragmentCycles +=
        block.instrCount * activeRatio * cfg.costs.nativePerInstr;
}

void
CfgDynamoEngine::onFragmentExit(const StitchedFragment &fragment,
                                std::size_t exit_position,
                                BlockId target, bool completed)
{
    (void)exit_position;
    if (completed)
        ++stats.fragmentCompletions;
    else
        ++stats.guardExits;
    if (target == kInvalidBlock)
        return; // program exited inside the fragment
    exitPending = true;
    exitFrom = fragment.head;
}

void
CfgDynamoEngine::onInterpretedBlock(const ExecutionRecord &record)
{
    const BasicBlock &block = *record.block;
    ++stats.blocksSeen;
    stats.instructionsSeen += block.instrCount;
    stats.nativeCycles += block.instrCount * cfg.costs.nativePerInstr;

    // Interpretation; the profiler sees the block and its transfer.
    ++stats.interpretedBlocks;
    stats.interpretCycles +=
        block.instrCount * cfg.costs.interpretPerInstr;
    builder->onBlock(block);
    if (record.hasTransfer)
        builder->onTransfer(record.transfer);
    syncProfilingCost();
}

void
CfgDynamoEngine::syncProfilingCost()
{
    const std::uint64_t ops = builder->cost().counterUpdates;
    stats.profilingCycles += static_cast<double>(ops - lastBuilderOps) *
                             cfg.costs.counterOpCost;
    lastBuilderOps = ops;
}

CfgEngineReport
CfgDynamoEngine::report() const
{
    CfgEngineReport out = stats;
    out.meanOptimizationRatio =
        stats.fragmentsFormed == 0
            ? 1.0
            : ratioSum / static_cast<double>(stats.fragmentsFormed);
    out.linksMade = cache.linksMade();
    out.linksBroken = cache.linksBroken();
    out.residentFragments = cache.size();
    out.residentBytes = cache.residentBytes();
    return out;
}

} // namespace hotpath
