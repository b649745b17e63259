#include "predict/branch_bias_predictor.hh"

#include "support/logging.hh"

namespace hotpath
{

namespace
{

std::uint64_t
headKey(BlockId head)
{
    return static_cast<std::uint64_t>(head) + 1;
}

} // namespace

BranchBiasTraceBuilder::BranchBiasTraceBuilder(const Program &program,
                                               NetTraceSink &sink,
                                               BranchBiasConfig config)
    : prog(program), sink(sink), cfg(config)
{
    HOTPATH_ASSERT(program.finalized(), "program not finalized");
    HOTPATH_ASSERT(cfg.hotThreshold >= 1);
}

void
BranchBiasTraceBuilder::onTransfer(const TransferEvent &event)
{
    // Boa profiles every branch: one counter update per executed
    // branch instruction (fallthroughs are not branches).
    if (event.kind != BranchKind::Fallthrough) {
        edges.onTransfer(event);
        ++opCost.counterUpdates;
    }

    if (!event.backward)
        return;

    const BlockId head = event.to;
    if (ownedHeads.count(head))
        return;

    ++opCost.counterUpdates;
    if (headCounters.increment(headKey(head)) < cfg.hotThreshold)
        return;

    // Hot group entry found: construct the path statically from the
    // collected branch frequencies.
    sink.onTrace(construct(head));
    ownedHeads.insert(head);
}

NetTrace
BranchBiasTraceBuilder::construct(BlockId head) const
{
    NetTrace trace;
    trace.head = head;
    trace.signature.reset(prog.block(head).addr);
    std::vector<BlockId> continuations; // simulated call stack
    bool saw_call = false;

    BlockId cur = head;
    for (;;) {
        const BasicBlock &block = prog.block(cur);
        trace.blocks.push_back(cur);
        trace.instructions += block.instrCount;
        if (trace.blocks.size() >= cfg.maxBlocks) {
            trace.endReason = PathEndReason::LengthCap;
            return trace;
        }

        // Pick the likeliest dynamic successor from edge counts.
        BlockId next = kInvalidBlock;
        switch (block.kind) {
          case BranchKind::Fallthrough:
            next = block.successors[0];
            break;
          case BranchKind::Jump:
            next = block.successors[0];
            ++trace.branches;
            break;
          case BranchKind::Conditional: {
            const std::uint64_t taken_count =
                edges.countOf(cur, block.successors[0]);
            const std::uint64_t fall_count =
                edges.countOf(cur, block.successors[1]);
            const bool taken = taken_count >= fall_count;
            next = taken ? block.successors[0] : block.successors[1];
            trace.signature.pushOutcome(taken);
            ++trace.branches;
            break;
          }
          case BranchKind::Indirect: {
            std::uint64_t best = 0;
            next = block.successors[0];
            for (BlockId succ : block.successors) {
                const std::uint64_t count = edges.countOf(cur, succ);
                if (count > best) {
                    best = count;
                    next = succ;
                }
            }
            trace.signature.pushIndirectTarget(prog.block(next).addr);
            ++trace.branches;
            break;
          }
          case BranchKind::Call:
            continuations.push_back(block.successors[0]);
            saw_call = true;
            next = prog.procedure(block.callee).entry;
            ++trace.branches;
            break;
          case BranchKind::Return: {
            ++trace.branches;
            if (continuations.empty()) {
                // The dynamic return target is unknown to a static
                // walk that did not see the call: stop here.
                trace.endReason = PathEndReason::StreamEnd;
                return trace;
            }
            next = continuations.back();
            continuations.pop_back();
            trace.signature.pushIndirectTarget(prog.block(next).addr);
            if (isBackwardTransfer(block.branchSite(),
                                   prog.block(next).addr)) {
                trace.endReason = PathEndReason::BackwardBranch;
                return trace;
            }
            if (continuations.empty() && saw_call) {
                trace.endReason = PathEndReason::MatchingReturn;
                return trace;
            }
            cur = next;
            continue;
          }
        }

        if (isBackwardTransfer(block.branchSite(),
                               prog.block(next).addr)) {
            // The constructed path closes the loop here.
            trace.endReason = PathEndReason::BackwardBranch;
            return trace;
        }
        cur = next;
    }
}

} // namespace hotpath
