#include "sim/trace_log.hh"

#include <algorithm>

#include "cfg/program.hh"
#include "support/logging.hh"

namespace hotpath
{

void
TraceLog::onBlock(const BasicBlock &block)
{
    blocks.push_back(block.id);
}

void
TraceLog::onBatch(const ExecutionRecord *records, std::size_t count)
{
    blocks.reserve(blocks.size() + count);
    for (std::size_t i = 0; i < count; ++i)
        blocks.push_back(records[i].block->id);
}

void
TraceLog::replay(
    const Program &program,
    const std::vector<ExecutionListener *> &listeners) const
{
    // Dispatch is batched like a live Machine run: records accumulate
    // and each listener gets one onBatch() call per chunk, which is
    // what keeps the BM_*Replay micro benches at the cost of the
    // profiling work instead of the virtual-call plumbing.
    constexpr std::size_t kBatchBlocks = 256;
    std::vector<ExecutionRecord> batch;
    batch.reserve(kBatchBlocks);
    const auto flush = [&] {
        if (batch.empty())
            return;
        for (ExecutionListener *l : listeners)
            l->onBatch(batch.data(), batch.size());
        batch.clear();
    };

    std::vector<BlockId> call_stack;

    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const BasicBlock &block = program.block(blocks[i]);
        ExecutionRecord &record = batch.emplace_back();
        record.block = &block;

        if (i + 1 >= blocks.size())
            break;
        const BlockId next = blocks[i + 1];

        TransferEvent &event = record.transfer;
        event.from = block.id;
        event.to = next;
        event.site = block.branchSite();
        event.target = program.block(next).addr;
        event.kind = block.kind;
        event.backward = isBackwardTransfer(event.site, event.target);

        switch (block.kind) {
          case BranchKind::Fallthrough:
            HOTPATH_ASSERT(next == block.successors[0],
                           "illegal fallthrough transition in trace");
            event.taken = false;
            break;
          case BranchKind::Jump:
            HOTPATH_ASSERT(next == block.successors[0],
                           "illegal jump transition in trace");
            event.taken = true;
            break;
          case BranchKind::Conditional:
            HOTPATH_ASSERT(next == block.successors[0] ||
                               next == block.successors[1],
                           "illegal conditional transition in trace");
            event.taken = next == block.successors[0];
            break;
          case BranchKind::Indirect: {
            const auto &succ = block.successors;
            HOTPATH_ASSERT(std::find(succ.begin(), succ.end(), next) !=
                               succ.end(),
                           "illegal indirect transition in trace");
            event.taken = true;
            break;
          }
          case BranchKind::Call:
            HOTPATH_ASSERT(
                next == program.procedure(block.callee).entry,
                "call transition does not enter the callee");
            call_stack.push_back(block.successors[0]);
            event.taken = true;
            break;
          case BranchKind::Return:
            event.taken = true;
            if (call_stack.empty()) {
                const BlockId entry =
                    program.procedure(program.entryProcedure()).entry;
                HOTPATH_ASSERT(next == entry,
                               "return transition with empty stack "
                               "does not restart the program");
                record.programEnd = true;
            } else {
                HOTPATH_ASSERT(next == call_stack.back(),
                               "return transition does not match the "
                               "call site");
                call_stack.pop_back();
            }
            break;
        }

        record.hasTransfer = true;
        if (batch.size() >= kBatchBlocks)
            flush();
    }
    flush();
}

} // namespace hotpath
