#include "paths/splitter.hh"

#include "support/logging.hh"

namespace hotpath
{

PathSplitter::PathSplitter(PathSink &sink, SplitterConfig config)
    : sink(sink), cfg(config)
{
    HOTPATH_ASSERT(cfg.maxBlocks >= 1);
}

void
PathSplitter::beginPath(BlockId head, bool synthetic)
{
    current.head = head;
    current.blocks.clear();
    current.branches = 0;
    current.instructions = 0;
    current.endReason = PathEndReason::BackwardBranch;
    current.syntheticHead = synthetic;
    inPath = true;
    callDepth = 0;
    sawCall = false;
}

void
PathSplitter::endPath(PathEndReason reason)
{
    current.endReason = reason;
    sink.onPath(current);
    inPath = false;
}

void
PathSplitter::onBlock(const BasicBlock &block)
{
    if (firstBlock) {
        firstBlock = false;
        if (cfg.fullCoverage) {
            pendingStart = true;
            pendingSynthetic = true;
            pendingHead = block.id;
        }
    }

    if (pendingStart) {
        HOTPATH_ASSERT(!inPath, "path start while another is open");
        HOTPATH_ASSERT(pendingHead == block.id,
                       "pending head does not match executing block");
        beginPath(block.id, pendingSynthetic);
        current.signature.reset(block.addr);
        pendingStart = false;
    }

    if (!inPath) {
        ++orphanBlocks;
        return;
    }

    current.blocks.push_back(block.id);
    current.instructions += block.instrCount;

    if (current.blocks.size() >= cfg.maxBlocks) {
        // Truncate: the path ends with this block; collection resumes
        // at the next path start trigger.
        endPath(PathEndReason::LengthCap);
        if (cfg.fullCoverage) {
            // The very next block starts a synthetic path; we do not
            // yet know its id, so flag a wildcard start.
            pendingStart = false;
            pendingHead = kInvalidBlock;
            pendingSynthetic = true;
        }
    }
}

void
PathSplitter::onTransfer(const TransferEvent &event)
{
    // Full-coverage wildcard start after truncation: adopt whatever
    // block executes next.
    if (cfg.fullCoverage && !inPath && !pendingStart) {
        pendingStart = true;
        pendingSynthetic = true;
        pendingHead = event.to;
    }

    if (inPath) {
        // The terminator that produced this transfer belongs to the
        // current path: record its outcome in the signature.
        switch (event.kind) {
          case BranchKind::Conditional:
            current.signature.pushOutcome(event.taken);
            ++current.branches;
            break;
          case BranchKind::Indirect:
            current.signature.pushIndirectTarget(event.target);
            ++current.branches;
            break;
          case BranchKind::Return:
            // Return targets are dynamic, so they disambiguate the
            // path the same way indirect targets do.
            current.signature.pushIndirectTarget(event.target);
            ++current.branches;
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            ++current.branches;
            break;
          case BranchKind::Fallthrough:
            break;
        }
    }

    if (event.backward) {
        // Backward taken branch (of any kind): terminates the current
        // path and its target starts the next one.
        if (inPath)
            endPath(PathEndReason::BackwardBranch);
        pendingStart = true;
        pendingSynthetic = false;
        pendingHead = event.to;
        return;
    }

    if (!inPath)
        return;

    if (!cfg.interprocedural &&
        (event.kind == BranchKind::Call ||
         event.kind == BranchKind::Return)) {
        // Intraprocedural variant: procedure boundaries always end
        // the path; collection resumes at the next backward target
        // (or immediately in full-coverage mode).
        endPath(PathEndReason::MatchingReturn);
        if (cfg.fullCoverage) {
            pendingStart = true;
            pendingSynthetic = true;
            pendingHead = event.to;
        }
        return;
    }

    if (event.kind == BranchKind::Call) {
        ++callDepth;
        sawCall = true;
    } else if (event.kind == BranchKind::Return) {
        if (callDepth > 0) {
            --callDepth;
            if (callDepth == 0 && sawCall) {
                // Forward return matching a call included in the
                // path: the path terminates here (paper Section 3).
                endPath(PathEndReason::MatchingReturn);
                if (cfg.fullCoverage) {
                    pendingStart = true;
                    pendingSynthetic = true;
                    pendingHead = event.to;
                }
            }
        }
        // A forward return with callDepth == 0 crosses out of the
        // procedure the path started in; the path extends across it.
    }
}

void
PathSplitter::flush()
{
    if (inPath && !current.blocks.empty())
        endPath(PathEndReason::StreamEnd);
    inPath = false;
    pendingStart = false;
}

} // namespace hotpath
