/**
 * @file
 * Online decomposition of the execution stream into interprocedural
 * forward paths (paper Section 3).
 *
 * Definition implemented here: a path starts at the target of a
 * backward taken branch and extends up to the next backward taken
 * branch. It may extend across forward calls and returns, but if it
 * includes a (forward) procedure call it terminates at the
 * corresponding return, if not earlier. A backward call or return is
 * treated like any backward taken branch (it terminates the path, and
 * its target starts the next one). This captures loop iterations,
 * including recursive loops, without unfolding the recursion.
 *
 * Note on layout: with contiguous caller-before-callee procedure
 * layout (what Program::finalize produces), the return back to the
 * caller is itself a backward transfer, so a call-crossing path ends
 * at that return via the backward-branch rule and the continuation
 * becomes a path head. The explicit matching-return rule is the
 * general form; it fires when layout makes the matching return a
 * forward transfer (callee between call site and continuation), and
 * either way the paper's invariant holds: a path never extends past
 * the return matching a call it contains.
 */

#ifndef HOTPATH_PATHS_SPLITTER_HH
#define HOTPATH_PATHS_SPLITTER_HH

#include <vector>

#include "paths/signature.hh"
#include "sim/event.hh"

namespace hotpath
{

/** Why a path record ended. */
enum class PathEndReason : std::uint8_t
{
    /** A backward taken branch executed (the normal loop closure). */
    BackwardBranch,
    /** The return matching a call included in the path executed. */
    MatchingReturn,
    /** The safety cap on path length was hit (record truncated). */
    LengthCap,
    /** The event stream ended mid-path (only emitted by flush()). */
    StreamEnd,
};

/** One completed dynamic path. */
struct PathRecord
{
    /** First block (the path head). */
    BlockId head = kInvalidBlock;
    /** All blocks in execution order, head first. */
    std::vector<BlockId> blocks;
    /** Bit-tracing signature accumulated while executing. */
    PathSignature signature;
    /** Number of branch terminators executed on the path. */
    std::uint32_t branches = 0;
    /** Number of instructions executed on the path. */
    std::uint32_t instructions = 0;
    /** Why the path ended. */
    PathEndReason endReason = PathEndReason::BackwardBranch;
    /**
     * False for paths rooted at a genuine backward-branch target;
     * true for the synthetic roots full-coverage mode introduces.
     */
    bool syntheticHead = false;
};

/** Receives completed paths in program order. */
class PathSink
{
  public:
    virtual ~PathSink() = default;
    virtual void onPath(const PathRecord &record) = 0;
};

/** Splitter configuration. */
struct SplitterConfig
{
    /**
     * Paper-faithful mode starts paths only at targets of backward
     * taken branches; flow between a matching-return termination and
     * the next backward branch is unattributed. Full-coverage mode
     * instead starts the next path immediately, so every executed
     * block belongs to exactly one path (used by conservation tests).
     */
    bool fullCoverage = false;

    /** Safety cap on blocks per path (Dynamo caps traces likewise). */
    std::uint32_t maxBlocks = 256;

    /**
     * The paper's interprocedural definition lets paths extend
     * across forward calls and returns (Section 3). Setting this
     * false yields the classic intraprocedural variant: every call
     * and return terminates the current path (Ball-Larus-style
     * boundaries), which experiment X6 compares against.
     */
    bool interprocedural = true;
};

/**
 * ExecutionListener that cuts the block/transfer stream into
 * PathRecords and hands them to a PathSink.
 */
class PathSplitter : public ExecutionListener
{
  public:
    PathSplitter(PathSink &sink, SplitterConfig config = {});

    void onBlock(const BasicBlock &block) override;
    void onTransfer(const TransferEvent &event) override;

    /** Emit any partial path as StreamEnd (call once, at the end). */
    void flush();

    /** Blocks executed while no path was being collected. */
    std::uint64_t unattributedBlocks() const { return orphanBlocks; }

  private:
    void beginPath(BlockId head, bool synthetic);
    void endPath(PathEndReason reason);

    PathSink &sink;
    SplitterConfig cfg;

    PathRecord current;
    bool inPath = false;
    bool pendingStart = false;
    bool pendingSynthetic = false;
    BlockId pendingHead = kInvalidBlock;
    std::uint32_t callDepth = 0;
    bool sawCall = false;
    std::uint64_t orphanBlocks = 0;
    bool firstBlock = true;
};

} // namespace hotpath

#endif // HOTPATH_PATHS_SPLITTER_HH
