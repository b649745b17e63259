/**
 * @file
 * Trace recording and replay.
 *
 * A TraceLog captures the executed block sequence of a Machine run;
 * replay() re-derives the full transfer event stream from the Program
 * structure and drives listeners exactly as the live run did. This is
 * the "instruction trace" substitute for the paper's native program
 * runs: record once, replay into any number of profiling schemes.
 */

#ifndef HOTPATH_SIM_TRACE_LOG_HH
#define HOTPATH_SIM_TRACE_LOG_HH

#include <vector>

#include "sim/event.hh"

namespace hotpath
{

class Program;

/** Recorded block-granularity execution trace. */
class TraceLog : public ExecutionListener
{
  public:
    /** Record from a live Machine (attach via addListener). */
    void onBlock(const BasicBlock &block) override;

    /** Batched recording: one append loop per Machine batch. */
    void onBatch(const ExecutionRecord *records,
                 std::size_t count) override;

    /** Number of recorded block executions. */
    std::size_t size() const { return blocks.size(); }
    bool empty() const { return blocks.empty(); }

    const std::vector<BlockId> &sequence() const { return blocks; }

    /** Append a block id directly (for synthetic traces in tests). */
    void append(BlockId block) { blocks.push_back(block); }

    /** Drop all recorded blocks. */
    void clear() { blocks.clear(); }

    /**
     * Replay the trace against `program`, driving `listeners` with
     * the same onBlock/onTransfer/onProgramEnd stream a live run
     * produces. Panics if the trace is not a legal execution of the
     * program (used as a structural property check in tests).
     */
    void replay(const Program &program,
                const std::vector<ExecutionListener *> &listeners) const;

  private:
    std::vector<BlockId> blocks;
};

} // namespace hotpath

#endif // HOTPATH_SIM_TRACE_LOG_HH
