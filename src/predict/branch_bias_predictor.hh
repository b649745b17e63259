/**
 * @file
 * Boa-style branch-bias path construction (paper Section 7).
 *
 * The Boa binary translator forms hot paths by profiling every
 * branch and, once a hot group entry is found, statically following
 * the most likely successor of each branch. The paper's critique,
 * which experiment X4 measures: per-branch frequencies ignore branch
 * correlation, so the constructed path can be one that never executes
 * as a whole - and the scheme pays a profiling operation on *every*
 * branch, where NET touches only path heads.
 *
 * BranchBiasTraceBuilder mirrors NetTraceBuilder's interface: head
 * counters arm on backward-branch targets, but instead of collecting
 * the next executing tail it walks the CFG from the hot head,
 * choosing at every branch the successor with the highest observed
 * edge count.
 */

#ifndef HOTPATH_PREDICT_BRANCH_BIAS_PREDICTOR_HH
#define HOTPATH_PREDICT_BRANCH_BIAS_PREDICTOR_HH

#include <unordered_set>

#include "cfg/program.hh"
#include "predict/net_trace_builder.hh"
#include "profile/edge_profile.hh"

namespace hotpath
{

/** Configuration for the branch-bias builder. */
struct BranchBiasConfig
{
    /** Head executions before the head is considered hot. */
    std::uint64_t hotThreshold = 50;
    /** Safety cap on constructed trace length in blocks. */
    std::uint32_t maxBlocks = 256;
};

/** Constructs hot paths from per-branch frequencies (Boa-style). */
class BranchBiasTraceBuilder : public ExecutionListener
{
  public:
    /** Build against `program` and `sink`; both must outlive the
     *  builder. */
    BranchBiasTraceBuilder(const Program &program, NetTraceSink &sink,
                           BranchBiasConfig config = {});

    /** Profile every branch edge and count backward-branch heads. */
    void onTransfer(const TransferEvent &event) override;

    /** Heads with live counters plus edge counters: counter space. */
    std::size_t
    countersAllocated() const
    {
        return headCounters.size() + edges.countersAllocated();
    }

    /** Profiling operations paid so far (per-branch updates). */
    const ProfilingCost &cost() const { return opCost; }

  private:
    /** Walk the CFG from `head` along the likeliest successors. */
    NetTrace construct(BlockId head) const;

    const Program &prog;
    NetTraceSink &sink;
    BranchBiasConfig cfg;
    EdgeProfiler edges;
    CounterTable headCounters;
    std::unordered_set<BlockId> ownedHeads;
    ProfilingCost opCost;
};

} // namespace hotpath

#endif // HOTPATH_PREDICT_BRANCH_BIAS_PREDICTOR_HH
