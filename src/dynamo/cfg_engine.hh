/**
 * @file
 * CFG-level Dynamo engine: the full system loop over real control
 * flow, executing through a managed code cache.
 *
 * Installed on a Machine as its DispatchHook, the engine owns the
 * interpret-vs-fragment decision for every block, exactly as Dynamo's
 * dispatcher does:
 *
 *  - fragment execution: when the dispatch block heads a resident
 *    fragment, the Machine executes the stitched block sequence from
 *    the code cache; blocks run as optimized code (the fragment's
 *    measured instruction ratio times native speed). Diverging from
 *    the stitched tail is a guard exit; running off the end is a
 *    completion. Either way control funnels through the fragment's
 *    exit stub, which is linked branch-to-fragment once its target
 *    head owns a fragment (CodeCache::recordExit).
 *  - interpretation: no fragment covers the block; it runs at
 *    interpreter speed and the embedded NET trace builder sees the
 *    events (cached execution is invisible to the profiler).
 *  - formation: when NET predicts a tail, the trace's IR (from the
 *    per-block assigner) is optimized by the TraceOptimizer and the
 *    stitched fragment enters the CodeCache with its measured ratio.
 *    Inserting may flush or evict under the configured CachePolicy;
 *    the eviction/flush cycle cost is accounted separately. An armed
 *    fault::Site::AllocFail plan abandons formations at the insert
 *    point (the work is charged, the fragment is dropped), modelling
 *    a cache arena that refuses the allocation.
 *
 * The byte-identity contract of sim/dispatch.hh applies: listeners
 * observe the same event stream with or without the engine installed,
 * for every CachePolicy and fault plan.
 */

#ifndef HOTPATH_DYNAMO_CFG_ENGINE_HH
#define HOTPATH_DYNAMO_CFG_ENGINE_HH

#include <memory>

#include "dynamo/code_cache.hh"
#include "dynamo/cost_config.hh"
#include "opt/ir_gen.hh"
#include "opt/trace_optimizer.hh"
#include "predict/net_trace_builder.hh"
#include "support/fault_injector.hh"

namespace hotpath
{

class Machine;

/** Configuration of the CFG-level engine. */
struct CfgEngineConfig
{
    /** NET hot threshold: executions before a head starts a trace. */
    std::uint64_t hotThreshold = 50;
    /** Maximum blocks recorded into one trace. */
    std::uint32_t maxTraceBlocks = 64;

    /** Cycle cost calibration (shared with the PathEvent model). */
    DynamoCostConfig costs;

    /** Code-cache geometry and eviction policy. */
    CodeCacheConfig cache;

    /** Fault schedule; Site::AllocFail abandons fragment insertion. */
    fault::FaultPlan faults;

    /** Run the trace optimizer over formed fragments. When false,
     *  fragments execute at native speed (layout only: the dispatch
     *  saving is the whole gain). */
    bool optimizeFragments = true;
    /** Pass pipeline configuration for the trace optimizer. */
    TraceOptimizerConfig optimizer;
    /** Per-block IR synthesis configuration. */
    IrGenConfig irGen;
};

/** Accounting of one CFG-level run. */
struct CfgEngineReport
{
    /** Blocks dispatched (interpreted plus fragment). */
    std::uint64_t blocksSeen = 0;
    /** Instructions across all dispatched blocks. */
    std::uint64_t instructionsSeen = 0;
    /** Blocks executed in the interpreter (profiled). */
    std::uint64_t interpretedBlocks = 0;
    /** Blocks executed from a cached fragment. */
    std::uint64_t fragmentBlocks = 0;
    /** Fragments formed over the run (across evictions). */
    std::uint64_t fragmentsFormed = 0;
    /** Fragment executions that ran the full stitched tail. */
    std::uint64_t fragmentCompletions = 0;
    /** Fragment executions that diverged mid-tail. */
    std::uint64_t guardExits = 0;
    /** Mean optimized/native instruction ratio across formations. */
    double meanOptimizationRatio = 1.0;

    /** Exits dispatched through a linked stub (no runtime). */
    std::uint64_t linkedExits = 0;
    /** Exits that paid the runtime round trip (stub unlinked, or the
     *  exit that patched it). */
    std::uint64_t unlinkedExits = 0;
    /** Stubs patched branch-to-fragment over the run. */
    std::uint64_t linksMade = 0;
    /** Linked stubs reverted by evictions and flushes. */
    std::uint64_t linksBroken = 0;
    /** Fragments evicted piecemeal or by generation drop. */
    std::uint64_t fragmentsEvicted = 0;
    /** Wholesale cache flushes (capacity, FlushAll policy). */
    std::uint64_t cacheFlushes = 0;
    /** Formations abandoned by an injected allocation failure. */
    std::uint64_t formationsAbandoned = 0;
    /** Fragments resident when the report was taken. */
    std::uint64_t residentFragments = 0;
    /** Arena bytes occupied when the report was taken. */
    std::uint64_t residentBytes = 0;

    /** Cycles the program would take running purely natively. */
    double nativeCycles = 0;
    /** Cycles spent emulating blocks in the interpreter. */
    double interpretCycles = 0;
    /** Cycles spent on NET trace-builder instrumentation. */
    double profilingCycles = 0;
    /** Cycles spent optimizing and installing fragments. */
    double formationCycles = 0;
    /** Cycles spent executing optimized fragment blocks. */
    double fragmentCycles = 0;
    /** Cycles spent dispatching fragment entries and exits. */
    double dispatchCycles = 0;
    /** Eviction and flush overhead (link repair, arena reclaim). */
    double cacheManagementCycles = 0;

    /** Total cycles the modelled Dynamo system spends. */
    double
    dynamoCycles() const
    {
        return interpretCycles + profilingCycles + formationCycles +
               fragmentCycles + dispatchCycles + cacheManagementCycles;
    }

    /** Speedup over native execution, in percent. */
    double
    speedupPercent() const
    {
        return dynamoCycles() <= 0.0
            ? 0.0
            : (nativeCycles / dynamoCycles() - 1.0) * 100.0;
    }
};

/** The engine; install on a Machine with attach(). */
class CfgDynamoEngine : public DispatchHook
{
  public:
    /** Build an engine for `program`; the program must outlive it. */
    CfgDynamoEngine(const Program &program, CfgEngineConfig config);

    /** Tears down the trace builder and its sink. */
    ~CfgDynamoEngine() override;

    /** Install this engine as `machine`'s dispatch hook. */
    void attach(Machine &machine);

    /** Dispatch decision: the resident fragment headed by `head`,
     *  or nullptr to interpret. Settles any pending exit first. */
    const StitchedFragment *enter(BlockId head) override;

    /** Charge one block executed from a fragment body. */
    void onFragmentBlock(const ExecutionRecord &record,
                         const StitchedFragment &fragment,
                         std::size_t position) override;

    /** Record a guard exit or completion; the stub's link state is
     *  resolved at the next enter(). */
    void onFragmentExit(const StitchedFragment &fragment,
                        std::size_t exit_position, BlockId target,
                        bool completed) override;

    /** Charge one interpreted block and feed the NET builder. */
    void onInterpretedBlock(const ExecutionRecord &record) override;

    /** Accounting snapshot (cache occupancy sampled now). */
    CfgEngineReport report() const;

    /** The managed code cache (link-graph inspection in tests). */
    const CodeCache &codeCache() const { return cache; }

  private:
    /** Sink receiving the NET builder's traces. */
    class Sink;

    void onTraceFormed(const NetTrace &trace);
    void chargeInsert(const InsertStats &insert);
    void syncProfilingCost();

    const Program &prog;
    CfgEngineConfig cfg;
    BlockIrAssigner irAssigner;
    TraceOptimizer optimizer;
    fault::FaultInjector faults;
    CodeCache cache;
    std::unique_ptr<Sink> sink;
    std::unique_ptr<NetTraceBuilder> builder;

    /** Ratio of the fragment being followed (set by enter()). */
    double activeRatio = 1.0;
    /** A fragment exit awaits its dispatch decision. */
    bool exitPending = false;
    /** Head key of the fragment that exit came from. */
    BlockId exitFrom = kInvalidBlock;
    std::uint64_t lastBuilderOps = 0;

    CfgEngineReport stats;
    double ratioSum = 0;
};

} // namespace hotpath

#endif // HOTPATH_DYNAMO_CFG_ENGINE_HH
