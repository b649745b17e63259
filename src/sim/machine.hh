/**
 * @file
 * The execution machine: runs a Program under a BehaviorModel and
 * streams block/transfer events to registered listeners.
 *
 * This plays the role of the emulator in Dynamo (or of the traced
 * native execution in an instrumentation system): the rest of the
 * library only ever sees the event stream, never the "real" program.
 */

#ifndef HOTPATH_SIM_MACHINE_HH
#define HOTPATH_SIM_MACHINE_HH

#include <vector>

#include "sim/behavior.hh"
#include "sim/dispatch.hh"
#include "sim/event.hh"
#include "support/random.hh"

namespace hotpath
{

namespace telemetry
{
class Counter;
class Gauge;
} // namespace telemetry

/** Configuration for a Machine run. */
struct MachineConfig
{
    /** RNG seed; identical seeds replay identical executions. */
    std::uint64_t seed = 1;

    /**
     * When the entry procedure returns, restart it from its entry
     * block (simulating a driver loop) instead of stopping.
     */
    bool restartOnExit = true;

    /** Safety cap on call-stack depth. */
    std::size_t maxCallDepth = 4096;
};

/** Executes a Program, driving listeners with the event stream. */
class Machine
{
  public:
    Machine(const Program &program, const BehaviorModel &behavior,
            MachineConfig config = {});

    /** Attach a listener; not owned. */
    void addListener(ExecutionListener *listener);

    /**
     * Install the fragment dispatch hook (not owned; nullptr
     * uninstalls). At most one hook may be active: it owns the
     * interpret-vs-fragment decision for every block. Listeners see
     * a byte-identical event stream with or without a hook - see
     * sim/dispatch.hh for the contract.
     */
    void setDispatchHook(DispatchHook *hook);

    /**
     * Execute until `max_blocks` more blocks have run (or the program
     * exits with restartOnExit=false). Returns blocks executed.
     */
    std::uint64_t run(std::uint64_t max_blocks);

    /** Total blocks executed across all run() calls. */
    std::uint64_t blocksExecuted() const { return blockCount; }

    /** Total instructions executed across all run() calls. */
    std::uint64_t instructionsExecuted() const { return instrCount; }

    /** Number of completed program runs (entry-proc returns). */
    std::uint64_t programRuns() const { return runCount; }

  private:
    /** Blocks buffered between listener dispatches. */
    static constexpr std::size_t kBatchBlocks = 256;

    /** Pick the dynamic successor of `block`; kInvalidBlock = exit. */
    BlockId step(const BasicBlock &block, ExecutionRecord &record);

    /** Deliver the buffered records to every listener. */
    void flushBatch();

    /** Active phase, advanced as blockCount crosses boundaries. */
    std::size_t currentPhase();

    const Program &prog;
    const BehaviorModel &model;
    MachineConfig cfg;
    Rng rng;

    BlockId current;
    std::vector<BlockId> callStack;
    std::vector<ExecutionListener *> listeners;
    DispatchHook *hook = nullptr;
    // Fragment-follow cursor; persists across run() calls so a
    // max_blocks boundary never splits a fragment's accounting.
    const StitchedFragment *following = nullptr;
    std::size_t followPosition = 0;
    std::vector<ExecutionRecord> batch;
    std::uint64_t blockCount = 0;
    std::uint64_t instrCount = 0;
    std::uint64_t runCount = 0;
    std::size_t depthHighWater = 0;
    bool finished = false;

    // Incremental phase cursor; replaces a per-block schedule scan.
    std::size_t phaseIndex = 0;
    std::uint64_t phaseEnd = 0;
    bool phaseCursorValid = false;

    // Telemetry handles; nullptr when no registry was attached at
    // construction time (the common, uninstrumented case).
    telemetry::Counter *tmBlocks = nullptr;
    telemetry::Counter *tmInstructions = nullptr;
    telemetry::Counter *tmRuns = nullptr;
    telemetry::Gauge *tmCallDepthHwm = nullptr;
};

} // namespace hotpath

#endif // HOTPATH_SIM_MACHINE_HH
