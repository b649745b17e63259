#include "progen/generator.hh"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfg/builder.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace hotpath
{

namespace
{

/** A branch whose behaviour must be configured after the build. */
struct Intent
{
    enum class Kind
    {
        Dominant, // biased diamond: flips in alternate phases
        Balanced, // 50/50 diamond: phase-invariant
        Latch,    // loop back edge: trip count
        Driver,   // main's outer loop
        Indirect, // switch weights
    };

    std::string label; // qualified "proc/label"
    Kind kind = Kind::Dominant;
    double prob = 0.5;
    std::vector<double> weights;
};

/**
 * Emits the blocks of one procedure.
 *
 * Blocks whose successor is not yet known when they are conceptually
 * created ("open" blocks: loop heads, diamond joins, loop exits) are
 * only recorded here and declared to the builder the moment their
 * fallthrough target becomes known. Declaration order is layout order
 * and layout order defines which edges are backward, so the
 * bookkeeping preserves the intended loop structure: a head is always
 * declared before its body, a latch after it.
 */
class ProcEmitter
{
  public:
    ProcEmitter(ProcedureBuilder &proc, const ProgenConfig &cfg,
                Rng &rng, std::vector<Intent> &intents,
                std::size_t proc_index, std::size_t total_procs)
        : proc(proc), cfg(cfg), rng(rng), intents(intents),
          procIndex(proc_index), totalProcs(total_procs)
    {}

    /** Emit a full loop-nest body from "entry" to a return block. */
    void
    emitBody()
    {
        open("entry");
        std::string cursor = "entry";
        for (std::size_t l = 0; l < cfg.loopsPerProc; ++l)
            cursor = emitLoop(cursor, l * 64, cfg.nestDepth);
        resolve(cursor, "ret");
        proc.block("ret", instrs()).ret();
    }

    /** Emit main's driver loop calling fn0..fn{n-1} each iteration. */
    void
    emitDriver()
    {
        HOTPATH_ASSERT(totalProcs >= 1, "driver needs callees");
        open("entry");
        resolve("entry", "dh");
        open("dh");
        resolve("dh", "c0");
        for (std::size_t i = 0; i < totalProcs; ++i) {
            // Each call block continues directly at the next one; the
            // last continues at the latch.
            std::string call_block = "c";
            call_block += std::to_string(i);
            std::string after = "dlatch";
            if (i + 1 < totalProcs) {
                after = "c";
                after += std::to_string(i + 1);
            }
            proc.block(call_block, instrs())
                .call("fn" + std::to_string(i), after);
        }
        proc.block("dlatch", instrs()).cond("dh", "dexit");
        Intent intent;
        intent.label = qualified("dlatch");
        intent.kind = Intent::Kind::Driver;
        intent.prob = cfg.driverContinueProb;
        intents.push_back(intent);

        proc.block("dexit", instrs()).fallthrough("ret");
        proc.block("ret", instrs()).ret();
    }

  private:
    std::uint32_t
    instrs()
    {
        return static_cast<std::uint32_t>(rng.nextInRange(
            cfg.minInstrPerBlock, cfg.maxInstrPerBlock));
    }

    std::string
    qualified(const std::string &label) const
    {
        return proc.name() + "/" + label;
    }

    /** Record a block to be declared once its target is known. */
    void
    open(const std::string &label)
    {
        HOTPATH_ASSERT(!openBlocks.count(label),
                       "block opened twice: ", label);
        openBlocks.emplace(label, instrs());
    }

    /** Declare an open block with a fallthrough to `target`. */
    void
    resolve(const std::string &label, const std::string &target)
    {
        const auto it = openBlocks.find(label);
        HOTPATH_ASSERT(it != openBlocks.end(),
                       "resolving a block that is not open: ", label);
        proc.block(label, it->second).fallthrough(target);
        openBlocks.erase(it);
    }

    std::string
    emitLoop(const std::string &come_from, std::size_t index,
             std::size_t depth)
    {
        std::string tag = "l";
        tag += std::to_string(index);
        tag += 'd';
        tag += std::to_string(depth);
        const std::string head = tag + "_head";
        resolve(come_from, head);
        open(head);

        std::string cursor = head;
        for (std::size_t d = 0; d < cfg.diamondsPerBody; ++d) {
            cursor = emitDiamond(cursor, tag, d);
            if (d == cfg.diamondsPerBody / 2) {
                if (depth > 1) {
                    cursor =
                        emitLoop(cursor, index + d + 1, depth - 1);
                }
                if (rng.nextBool(cfg.callDensity) &&
                    procIndex + 1 < totalProcs) {
                    cursor = emitCall(cursor, tag, d);
                }
            }
        }

        const std::string latch = tag + "_latch";
        const std::string exit = tag + "_exit";
        resolve(cursor, latch);
        proc.block(latch, instrs()).cond(head, exit);
        Intent intent;
        intent.label = qualified(latch);
        intent.kind = Intent::Kind::Latch;
        intent.prob = cfg.loopContinueProb;
        intents.push_back(intent);

        open(exit);
        return exit;
    }

    std::string
    emitDiamond(const std::string &come_from, const std::string &tag,
                std::size_t index)
    {
        const std::string base = tag + "_d" + std::to_string(index);
        const std::string split = base + "_s";
        const std::string join = base + "_j";
        resolve(come_from, split);

        if (rng.nextBool(cfg.indirectDensity) &&
            cfg.indirectFanout >= 2) {
            std::vector<std::string> targets;
            for (std::size_t t = 0; t < cfg.indirectFanout; ++t)
                targets.push_back(base + "_c" + std::to_string(t));
            proc.block(split, instrs()).indirect(targets);
            for (const std::string &target : targets)
                proc.block(target, instrs()).jump(join);

            Intent intent;
            intent.label = qualified(split);
            intent.kind = Intent::Kind::Indirect;
            intent.weights = zipfWeights(cfg.indirectFanout, 1.2);
            intents.push_back(intent);
        } else {
            proc.block(split, instrs()).cond(base + "_a", base + "_b");
            proc.block(base + "_a", instrs()).jump(join);
            proc.block(base + "_b", instrs()).fallthrough(join);

            Intent intent;
            intent.label = qualified(split);
            if (rng.nextBool(cfg.balancedFraction)) {
                intent.kind = Intent::Kind::Balanced;
                intent.prob = 0.5;
            } else {
                intent.kind = Intent::Kind::Dominant;
                intent.prob = cfg.dominantTakenProb;
            }
            intents.push_back(intent);
        }

        open(join);
        return join;
    }

    std::string
    emitCall(const std::string &come_from, const std::string &tag,
             std::size_t index)
    {
        const std::string call_block =
            tag + "_call" + std::to_string(index);
        const std::string after =
            tag + "_after" + std::to_string(index);
        resolve(come_from, call_block);

        const std::size_t callee = static_cast<std::size_t>(
            rng.nextInRange(static_cast<std::int64_t>(procIndex + 1),
                            static_cast<std::int64_t>(totalProcs - 1)));
        proc.block(call_block, instrs())
            .call("fn" + std::to_string(callee), after);
        open(after);
        return after;
    }

    ProcedureBuilder &proc;
    const ProgenConfig &cfg;
    Rng &rng;
    std::vector<Intent> &intents;
    std::size_t procIndex;
    std::size_t totalProcs;
    std::unordered_map<std::string, std::uint32_t> openBlocks;
};

/** Build the program and collect the behaviour intents. */
std::unique_ptr<Program>
buildProgram(const ProgenConfig &cfg, std::vector<Intent> &intents)
{
    Rng rng(cfg.seed);
    ProgramBuilder builder;

    ProcedureBuilder &main = builder.proc("main");
    // Declare callees up front so call targets resolve.
    for (std::size_t i = 0; i < cfg.procedures; ++i)
        builder.proc("fn" + std::to_string(i));

    if (cfg.procedures == 0) {
        ProcEmitter emitter(main, cfg, rng, intents, 0, 1);
        emitter.emitBody();
    } else {
        ProcEmitter emitter(main, cfg, rng, intents, 0,
                            cfg.procedures);
        emitter.emitDriver();
        for (std::size_t i = 0; i < cfg.procedures; ++i) {
            ProcedureBuilder &proc =
                builder.proc("fn" + std::to_string(i));
            ProcEmitter body(proc, cfg, rng, intents, i,
                             cfg.procedures);
            body.emitBody();
        }
    }
    return std::make_unique<Program>(builder.build());
}

/** Translate intents into one behaviour phase. */
PhaseSpec
phaseFromIntents(const Program &program,
                 const std::vector<Intent> &intents, bool flipped,
                 std::uint64_t length_blocks)
{
    PhaseSpec spec;
    spec.lengthBlocks = length_blocks;
    for (const Intent &intent : intents) {
        const BlockId block = findBlock(program, intent.label);
        switch (intent.kind) {
          case Intent::Kind::Dominant:
            spec.takenProbability[block] =
                flipped ? 1.0 - intent.prob : intent.prob;
            break;
          case Intent::Kind::Balanced:
          case Intent::Kind::Latch:
          case Intent::Kind::Driver:
            spec.takenProbability[block] = intent.prob;
            break;
          case Intent::Kind::Indirect: {
            std::vector<double> weights = intent.weights;
            if (flipped)
                std::reverse(weights.begin(), weights.end());
            spec.indirectWeights[block] = std::move(weights);
            break;
          }
        }
    }
    return spec;
}

} // namespace

SyntheticProgram::SyntheticProgram(const ProgenConfig &config)
    : cfg(config)
{
    std::vector<Intent> intents;
    prog = buildProgram(cfg, intents);
    model = std::make_unique<BehaviorModel>(*prog);
    model->addPhase(phaseFromIntents(*prog, intents, false, 0));
    model->finalize();
}

PhasedSyntheticProgram::PhasedSyntheticProgram(
    const ProgenConfig &config, std::size_t phases,
    std::uint64_t phase_blocks)
    : cfg(config)
{
    HOTPATH_ASSERT(phases >= 1, "need at least one phase");
    std::vector<Intent> intents;
    prog = buildProgram(cfg, intents);
    model = std::make_unique<BehaviorModel>(*prog);
    for (std::size_t k = 0; k < phases; ++k) {
        const bool last = k + 1 == phases;
        model->addPhase(phaseFromIntents(
            *prog, intents, k % 2 == 1, last ? 0 : phase_blocks));
    }
    model->finalize();
}

} // namespace hotpath
