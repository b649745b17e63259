/**
 * @file
 * Calibrated workload synthesis.
 *
 * A CalibratedWorkload is our substitute for one of the paper's
 * benchmark executions: an integer path-frequency distribution plus a
 * path-to-head assignment constructed to hit the published Table 1
 * and Table 2 statistics exactly:
 *
 *  - the number of distinct dynamic paths,
 *  - the size of the 0.1% HotPath set and the flow it captures,
 *  - the number of unique path heads,
 *
 * at a configurable fraction of the paper's total flow (replaying
 * billions of path executions is pointless; every metric in Sections
 * 3 and 5 is a rate). The hot tier is a geometric ladder ending just
 * above the hot threshold; the cold tier is a Zipf-skewed tail; the
 * event stream interleaves paths in bursts (loops execute in runs)
 * using an exact without-replacement draw, so the materialized stream
 * contains precisely freq(p) executions of every path p.
 */

#ifndef HOTPATH_WORKLOAD_SYNTHESIS_HH
#define HOTPATH_WORKLOAD_SYNTHESIS_HH

#include <array>
#include <vector>

#include "paths/path_event.hh"
#include "support/function_ref.hh"
#include "support/random.hh"
#include "workload/spec_profile.hh"

namespace hotpath
{

/** Workload synthesis parameters. */
struct WorkloadConfig
{
    /** Fraction of the paper's flow to replay (1e-3 = millions). */
    double flowScale = 1e-3;

    /** Hot threshold as a fraction of flow (paper: 0.001). */
    double hotFraction = kPaperHotFraction;

    /** Seed for the distribution shaping and the stream order. */
    std::uint64_t seed = 42;

    /** Mean consecutive executions of the same path (loop bursts). */
    double meanRunLength = 4.0;

    /**
     * Grow the flow beyond flowScale if needed to keep the tiers
     * feasible (every dynamic path must execute at least once).
     */
    bool autoRescale = true;
};

/** One benchmark's synthesized path population and stream factory. */
class CalibratedWorkload
{
  public:
    CalibratedWorkload(const SpecTarget &target, WorkloadConfig config);

    const SpecTarget &target() const { return spec; }
    const WorkloadConfig &config() const { return cfg; }

    /** Total path executions in the synthesized run. */
    std::uint64_t totalFlow() const { return flow; }

    /** Hot threshold in executions: hot iff freq > this. */
    std::uint64_t hotThreshold() const { return threshold; }

    std::size_t numPaths() const { return freq.size(); }
    std::size_t numHeads() const { return headCount; }

    /** Paths 0..hotPaths-1 are the hot tier, descending frequency. */
    std::size_t numHotPaths() const { return spec.hotPaths; }

    std::uint64_t frequency(PathIndex path) const { return freq[path]; }
    HeadIndex headOf(PathIndex path) const { return head[path]; }
    std::uint32_t blocksOf(PathIndex path) const { return blocks[path]; }

    std::uint32_t
    instructionsOf(PathIndex path) const
    {
        return instructions[path];
    }

    /** Flow of the constructed hot tier. */
    std::uint64_t hotFlow() const;

    /** The fully populated event for one execution of `path`. */
    PathEvent eventFor(PathIndex path) const;

    /**
     * Materialize the full event stream: exactly frequency(p)
     * executions of each path, interleaved in bursts. `salt` varies
     * the order without changing the distribution.
     */
    std::vector<PathEvent> materializeStream(std::uint64_t salt = 0) const;

    /**
     * Stream the same events through a callback without materializing
     * (the Dynamo benches replay tens of millions of events).
     * Callback signature: void(const PathEvent &, std::uint64_t time).
     */
    template <typename Fn>
    void
    generateStream(std::uint64_t salt, Fn &&fn) const
    {
        std::uint64_t time = 0;
        generateRuns(salt,
                     [&](PathIndex path, std::uint64_t run) {
                         const PathEvent event = eventFor(path);
                         for (std::uint64_t k = 0; k < run; ++k)
                             fn(event, time++);
                     });
    }

  private:
    /** Draw (path, run-length) bursts without replacement. */
    void generateRuns(
        std::uint64_t salt,
        support::FunctionRef<void(PathIndex, std::uint64_t)> emit) const;

    void buildFrequencies();
    void assignHeads();
    void assignShapes();

    SpecTarget spec;
    WorkloadConfig cfg;
    std::uint64_t flow = 0;
    std::uint64_t threshold = 0;
    std::size_t headCount = 0;
    std::vector<std::uint64_t> freq;
    std::vector<HeadIndex> head;
    std::vector<std::uint32_t> blocks;
    std::vector<std::uint32_t> instructions;
};

/**
 * Integer distribution helpers (exposed for the property tests).
 * Both return vectors whose elements satisfy the stated bounds and
 * sum exactly to `sum`; they panic on infeasible inputs.
 */
std::vector<std::uint64_t> buildGeometricTier(std::size_t n,
                                              std::uint64_t sum,
                                              std::uint64_t min_freq);
std::vector<std::uint64_t> buildZipfTier(std::size_t n,
                                         std::uint64_t sum,
                                         std::uint64_t max_freq,
                                         double skew = 1.1);

/**
 * The stream draw's two kernels (exposed for the property tests).
 *
 * PrefixCountTree holds the executions each path has left. Its leaves
 * are the per-path counts and each upper level holds the sums of
 * kFanOut consecutive nodes of the level below, every level padded
 * with zeros to whole groups, so a draw scans at most kFanOut
 * contiguous sums per level: six 64-byte scans for ijpeg's 62,125
 * paths, where a binary Fenwick walk makes 16 dependent scattered
 * loads.
 */
class PrefixCountTree
{
  public:
    static constexpr std::size_t kFanOut = 8;

    explicit PrefixCountTree(const std::vector<std::uint64_t> &counts);

    /** The count left at `leaf`. */
    std::uint64_t count(std::size_t leaf) const { return nodes[leaf]; }

    /** Take `amount` (at most count(leaf)) from `leaf`. */
    void subtract(std::size_t leaf, std::uint64_t amount);

    /**
     * The leaf i with S(i) <= target < S(i+1), where S(i) sums the
     * counts of leaves 0..i-1; a leaf at zero is never returned. The
     * target must be below the sum of all counts.
     */
    std::size_t findPrefix(std::uint64_t target) const;

  private:
    /** Every level, leaves first. */
    std::vector<std::uint64_t> nodes;
    /** Offset of each level in `nodes`, leaves (0) first. */
    std::vector<std::size_t> levelStart;
};

/**
 * Geometric burst lengths with a given mean: a uniform u in [0, 1)
 * maps to 1 + floor(log1p(-u) / log_keep), log_keep = log1p(-1/mean).
 * That run is 1 + the number of bounds b_k = -expm1((k+1) log_keep)
 * at or below u, so the per-draw log1p is needed only for u within
 * kGuard of a bound, where the formula's rounding could decide, or
 * past the last bound. Every length equals the formula's bit for bit.
 */
class BurstLength
{
  public:
    static constexpr std::size_t kBounds = 32;
    static constexpr double kGuard = 1e-9;

    explicit BurstLength(double mean_run_length);

    /** True when every burst is one long (mean <= 1): draw no u. */
    bool fixed() const { return isFixed; }

    /** The burst length for `u`. */
    std::uint64_t fromUniform(double u) const;

  private:
    bool isFixed;
    double logKeep;
    std::array<double, kBounds> bounds{};
};

} // namespace hotpath

#endif // HOTPATH_WORKLOAD_SYNTHESIS_HH
