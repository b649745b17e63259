/**
 * @file
 * Phase-change detection by prediction-rate monitoring (paper
 * Section 6.1).
 *
 * Dynamo watches the rate of new-path predictions; a sudden, sharp
 * increase is a good indication that a new phase is being entered, so
 * the cache is flushed to shed the phase-induced noise (fragments
 * that were hot in the previous phase but have turned cold).
 *
 * The monitor buckets time into fixed event windows, maintains an
 * exponential moving average of predictions per window, and signals a
 * spike when the current window exceeds both an absolute floor and a
 * multiple of the average.
 */

#ifndef HOTPATH_DYNAMO_FLUSH_HH
#define HOTPATH_DYNAMO_FLUSH_HH

#include <cstdint>

namespace hotpath
{

/** Tunables for the prediction-rate spike detector. */
struct FlushHeuristicConfig
{
    /** Window length in path events. */
    std::uint64_t windowEvents = 4096;
    /** Spike = rate above `spikeFactor` times the moving average. */
    double spikeFactor = 4.0;
    /** ... and at least this many predictions in the window. */
    std::uint64_t spikeFloor = 8;
    /** EMA smoothing factor for the per-window prediction count. */
    double smoothing = 0.25;
    /** Windows to ignore after startup (cold-start predictions). */
    std::uint64_t warmupWindows = 4;
};

/** Sliding-window prediction-rate spike detector. */
class PredictionRateMonitor
{
  public:
    /** Build a monitor; asserts on degenerate configuration. */
    explicit PredictionRateMonitor(FlushHeuristicConfig config = {});

    /** Record one path event; returns true if a spike fired. */
    bool onEvent(bool was_prediction);

    /**
     * Restart after a flush: clears the current window and enters a
     * cooldown of warmupWindows windows during which neither spikes
     * fire nor the average is updated - the cache refill after a
     * flush is itself a prediction burst and must not re-trigger or
     * pollute the baseline.
     */
    void settle();

  private:
    FlushHeuristicConfig cfg;
    std::uint64_t eventsInWindow = 0;
    std::uint64_t predictionsInWindow = 0;
    std::uint64_t cooldownLeft;
    double average = 0.0;
};

/** Whether a degradation policy is currently shedding load. */
enum class DegradationMode
{
    /** Full service. */
    Normal,
    /** Overloaded: shed work until pressure subsides. */
    Degraded,
};

/**
 * Tunables for DegradationPolicy. Reuses FlushHeuristicConfig for
 * the windowing: "pressure per window spikes above a moving
 * average" is judged exactly like "predictions per window" in the
 * flush heuristic - the same phase-shift detector, pointed at
 * overload instead of at new-path rate.
 */
struct DegradationPolicyConfig
{
    /** Window length, spike threshold, EMA smoothing and warmup -
     *  interpreted over *pressure* signals instead of predictions. */
    FlushHeuristicConfig spike{};

    /** Pressure-free windows required before leaving degraded mode. */
    std::uint64_t degradedWindows = 4;
};

/**
 * Dynamo's flush-on-spike heuristic generalized into an overload
 * detector (paper Section 6.1; see PredictionRateMonitor). Feed it
 * one signal per unit of work (`pressure` = this unit met overload,
 * e.g. a full queue); it buckets signals into windows, tracks a
 * moving average of pressure per window, and switches to Degraded
 * when a window spikes above the average. Degraded mode persists
 * while pressure continues and decays back to Normal after
 * `degradedWindows` quiet windows, followed by a warmup cooldown so
 * the recovery burst cannot immediately re-trigger - the exact
 * settle() discipline the cache flush uses.
 *
 * The engine consults one policy per shard to decide when a
 * saturated queue may shed its oldest frame; src/dynamo keeps the
 * prediction-rate monitor for cache flushes. Both share this file so
 * the two degradation paths stay one heuristic.
 */
class DegradationPolicy
{
  public:
    /** Build a policy; asserts on degenerate configuration. */
    explicit DegradationPolicy(DegradationPolicyConfig config = {});

    /**
     * Record one unit of work; `pressure` marks it as having met
     * overload. Returns the mode in effect for the *next* unit.
     */
    DegradationMode onEvent(bool pressure);

    /** Current mode. */
    DegradationMode mode() const { return state; }

    /** Times the policy switched Normal -> Degraded. */
    std::uint64_t degradedEntries() const { return entries; }

  private:
    DegradationPolicyConfig cfg;
    std::uint64_t eventsInWindow = 0;
    std::uint64_t pressureInWindow = 0;
    std::uint64_t cooldownLeft;
    std::uint64_t degradedLeft = 0;
    std::uint64_t entries = 0;
    double average = 0.0;
    DegradationMode state = DegradationMode::Normal;
};

} // namespace hotpath

#endif // HOTPATH_DYNAMO_FLUSH_HH
