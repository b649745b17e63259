/**
 * @file
 * Streaming per-session workload classification for the adaptive
 * control plane.
 *
 * The classifier consumes one SessionSample per session per control
 * epoch - the cumulative counters the engine already maintains
 * (events, cached events, predictions, live head counters) - and
 * reduces each epoch's deltas to a handful of integer signals:
 *
 *  - coverage:  1000 * dCached / dEvents (permille of events served
 *    from the fragment cache - the quantity the controller's hit-rate
 *    gates are written against);
 *  - velocity:  1000 * dPredictions / dEvents (predictions per
 *    kilo-event; a session churning junk inserts predicts orders of
 *    magnitude more often than a converged one);
 *  - churn:     1000 * counter growth / dEvents (new head counters
 *    per kilo-event; a migrating working set allocates heads
 *    continuously, a stable one stops);
 *  - spread:    max - min coverage over a sliding window of epochs
 *    (a phase-thrashing session oscillates even when its mean looks
 *    healthy).
 *
 * All signals are integer arithmetic on integer counters, so two
 * replays of the same observation sequence classify identically on
 * any platform - the property the controller's determinism contract
 * (docs/EXPERIMENTS.md X13) inherits.
 *
 * Classification is a fixed-priority rule chain, not a learned
 * model, on purpose: the paper's thesis is that a small amount of
 * cheap profiling beats elaborate machinery, and the control plane
 * follows suit. Priority: Idle (too few events to judge), HeadChurn
 * (counter growth), Noisy (high prediction velocity),
 * PhaseShifting (collapsed or oscillating coverage), else Stable.
 */

#ifndef HOTPATH_CONTROL_CLASSIFIER_HH
#define HOTPATH_CONTROL_CLASSIFIER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

/** The adaptive control plane: session classification and the
 *  epoch-driven controller that retunes the serving engine. */
namespace hotpath::control
{

/** What a session's last epoch looked like. */
enum class SessionClass : std::uint8_t
{
    /** Too few events this epoch to classify; hold everything. */
    Idle,
    /** Converged: high coverage, quiet predictor. */
    Stable,
    /** Predicting junk: high prediction velocity with low coverage
     *  (tail-heavy traffic churning the fragment cache). */
    Noisy,
    /** Coverage collapsed or oscillating without counter churn: the
     *  dominant paths keep changing under a stable head set. */
    PhaseShifting,
    /** The head working set itself is migrating: new head counters
     *  allocated every epoch. */
    HeadChurn,
};

/** Number of SessionClass values (telemetry/report array size). */
constexpr std::size_t kSessionClassCount = 5;

/** Short stable name of a class ("idle", "stable", "noisy",
 *  "phase", "churn") - used in reports, decision logs and
 *  control.class.* instrument names. */
const char *sessionClassName(SessionClass cls);

/** One session's cumulative counters as observed at an epoch
 *  boundary (Engine::withSessionStats provides every field). */
struct SessionSample
{
    /** Session identity. */
    std::uint64_t session = 0;
    /** Lifetime events processed. */
    std::uint64_t events = 0;
    /** Lifetime events served from the fragment cache. */
    std::uint64_t cached = 0;
    /** Lifetime predictions. */
    std::uint64_t predictions = 0;
    /** Live head counters (a level, not a cumulative count). */
    std::uint64_t counters = 0;
    /** The session's current prediction delay (τ). */
    std::uint64_t predictionDelay = 0;
};

/** The derived per-epoch signals (returned for logs and tests). */
struct SessionSignals
{
    /** Events this epoch. */
    std::uint64_t events = 0;
    /** Cache coverage this epoch, permille. */
    std::uint32_t coveragePermille = 0;
    /** Predictions per kilo-event this epoch. */
    std::uint32_t velocityPerKiloEvent = 0;
    /** New head counters per kilo-event this epoch. */
    std::uint32_t churnPerKiloEvent = 0;
    /** Windowed coverage spread (max - min), permille. */
    std::uint32_t spreadPermille = 0;
};

/**
 * Per-session streaming classifier; see the file comment. Its
 * thresholds are constants in classifier.cc. Not thread-safe - the
 * controller serializes access.
 */
class SessionClassifier
{
  public:
    /**
     * Feed one epoch-boundary observation for `sample.session` and
     * classify the epoch it closes. The first observation of a
     * session only seeds its baseline and returns Idle (there is no
     * delta to judge yet). `signals_out`, when non-null, receives
     * the derived signals the verdict was based on.
     */
    SessionClass observe(const SessionSample &sample,
                         SessionSignals *signals_out = nullptr);

    /** Drop a session's history (evicted session, or a controller
     *  retune that wants the next epoch to re-seed cleanly). */
    void forget(std::uint64_t session);

    /** Sessions currently tracked. */
    std::size_t tracked() const { return states.size(); }

  private:
    struct State
    {
        SessionSample prev;
        /** Coverage window (ring buffer of recent epochs). */
        std::vector<std::uint32_t> window;
        std::size_t windowNext = 0;
    };

    /** Ordered map so iteration (and forget-then-reseed behaviour)
     *  is deterministic across runs. */
    std::map<std::uint64_t, State> states;
};

} // namespace hotpath::control

#endif // HOTPATH_CONTROL_CLASSIFIER_HH
