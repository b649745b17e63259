/**
 * @file
 * The epoch-driven adaptive controller: self-tuning τ, overload
 * policy and placement hints under live traffic.
 *
 * The controller closes the loop the rest of the system leaves open:
 * the engine's prediction delay (τ), its overload response and the
 * cluster router's backend weights are all static configuration, but
 * the traffic they serve is not. Each call to step() is one *control
 * epoch*:
 *
 *   1. snapshot every resident session's counters (one forEach pass,
 *      sorted by session id);
 *   2. classify each session's epoch with the SessionClassifier;
 *   3. move misbehaving sessions one rung along the τ ladder (8, 64,
 *      1000; Engine::retuneSession) - Noisy traffic steps UP to a more
 *      conservative τ (stop promoting junk), PhaseShifting and
 *      HeadChurn traffic steps DOWN to a more reactive τ (re-learn
 *      the new hot paths quickly), Stable and Idle sessions hold;
 *   4. respond to queue pressure with hysteresis: engage forced
 *      load shedding (Engine::setForcedShedding) at 700 permille of
 *      the engine's queue capacity, release below 300;
 *   5. refresh the exported load hint (loadHintPermille) that a
 *      cluster router can feed to Router::setBackendWeights.
 *
 * Determinism contract: the controller is a pure function of its
 * constants (controller.cc, classifier.cc), the observed engine
 * counters and its own epoch counter. It reads no clock and draws no randomness, so a serial
 * replay of the same traffic with step() called at the same frame
 * boundaries reproduces the identical decision log and - because τ
 * retunes land between frames - the identical predictions,
 * bit-for-bit, at any worker count (tests/control_test.cc pins this;
 * bench/ext_adaptive_tau.cpp exercises it under the adversarial
 * workloads of src/progen/adversarial.hh).
 *
 * After a retune the controller deliberately forgets the session's
 * classifier history: the next epoch re-seeds the baseline under the
 * new τ and the epoch after that is the first to judge it - a
 * one-epoch settling time that keeps the ladder from oscillating on
 * its own transient.
 */

#ifndef HOTPATH_CONTROL_CONTROLLER_HH
#define HOTPATH_CONTROL_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "control/classifier.hh"
#include "telemetry/stat.hh"

namespace hotpath
{

namespace engine
{
class Engine;
}

namespace control
{

/** One τ retune the controller committed. */
struct ControlDecision
{
    /** Epoch (step() call count, 1-based) that made the decision. */
    std::uint64_t epoch = 0;
    /** Session retuned. */
    std::uint64_t session = 0;
    /** The classification that triggered the move. */
    SessionClass cls = SessionClass::Stable;
    /** τ before the move. */
    std::uint64_t tauBefore = 0;
    /** τ after the move. */
    std::uint64_t tauAfter = 0;
};

/** Controller accounting snapshot. */
struct ControlStats
{
    /** Control epochs run (step() calls). */
    std::uint64_t epochs = 0;
    /** Retune decisions committed. */
    std::uint64_t decisions = 0;
    /** Sessions observed last epoch. */
    std::uint64_t sessionsObserved = 0;
    /** Classification tallies, indexed by SessionClass. */
    std::uint64_t classCounts[kSessionClassCount] = {};
    /** Times forced shedding was engaged. */
    std::uint64_t shedEngaged = 0;
    /** Times forced shedding was released. */
    std::uint64_t shedReleased = 0;
    /** True while forced shedding is active. */
    bool shedActive = false;
    /** Queue pressure observed last epoch (permille of capacity). */
    std::uint32_t lastPressurePermille = 0;
};

/**
 * The adaptive controller; see the file comment. Thread-safe: step()
 * and the read accessors serialize on an internal mutex, so an admin
 * thread can read stats while a pump thread drives epochs.
 */
class Controller
{
  public:
    /** Attach to `eng`; the engine must outlive the controller. */
    explicit Controller(engine::Engine &eng);

    /**
     * Run one control epoch against the engine's current queue
     * depths (reads Engine::stats() for the pressure signal and
     * Engine::queueCapacityFrames() for its denominator). For
     * deterministic replay and tests, prefer stepWithLoad() with an
     * explicit pressure value.
     */
    void step();

    /**
     * Run one control epoch with the queue-pressure signal supplied
     * by the caller (`pressure_permille` = max shard occupancy, in
     * permille of capacity). This is the deterministic entry point:
     * everything else the epoch reads comes from the session
     * counters, which serial replay reproduces exactly.
     */
    void stepWithLoad(std::uint32_t pressure_permille);

    /** Epochs run so far. */
    std::uint64_t epoch() const;

    /** The committed retune log (oldest first, capped). */
    std::vector<ControlDecision> decisions() const;

    /** Accounting snapshot. */
    ControlStats stats() const;

    /**
     * The load hint a cluster router should weight this backend at:
     * 1000 (nominal) normally, 500 while forced shedding is active -
     * an overloaded backend advertises half its ring share so the
     * consistent-hash router drains new sessions away from it
     * (Router::setBackendWeights).
     */
    std::uint32_t loadHintPermille() const;

    /**
     * Append the controller's state as flat `,"control_*":N` JSON
     * fragments - the hook body for net::Server::setStatsAugmenter,
     * which splices it into the admin /stats document.
     */
    void appendStats(std::ostream &os) const;

  private:
    /** Max shard queue occupancy right now, permille of capacity
     *  (reads Engine::stats()). */
    std::uint32_t measurePressure() const;

    engine::Engine &eng;

    mutable std::mutex mu;
    SessionClassifier classifier;
    std::vector<ControlDecision> log;
    /** Sessions per τ rung as of the last epoch (after its moves). */
    std::vector<std::uint64_t> rungOccupancy;

    /** Reused per epoch (cleared, not reallocated). */
    std::vector<SessionSample> scratchSamples;

    // Controller stats (read by stats(), written under `mu`). Each
    // also bumps the control.* instrument of its name
    // (telemetry/stat.hh); the instruments register eagerly, so every
    // one appears in reports before the first epoch.
    telemetry::CounterStat epochCount{"control.epochs"};
    telemetry::CounterStat decisionCount{"control.decisions"};
    /** Per SessionClass; mirrors into control.class.<name>. */
    telemetry::CounterStat classTallies[kSessionClassCount];
    telemetry::CounterStat shedEngagedCount{"control.shed.engaged"};
    telemetry::CounterStat shedReleasedCount{"control.shed.released"};
    telemetry::GaugeStat observedCount{"control.sessions.observed"};
    /** 1 while forced shedding is engaged. */
    telemetry::GaugeStat shedActive{"control.shed.active"};
    /** Permille of queue capacity, as of the last epoch. */
    telemetry::GaugeStat lastPressure{"control.queue.pressure"};
    /** control.retunes: a documented, registry-only alias of
     *  control.decisions (nullptr when telemetry is not attached). */
    telemetry::Counter *tmRetunes = nullptr;
};

} // namespace control
} // namespace hotpath

#endif // HOTPATH_CONTROL_CONTROLLER_HH
