/**
 * @file
 * One client's prediction state inside the serving engine.
 *
 * A Session embeds the same components the in-process pipeline uses -
 * a NET predictor (head counters) and a fragment cache - so that
 * feeding a session the event stream of one client reproduces, event
 * for event, what an in-process Dynamo-style replay of that client
 * would do. That equivalence is the engine's determinism contract and
 * is asserted by tests/engine_test.cc.
 *
 * Sessions are single-threaded by construction: the engine routes all
 * frames of a session to one shard, and a shard is only ever drained
 * by one worker, so no locking lives here.
 */

#ifndef HOTPATH_ENGINE_SESSION_HH
#define HOTPATH_ENGINE_SESSION_HH

#include <cstdint>
#include <vector>

#include "dynamo/code_cache.hh"
#include "engine/wire_format.hh"
#include "predict/net_predictor.hh"

/** The streaming prediction engine: sessions, the sharded session
 *  table, and the worker/queue machinery that serves them. */
namespace hotpath::engine
{

/** Per-session predictor and cache parameters. */
struct SessionConfig
{
    /** NET prediction delay (head executions before a prediction). */
    std::uint64_t predictionDelay = 50;

    /** Per-session fragment cache capacity in instructions (0 = no
     *  cap). */
    std::uint64_t cacheCapacityInstr = 0;

    /** Cache policy when the capacity cap is hit: FlushAll or
     *  EvictLru (the two a session accepts). */
    CachePolicy cachePolicy = CachePolicy::EvictLru;

    /**
     * Keep the ordered log of predicted paths. The determinism tests
     * compare these logs across engine configurations; serving runs
     * leave it off to keep sessions small.
     */
    bool recordPredictions = false;

    /**
     * Decode errors (CRC/payload failures attributable to this
     * session) tolerated before the session is declared poisoned and
     * rebuilt from scratch. 0 disables the budget: errors are counted
     * but never poison.
     */
    std::uint64_t errorBudget = 0;

    /** Re-admission backoff after the first poisoning, measured in
     *  decoded frames dropped (doubles with each poisoning, up to
     *  2^10 times this base). */
    std::uint64_t backoffBaseFrames = 16;
};

/** Counters one session accumulates over its lifetime. */
struct SessionStats
{
    /** Frames applied to the predictor. */
    std::uint64_t framesApplied = 0;
    /** Events consumed across all applied frames. */
    std::uint64_t eventsProcessed = 0;
    /** Events answered from the fragment cache. */
    std::uint64_t cachedEvents = 0;
    /** Events that went through the profiler/predictor. */
    std::uint64_t interpretedEvents = 0;
    /** Predictions (hot-path promotions) made. */
    std::uint64_t predictions = 0;
    /** Frames whose sequence number skipped ahead (lost frames). */
    std::uint64_t sequenceGaps = 0;
    /** Decode errors attributed to this session identity. */
    std::uint64_t decodeErrors = 0;
};

/** One client's predictor, fragment cache and statistics. */
class Session
{
  public:
    /** Build a fresh session (empty predictor and cache). */
    Session(std::uint64_t id, const SessionConfig &config);

    /** The client identity this session serves. */
    std::uint64_t id() const { return sessionId; }

    /**
     * Process one path execution: cached paths short-circuit (they
     * run from the fragment cache and bypass profiling), everything
     * else feeds the NET predictor; a prediction inserts the path
     * into the session's cache. Returns true when this event
     * triggered a prediction.
     */
    bool consume(const PathEvent &event);

    /**
     * Apply one decoded frame in order: sequence-gap accounting, then
     * consume() for every event. The frame must belong to this
     * session. Returns the number of predictions it triggered. When
     * `predictions_out` is non-null, every prediction the frame
     * triggered is appended to it as a (head, path) record - the
     * serving layer encodes these back to the originating connection.
     */
    std::uint64_t
    apply(const wire::DecodedFrame &frame,
          std::vector<wire::PredictionRecord> *predictions_out =
              nullptr);

    /** Lifetime counters. */
    const SessionStats &stats() const { return st; }

    /** Ordered predicted paths (empty unless recordPredictions). */
    const std::vector<PathIndex> &predictions() const
    {
        return predictionLog;
    }

    /** Live head counters (the session's counter space). */
    std::size_t countersAllocated() const
    {
        return predictor.countersAllocated();
    }

    /** The session's current prediction delay (τ). */
    std::uint64_t predictionDelay() const
    {
        return cfg.predictionDelay;
    }

    /**
     * Retune the session's prediction delay online - the adaptive
     * control plane's per-session knob. Accumulated head counters are
     * kept (a head already past a smaller delay predicts on its next
     * execution); the caller must hold the session's shard serialization
     * (worker thread or cross-thread stripe lock).
     */
    void retune(std::uint64_t prediction_delay);

    // Error budget & re-admission backoff --------------------------

    /**
     * Record one decode error attributed to this session identity.
     * Returns true when the error budget (SessionConfig::errorBudget)
     * is now exhausted - the session is *poisoned* and the engine
     * rebuilds it (ShardedSessionTable::rebuildSessionLocked). Always
     * returns false when the budget is disabled (0).
     */
    bool noteDecodeError();

    /**
     * Start re-admission backoff on a freshly rebuilt session: the
     * next `frames` decoded frames for this identity are dropped
     * before the session accepts traffic again. `generation` is the
     * number of poisonings this identity has suffered, carried across
     * rebuilds so the backoff can grow exponentially.
     */
    void enterBackoff(std::uint64_t frames, std::uint32_t generation);

    /** True while re-admission backoff is still dropping frames. */
    bool inBackoff() const { return backoffLeft > 0; }

    /**
     * Consume one backoff slot for an arriving decoded frame.
     * Returns true when the frame must be dropped (backoff was
     * active); false once the session is (re)admitted.
     */
    bool consumeBackoffSlot();

    /** Number of times this session identity has been poisoned. */
    std::uint32_t generation() const { return poisonGeneration; }

    // Migration (wire-serializable predictor state) ----------------

    /**
     * Snapshot everything that influences this session's future
     * predictions into `out`: NET counters, retired heads, cached
     * fragments with exact LRU stamps, sequence tracking, and the
     * lifetime statistics. Entries are emitted sorted so the encoded
     * wire bytes are deterministic. The prediction log
     * (recordPredictions) and backoff state are deliberately not
     * exported - the log is a debugging artifact and backoff is local
     * damage control, neither affects what gets predicted next.
     */
    void exportState(wire::SessionState &out) const;

    /**
     * Rebuild this session from an exported snapshot. Must be called
     * on a fresh session (the engine installs a new Session and
     * imports into it); feeding the original event suffix afterwards
     * reproduces the exporter's predictions bit-identically.
     */
    void importState(const wire::SessionState &in);

  private:
    std::uint64_t sessionId;
    SessionConfig cfg;
    NetPredictor predictor;
    CodeCache fragments;
    SessionStats st;
    std::vector<PathIndex> predictionLog;
    bool sawFrame = false;
    std::uint64_t lastSequence = 0;
    std::uint64_t backoffLeft = 0;
    std::uint32_t poisonGeneration = 0;
};

} // namespace hotpath::engine

#endif // HOTPATH_ENGINE_SESSION_HH
