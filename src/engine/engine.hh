/**
 * @file
 * The streaming prediction engine: concurrent ingestion of wire-format
 * branch-event frames into per-session NET predictors.
 *
 * Data flow:
 *
 *   producers --submit(frame bytes)--> per-shard bounded rings
 *        --> worker threads: decode + CRC-check + Session::apply
 *
 * The ingest path only peeks the frame header (cheap varint reads) to
 * route the frame by session id. Every shard is owned by exactly one
 * worker, and a shard's queue is FIFO. When a frame arrives at a
 * shard with nothing queued or in progress, the submitting thread
 * claims the shard and decodes and predicts the frame itself, under
 * the shard's stripe lock, instead of paying a worker wake-up (unless
 * it declines, see trySubmitShared()); any other frame queues for the
 * owning worker. A claim only succeeds on
 * an idle shard, so an inline frame never overtakes a queued one and
 * frames of one session are processed in submission order - which is
 * what makes the engine's per-session predictions deterministic and
 * bit-identical to a serial in-process replay, regardless of worker
 * count or thread scheduling. (Callers that split one session's
 * frames across producer threads forfeit the submission order, and
 * with it the guarantee.)
 *
 * Scaling model (see docs/ARCHITECTURE.md "Threading and memory
 * model" for the full picture):
 *
 *  - Handoff is a bounded lock-free ring per shard
 *    (support/bounded_ring.hh): producers enqueue with one CAS, no
 *    mutex, and only touch a condition variable on the full-queue
 *    slow path. Workers batch-pop and only notify sleepers
 *    (batch-notify, Dekker-style sleeping flag + seq_cst fences,
 *    with short waits as a liveness backstop).
 *  - Session ownership is thread-affine per batch: the owning worker
 *    takes its shard's table stripe lock ONCE per drained batch
 *    (ShardedSessionTable::lockShard) and then reaches sessions with
 *    plain lookups; cross-thread operations (idle sweeps,
 *    export/import) still lock per call and interleave between
 *    batches. stats() reads atomics and takes no stripe lock.
 *  - Frames move without payload copies: submit() moves the caller's
 *    buffer, and submitShared() routes a frame as an offset/length
 *    slice of a caller-owned shared buffer (producers that pre-encode
 *    many frames into one buffer pay zero per-frame allocation).
 *  - Decode runs into per-thread reusable scratch (DecodedFrame,
 *    prediction records, state replies) - each worker's own, and one
 *    set per submitting thread for inline frames - so the
 *    steady-state frame path allocates nothing.
 *  - Inline runs never nest: engine workers, and completion callbacks
 *    of a frame that is itself running inline, always hand off. A
 *    closed loop whose callback submits the next frame therefore
 *    stays on the ring, and stack depth stays bounded.
 *
 * Backpressure: a full shard queue blocks submit() until the owning
 * worker drains room (counted in engine.backpressure.waits). This
 * bounds memory under overload instead of dropping or buffering
 * without limit. Under OverloadPolicy::DropOldest a saturated shard
 * that its spike detector judges degraded (or that forced shedding
 * covers) does not block: the producer pops the *oldest* queued frame
 * from the same ring, completes it unapplied on its own thread and
 * pushes its frame - so a stalled worker never stalls its producers.
 * Such a shard's frames never run inline: the spike detector counts
 * every submit.
 *
 * With workerThreads == 0 the engine runs in serial fallback mode,
 * the always-inline case of the same path: submit() decodes and
 * applies the frame on the caller's thread, with no queues and no
 * locks beyond the session table's. Concurrent submitters are safe;
 * a frame submitted from a completion callback runs after that
 * callback returns, on the same thread.
 *
 * Resilience: the engine degrades instead of dying. Corrupt frames
 * are quarantined (counted, skipped) rather than aborting the
 * session; a session that keeps producing decode errors exhausts its
 * error budget, is rebuilt from scratch and re-admitted after an
 * exponential backoff; a watchdog releases stalled workers; and
 * under sustained queue saturation a Dynamo-style spike detector
 * (DegradationPolicy, shared with the fragment-cache flush heuristic
 * in src/dynamo/flush.hh) switches a shard to drop-oldest load
 * shedding. Every such path is observable through
 * `engine.fault.*` / `engine.recovered.*` metrics and
 * EngineStats::fault. Faults themselves can be injected
 * deterministically via EngineConfig::faults
 * (support/fault_injector.hh) to exercise all of it in tests and the
 * ext_fault_resilience bench.
 */

#ifndef HOTPATH_ENGINE_ENGINE_HH
#define HOTPATH_ENGINE_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dynamo/flush.hh"
#include "engine/session_table.hh"
#include "engine/wire_format.hh"
#include "support/bounded_ring.hh"
#include "support/fault_injector.hh"
#include "telemetry/stat.hh"

namespace hotpath
{

namespace telemetry
{
class SpanRecorder;
} // namespace telemetry

namespace engine
{

/** What to do with new frames when a shard queue is saturated. */
enum class OverloadPolicy
{
    /** Block the producer until the worker drains room (default). */
    Block,
    /**
     * Normally block, but once the shard's DegradationPolicy judges
     * the saturation a sustained overload spike, shed the *oldest*
     * queued frame to admit the new one (freshest-data-wins), counted
     * in engine.recovered.shed.frames. The producer pops the shed
     * frame from the shard's ring itself and completes it unapplied
     * on its own thread, so it never waits on the worker. The shard's
     * producers serialize on a per-shard mutex that feeds the spike
     * detector, and its frames never run inline.
     */
    DropOldest,
};

/** Outcome of a nonblocking trySubmitShared(). */
enum class SubmitStatus
{
    /** Frame routed (or rejected-and-counted); ownership taken. */
    Accepted,
    /** Header did not parse; frame counted as rejected. */
    Rejected,
    /**
     * The target shard queue is saturated and the caller asked not
     * to block. The frame is untouched and uncounted - retry later.
     */
    Backpressure,
};

/**
 * What happened to one consumed frame, delivered to the completion
 * callback (EngineConfig-independent: install with
 * Engine::setFrameCallback). Every frame the engine takes ownership
 * of fires exactly one completion - including frames that fail the
 * full decode (bad CRC/payload), frames of non-PathEvents kinds and
 * frames shed under overload - so a caller that counts submissions
 * against completions (the net server's per-connection in-flight
 * ledger) always balances. `predictions` points at scratch owned by
 * the thread running the frame, only valid for the duration of the
 * callback.
 */
struct FrameOutcome
{
    /** Session the frame belonged to (0 when even the header was
     *  unreadable). */
    std::uint64_t session = 0;
    /** The frame's sequence number (0 when the header was
     *  unreadable). */
    std::uint64_t sequence = 0;
    /** Caller-supplied routing tag from submit()/trySubmitShared()
     *  (the net server stores the originating connection id here). */
    std::uint64_t tag = 0;
    /** Events the frame carried (0 unless it decoded). */
    std::uint32_t events = 0;
    /** False when the frame was consumed without being applied:
     *  decode failure, non-PathEvents kind, re-admission backoff,
     *  allocation failure or overload shedding. */
    bool applied = false;
    /** Predictions the frame triggered (callback-scoped storage). */
    const wire::PredictionRecord *predictions = nullptr;
    /** Number of records behind `predictions`. */
    std::size_t predictionCount = 0;
    /** True when this frame carries a sampled stage span: the engine
     *  timed its decode/queue-wait/predict stages, and the callback
     *  owner should time the encode and write-flush stages (the net
     *  server does). Always false for unsampled frames and for
     *  frames that failed the full decode. */
    bool spanSampled = false;
    /** For a SessionState export request: the fully encoded
     *  SessionState reply frame the callback owner must send back
     *  instead of a Predictions reply (scratch of the thread running
     *  the frame, only valid for the duration of the callback).
     *  nullptr for every other frame. */
    const std::vector<std::uint8_t> *stateReply = nullptr;
};

/**
 * Completion callback for consumed frames. Runs on the worker that
 * owns the frame's shard, or on the submitting thread when that
 * thread ran the frame inline (an idle shard it claimed, or serial
 * mode). Invocations for a session fed by one producer thread are
 * ordered; but a callback that submits its session's next frame may
 * still be running when that frame's own callback starts on a
 * worker. A frame shed under overload completes on the submitting
 * thread and may overtake its session's in-flight frames. The shard
 * stripe lock is released for the duration of each invocation, so
 * the callback may call back into the engine (stats, export, submit
 * - but not drain()); keep it cheap regardless - the shard's other
 * sessions wait behind it.
 */
using FrameCallback = std::function<void(const FrameOutcome &)>;

/** Engine parameters. */
struct EngineConfig
{
    /** Worker threads consuming the shard queues; 0 = serial mode
     *  (submit always processes frames inline). */
    std::size_t workerThreads = 4;

    /** Per-shard queue bound in frames; producers block (or, under
     *  OverloadPolicy::DropOldest, may shed) when full. Rounded up to
     *  a power of two under either policy. */
    std::size_t queueCapacityFrames = 256;

    /** Frames a worker drains from one shard per batch (also the
     *  span of one stripe-lock hold). */
    std::size_t maxBatchFrames = 64;

    /** Session table (shard count, capacity cap, session config). */
    SessionTableConfig sessions;

    /** Behaviour when a shard queue saturates. */
    OverloadPolicy overloadPolicy = OverloadPolicy::Block;

    /** Overload spike detector tuning (one policy per shard);
     *  only consulted under OverloadPolicy::DropOldest. */
    DegradationPolicyConfig degradation;

    /** Deterministic fault-injection plan; the default (nothing
     *  armed) creates no injector and adds no work to any path. */
    fault::FaultPlan faults;

    /**
     * Watchdog poll interval in milliseconds; 0 = no watchdog
     * thread. Auto-set to 10 ms when a WorkerStall fault is armed in
     * a threaded engine, so injected stalls are always released.
     */
    std::uint64_t watchdogIntervalMs = 0;

    /** How long an injected FrameDelay holds a frame, measured in
     *  subsequently submitted frames. */
    std::uint64_t delayWindowFrames = 8;

    /**
     * Sample every Nth submitted frame for pipeline stage spans
     * (queue-wait, decode, predict; see telemetry/span.hh); 0 = off.
     * Only for engines fed directly by producers - when a net::Server
     * fronts the engine, the server samples at the socket-read
     * boundary instead (Engine::setSpanRecorder) and this must stay 0.
     */
    std::uint64_t spanSampleEvery = 0;
};

/** Why a submitted frame was rejected. */
struct RejectBreakdown
{
    /** Frame shorter than its header/payload claims. */
    std::uint64_t truncated = 0;
    /** Missing 'H''F' frame magic. */
    std::uint64_t badMagic = 0;
    /** Unknown or unexpected frame kind. */
    std::uint64_t badKind = 0;
    /** count/payloadLen beyond the sanity caps. */
    std::uint64_t badLength = 0;
    /** CRC-32 mismatch (corruption in flight). */
    std::uint64_t badCrc = 0;
    /** Payload did not decode to the declared events. */
    std::uint64_t badPayload = 0;

    /** Sum of all reject reasons. */
    std::uint64_t
    total() const
    {
        return truncated + badMagic + badKind + badLength + badCrc +
               badPayload;
    }
};

/**
 * Fault and recovery accounting. The `injected*` counters say what
 * the fault plan did to the traffic; the rest say how the engine
 * absorbed it. Frame conservation holds at any quiescent point
 * (after drain()):
 *
 *   framesSubmitted == framesRejected + injectedDrops + shedFrames
 *                      + framesDecoded
 *   framesDecoded   == framesApplied + backoffDroppedFrames
 *                      + allocDroppedFrames
 *
 * so no frame is ever lost silently - every injected fault shows up
 * in exactly one recovery counter.
 */
struct FaultRecoveryStats
{
    /** Injected single-bit frame corruptions. */
    std::uint64_t injectedBitFlips = 0;
    /** Injected frame truncations. */
    std::uint64_t injectedTruncations = 0;
    /** Injected frame drops (simulated network loss). */
    std::uint64_t injectedDrops = 0;
    /** Injected frame delays (held + redelivered out of order). */
    std::uint64_t injectedDelays = 0;
    /** Injected worker stalls. */
    std::uint64_t injectedStalls = 0;
    /** Injected allocation failures (session creation refused). */
    std::uint64_t injectedAllocFails = 0;
    /** Distinct frames damaged by bit-flip and/or truncation. */
    std::uint64_t corruptFrames = 0;

    /** Corrupt frames quarantined (== framesRejected; every reject
     *  is a quarantine, never an abort). */
    std::uint64_t framesQuarantined = 0;
    /** Delayed frames redelivered (none remain held after drain). */
    std::uint64_t delayedDelivered = 0;
    /** Sessions that exhausted their error budget. */
    std::uint64_t sessionsPoisoned = 0;
    /** Poisoned sessions replaced with a fresh session. */
    std::uint64_t sessionsRebuilt = 0;
    /** Rebuilt sessions re-admitted after backoff expired. */
    std::uint64_t sessionsReadmitted = 0;
    /** Decoded frames dropped during re-admission backoff. */
    std::uint64_t backoffDroppedFrames = 0;
    /** Decoded frames dropped because session creation failed. */
    std::uint64_t allocDroppedFrames = 0;
    /** Frames shed (oldest-first) in degraded overload mode. */
    std::uint64_t shedFrames = 0;
    /** Times any shard entered degraded (load-shedding) mode. */
    std::uint64_t degradedEntries = 0;
    /** Workers parked by an injected stall. */
    std::uint64_t workersStalled = 0;
    /** Stalled workers released by the watchdog. */
    std::uint64_t workersUnstalled = 0;
    /** Watchdog observations of a silent worker with pending work. */
    std::uint64_t stallDetections = 0;
    /** Frames decoded AND applied to a session. */
    std::uint64_t framesApplied = 0;
};

/** Consistent snapshot of the engine's accounting. */
struct EngineStats
{
    /** Frames handed to submit(). */
    std::uint64_t framesSubmitted = 0;
    /** Frames that decoded cleanly. */
    std::uint64_t framesDecoded = 0;
    /** Frames rejected (sum of `rejects`). */
    std::uint64_t framesRejected = 0;
    /** Reject reasons. */
    RejectBreakdown rejects;

    /** Events consumed by sessions. */
    std::uint64_t eventsProcessed = 0;
    /** Predictions made across all sessions. */
    std::uint64_t predictions = 0;
    /** Worker batches popped from shard queues. */
    std::uint64_t batches = 0;
    /** Frames run to completion on the submitting thread instead of
     *  a worker: an idle shard claimed by its submitter, or every
     *  frame in serial mode. */
    std::uint64_t framesInline = 0;

    /** Sessions created by the table. */
    std::uint64_t sessionsCreated = 0;
    /** Sessions evicted by the LRU cap. */
    std::uint64_t sessionsEvicted = 0;
    /** Sessions retired by the idle sweep (evictIdleSessions). */
    std::uint64_t sessionsIdleEvicted = 0;
    /** Sessions currently resident. */
    std::size_t sessionsLive = 0;
    /** Session snapshots exported (API calls + export requests). */
    std::uint64_t sessionsExported = 0;
    /** Session snapshots imported (API calls + SessionState
     *  frames). */
    std::uint64_t sessionsImported = 0;

    /** Times submit() blocked on a full shard queue. */
    std::uint64_t backpressureWaits = 0;

    /** Fault-injection and recovery accounting. */
    FaultRecoveryStats fault;

    /** Per-shard queue high-water marks (frames). */
    std::vector<std::size_t> queueHighWater;

    /** Per-shard queue depth at snapshot time (frames). */
    std::vector<std::size_t> queueDepth;

    /** Per-shard producer blocks on a saturated queue (sums to
     *  `backpressureWaits`). */
    std::vector<std::uint64_t> queueBackpressureWaits;

    /** Per-worker nanoseconds spent processing frames (empty in
     *  serial mode; inline frames are not worker time). */
    std::vector<std::uint64_t> workerBusyNs;

    /** Per-worker nanoseconds spent parked waiting for work. */
    std::vector<std::uint64_t> workerIdleNs;
};

/** The serving engine; see file comment. */
class Engine
{
  public:
    /** Build the engine; spawns workers (and, when configured, the
     *  watchdog) immediately. */
    explicit Engine(EngineConfig config);

    /** Drains and stops the workers. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Ingest one encoded frame. The header is peeked to route the
     * frame; a frame whose header does not parse is rejected here
     * (returns false). Blocks while the target shard's queue is full.
     * Payload errors (bad CRC, bad payload) surface asynchronously in
     * stats().framesRejected. Must not be called during or after
     * shutdown(). `tag` is an opaque value carried to the completion
     * callback (see FrameOutcome::tag). The buffer is moved, never
     * copied.
     */
    bool submit(std::vector<std::uint8_t> frame,
                std::uint64_t tag = 0);

    /**
     * Ingest one frame as an [offset, offset+length) slice of a
     * shared caller buffer - the zero-copy producer path: the engine
     * never copies the payload, only refcounts the buffer, so a
     * producer that pre-encodes a whole session's frames into one
     * buffer pays no per-frame allocation at all. The slice must be
     * exactly one frame. The buffer must stay immutable while any
     * slice of it is in flight. Like trySubmitShared(), the
     * fault-injection preamble does not apply (it would have to mutate
     * the shared bytes); unlike trySubmitShared(), a full queue
     * blocks.
     */
    bool submitShared(
        std::shared_ptr<const std::vector<std::uint8_t>> buffer,
        std::size_t offset, std::size_t length,
        std::uint64_t tag = 0);

    /**
     * Nonblocking submitShared(): ingest one frame as an
     * [offset, offset+length) slice of a shared caller buffer, but
     * return SubmitStatus::Backpressure instead of blocking when the
     * target shard queue is saturated - the zero-copy ingest path for
     * event-loop callers (the net server submits socket read-buffer
     * slices through here). On Backpressure nothing is counted and
     * the caller's buffer reference is untouched - retry the same
     * slice later. The fault-injection preamble (drop/corrupt/delay)
     * is not applied - a network caller's faults happen on the
     * socket, not in the producer.
     *
     * `span_ns` != 0 marks the frame as span-sampled by the caller
     * and carries the caller's enqueue timestamp
     * (telemetry::monotonicNanos()): the engine records the frame's
     * queue-wait, decode and predict stages against the recorder
     * installed with setSpanRecorder(), and sets
     * FrameOutcome::spanSampled so the caller can time the reply
     * stages. Pass 0 (the default) for unsampled frames.
     *
     * `may_run_inline` = false hands the frame to its shard's worker
     * even when the shard is idle, so the call returns without
     * decoding it: for a caller with more input waiting, which must
     * not make that input wait behind this frame. (Serial mode runs
     * every frame on the caller regardless.)
     */
    SubmitStatus trySubmitShared(
        const std::shared_ptr<const std::vector<std::uint8_t>>
            &buffer,
        std::size_t offset, std::size_t length, std::uint64_t tag = 0,
        std::uint64_t span_ns = 0, bool may_run_inline = true);

    /**
     * Install (or clear, with nullptr) the stage-span recorder used
     * for span-sampled frames. The engine owns a recorder itself
     * when EngineConfig::spanSampleEvery != 0; a fronting net::Server
     * installs its own instead (it samples at the socket-read
     * boundary). Not thread-safe against in-flight traffic: install
     * before the first submit, clear only after a drain.
     */
    void setSpanRecorder(telemetry::SpanRecorder *recorder);

    /** The active span recorder (engine-owned or installed), or
     *  nullptr when stage spans are off. */
    const telemetry::SpanRecorder *spanRecorder() const
    {
        return spans;
    }

    /**
     * Install (or clear, with nullptr) the per-frame completion
     * callback. Not thread-safe against in-flight traffic: install
     * before the first submit. Enabling the callback also makes
     * workers collect the (head, path) prediction records each frame
     * triggers, which the callback receives.
     */
    void setFrameCallback(FrameCallback callback);

    /**
     * Retire sessions idle for more than `max_age` table activity
     * ticks (ShardedSessionTable::evictIdle). Safe to call
     * concurrently with traffic; a retired session that speaks again
     * is recreated from scratch, so callers should sweep with ages
     * well past their clients' silence threshold.
     */
    std::size_t evictIdleSessions(std::uint64_t max_age);

    // Adaptive control plane hooks (src/control) -------------------

    /**
     * Retune one resident session's prediction delay (τ) online.
     * Returns false - without creating anything - when the session is
     * not resident. Safe against concurrent traffic (stripe lock);
     * the retune takes effect between frames, and frames of one
     * session stay deterministic for a given decision sequence
     * because the controller itself is epoch-driven.
     */
    bool retuneSession(std::uint64_t session_id,
                       std::uint64_t prediction_delay);

    /**
     * Force overload shedding on (or back to automatic with false) -
     * the adaptive controller's queue-pressure response. Only
     * meaningful under OverloadPolicy::DropOldest: while forced, a
     * saturated shard sheds its oldest queued frame immediately
     * instead of waiting for the spike detector to judge the
     * saturation sustained. Under OverloadPolicy::Block the flag is
     * recorded but has no effect: Block never sheds.
     */
    void setForcedShedding(bool on)
    {
        forcedShed.store(on, std::memory_order_relaxed);
    }

    /** True while forced shedding is active. */
    bool forcedShedding() const
    {
        return forcedShed.load(std::memory_order_relaxed);
    }

    /**
     * Convenience producer: encode `count` events as one frame for
     * `session` and submit it.
     */
    bool submitEvents(std::uint64_t session, std::uint64_t sequence,
                      const PathEvent *events, std::size_t count);

    /** Block until every queued, delayed or inline-running frame
     *  has been fully processed. Not from a completion callback. */
    void drain();

    /** Drain, then stop and join the workers (idempotent). */
    void shutdown();

    /** True when running in serial fallback mode (no workers). */
    bool serial() const { return workers.empty() && cfg.workerThreads == 0; }

    /** Frames each shard ring really holds: EngineConfig's
     *  queueCapacityFrames rounded up to a power of two. Every
     *  queue depth in EngineStats is at most this. */
    std::size_t queueCapacityFrames() const
    {
        return cfg.queueCapacityFrames;
    }

    /** Aggregate accounting from relaxed atomic reads; takes no
     *  stripe lock (only each DropOldest shard's shed lock, to read
     *  its degradation count). */
    EngineStats stats() const;

    /** Read-only access to a resident session (false if absent). */
    bool
    withSessionStats(
        std::uint64_t session_id,
        const std::function<void(const Session &)> &fn) const
    {
        return table.peekSession(session_id, fn);
    }

    /**
     * Snapshot a resident session's predictor state into `out`
     * (Session::exportState). Returns false - leaving `out` as a
     * fresh/empty snapshot - when the session is not resident. Safe
     * against concurrent traffic (stripe lock), but the snapshot is
     * only stream-consistent if the caller has stopped feeding the
     * session; the router's migration protocol guarantees that by
     * parking the session's frames first.
     */
    bool exportSession(std::uint64_t session_id,
                       wire::SessionState &out) const;

    /**
     * Install a session rebuilt from an exported snapshot (replacing
     * any resident session of the same id). Feeding the original
     * event suffix afterwards continues the exporter's prediction
     * stream bit-identically. The allocation-failure hook is not
     * consulted (migration must not be starved by injected faults).
     */
    void importSession(std::uint64_t session_id,
                       const wire::SessionState &state);

    /** Ordered predicted paths of one session (empty if absent; only
     *  populated when the session config records predictions). */
    std::vector<PathIndex> predictionsFor(std::uint64_t session_id) const;

    /** The underlying session table (read-only). */
    const ShardedSessionTable &sessions() const { return table; }

    /** The fault injector, or nullptr when no fault is armed. */
    const fault::FaultInjector *faultInjector() const
    {
        return injector.get();
    }

  private:
    /**
     * One routed frame's bytes: either an owned buffer (submit moved
     * the caller's vector in) or a refcounted [off, off+len) slice of
     * a shared buffer (submitShared, trySubmitShared). Owned by value
     * so it can ride through the lock-free ring.
     */
    struct FrameBuf
    {
        std::vector<std::uint8_t> owned;
        std::shared_ptr<const std::vector<std::uint8_t>> shared;
        std::uint32_t off = 0;
        std::uint32_t len = 0;

        FrameBuf() = default;
        explicit FrameBuf(std::vector<std::uint8_t> bytes)
            : owned(std::move(bytes))
        {
        }
        FrameBuf(
            std::shared_ptr<const std::vector<std::uint8_t>> buffer,
            std::size_t offset, std::size_t length)
            : shared(std::move(buffer)),
              off(static_cast<std::uint32_t>(offset)),
              len(static_cast<std::uint32_t>(length))
        {
        }

        const std::uint8_t *
        data() const
        {
            return shared ? shared->data() + off : owned.data();
        }
        std::size_t
        size() const
        {
            return shared ? len : owned.size();
        }
    };

    /** One queued frame plus its caller routing tag. */
    struct QueuedFrame
    {
        FrameBuf buf;
        std::uint64_t tag = 0;
        /** Enqueue timestamp of a span-sampled frame (0 =
         *  unsampled). */
        std::uint64_t spanNs = 0;
    };

    /**
     * One shard's handoff queue: a lock-free ring the owning worker
     * batch-pops (null in serial mode, which never queues). Under
     * OverloadPolicy::DropOldest a degraded producer pops from it
     * too, to shed the oldest frame (see pushOrShed()).
     */
    struct ShardQueue
    {
        std::unique_ptr<support::BoundedRing<QueuedFrame>> ring;
        /** Producers park on spaceAvailable (under spaceMu) while the
         *  ring is full. */
        std::mutex spaceMu;
        std::condition_variable spaceAvailable;
        /** Producers currently parked on a full ring; consumers only
         *  touch spaceMu when this is nonzero. */
        std::atomic<std::uint32_t> spaceWaiters{0};

        /** Frames queued or being processed. A producer counts its
         *  frame before the push, a worker uncounts its batch once
         *  processed, and a submitter may run a frame inline only by
         *  claiming the shard 0 -> 1. */
        std::atomic<std::uint32_t> active{0};

        /** Overload spike detector, DropOldest only (null under
         *  Block); fed once per submit under shedMu, which also keeps
         *  the shard's other producers out while one sheds. */
        std::unique_ptr<DegradationPolicy> degradation;
        std::mutex shedMu;

        std::atomic<std::size_t> highWater{0};
        /** Mirrors into engine.shard.<i>.backpressure.waits. */
        telemetry::CounterStat backpressureWaits;
        std::size_t worker = 0; // owning worker index
    };

    struct WorkerState
    {
        std::mutex mu;
        std::condition_variable workAvailable;
        bool wake = false;
        /** Set (with a seq_cst fence) before the worker re-checks
         *  its rings and parks; producers fence after pushing and
         *  only notify when they observe it - the Dekker handshake
         *  that makes batch-notify safe. */
        std::atomic<bool> sleeping{false};
        std::vector<std::size_t> shards; // owned shard indices
        // Liveness signals read by the watchdog.
        std::atomic<std::uint64_t> heartbeat{0};
        std::atomic<bool> stalled{false};
        std::atomic<bool> stallRelease{false};
        // Utilization accounting (read by stats(); mirrors into
        // engine.worker.<w>.{busy,idle}.ns). Busy covers batch
        // processing, idle covers the parked wait.
        telemetry::CounterStat busyNs;
        telemetry::CounterStat idleNs;
    };

    struct DelayedFrame
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t tag = 0;
        std::uint64_t releaseAt = 0; // framesSubmitted watermark
    };

    /** Per-thread inline state: the submitting thread's decode
     *  scratch, its nesting guard and serial mode's deferred frames
     *  (defined in engine.cc). */
    struct InlineState;

    /** The calling thread's InlineState. */
    static InlineState &inlineState();

    void workerLoop(std::size_t worker_index);
    void watchdogLoop();

    /** Run one frame to completion on the calling thread, then any
     *  frames serial-mode callbacks submitted meanwhile. The frame is
     *  already counted in pendingFrames; `claimed` says it also holds
     *  its ring shard's claim (ShardQueue::active). */
    void runInline(std::size_t shard_index, const FrameBuf &frame,
                   std::uint64_t tag, std::uint64_t span_ns,
                   bool claimed);

    /** One inline frame: decode + apply under the stripe lock, then
     *  release the claim (when `claimed`) and the pendingFrames
     *  count. */
    void processInline(std::size_t shard_index, const FrameBuf &frame,
                       std::uint64_t tag, std::uint64_t span_ns,
                       bool claimed);

    /** Decode + apply one frame on the owning worker (or inline on
     *  the submitting thread); fires the completion callback when
     *  installed.
     *  The caller holds the frame's shard stripe lock in
     *  `shard_lock`; it is released around callback invocations.
     *  `span_ns` != 0 marks a span-sampled frame carrying its
     *  enqueue timestamp. `state_scratch` receives the encoded
     *  SessionState reply when the frame is an export request. */
    void processFrame(const std::uint8_t *data, std::size_t size,
                      std::uint64_t tag, wire::DecodedFrame &scratch,
                      std::vector<wire::PredictionRecord> &preds,
                      std::vector<std::uint8_t> &state_scratch,
                      std::uint64_t span_ns,
                      std::unique_lock<std::mutex> &shard_lock);

    /** Apply one decoded SessionState frame (import or export
     *  request) and fire its completion; shard lock held as in
     *  processFrame(). */
    void processSessionState(const wire::DecodedFrame &scratch,
                             std::uint64_t tag,
                             std::vector<std::uint8_t> &state_scratch,
                             std::unique_lock<std::mutex> &shard_lock);

    /** Post-injection routing shared by submit(), submitShared(),
     *  trySubmitShared() and delayed redelivery:
     *  header peek, reject, then inline or enqueue. On Backpressure
     *  (nonblocking callers only) `frame` is left intact. `span_ns`
     *  as in processFrame(); `may_run_inline` as in
     *  trySubmitShared(). */
    SubmitStatus routeFrame(FrameBuf &frame, std::uint64_t tag,
                            bool blocking, std::uint64_t span_ns = 0,
                            bool may_run_inline = true);

    /** DropOldest enqueue: push `frame`, feeding the shard's spike
     *  detector whether the ring was full. A full, degraded (or
     *  forced-shedding) shard pops its oldest frames until the push
     *  succeeds and completes them unapplied on this thread. Returns
     *  false - `frame` intact - when the ring was full and nothing
     *  was shed. */
    bool pushOrShed(ShardQueue &queue, QueuedFrame &frame);

    /** Attribute a decode failure to its session's error budget;
     *  poisons/rebuilds when the budget is exhausted. Caller holds
     *  the frame's shard stripe lock. */
    void attributeDecodeError(const std::uint8_t *data,
                              std::size_t size);

    /** Fire the completion callback (applied=false, no predictions)
     *  for a frame the engine consumed without applying: decode
     *  failures, non-PathEvents kinds, overload-shed frames. The
     *  session/sequence are recovered from the frame header (zeros
     *  when even the header is unreadable). `shard_lock`, when
     *  non-null, is released around the callback. */
    void completeUnapplied(const std::uint8_t *data, std::size_t size,
                           std::uint64_t tag,
                           std::unique_lock<std::mutex> *shard_lock);

    /** Redeliver held delayed frames (all of them when `all`). */
    void flushDelayed(bool all);

    void countReject(wire::DecodeStatus status);
    /** Bump engine.fault.injected.<site> (when registered). */
    void countInjected(fault::Site site);
    void noteFrameDone(std::uint64_t count = 1);

    /** Record a shard queue's post-push occupancy (high-water CAS
     *  max, clamped to the configured capacity because ring size()
     *  can transiently overshoot; depth gauges). */
    void noteQueueDepth(ShardQueue &queue, std::size_t shard_index,
                        std::size_t depth);

    /** Wake a worker if (and only if) it is parked - the batch-notify
     *  half of the Dekker handshake; see WorkerState::sleeping. */
    void wakeWorker(WorkerState &worker);

    EngineConfig cfg;
    ShardedSessionTable table;
    std::unique_ptr<fault::FaultInjector> injector;

    std::vector<std::unique_ptr<ShardQueue>> queues;
    std::vector<std::unique_ptr<WorkerState>> workerStates;
    std::vector<std::thread> workers;
    std::thread watchdog;

    std::atomic<bool> stopping{false};
    /** Control-plane override: shed on saturation without waiting
     *  for the spike detector (DropOldest shards only). */
    std::atomic<bool> forcedShed{false};
    std::atomic<bool> warnedReject{false};
    std::atomic<bool> warnedStall{false};
    std::atomic<std::uint64_t> pendingFrames{0};
    /** Per-frame completion callback; empty unless installed. */
    FrameCallback frameCallback;
    mutable std::mutex drainMu;
    std::condition_variable drainCv;
    std::mutex watchdogMu;
    std::condition_variable watchdogCv;
    std::mutex delayMu;
    std::deque<DelayedFrame> delayed;

    // Per-engine stats (read by stats()). A named stat also bumps the
    // registry instrument of that name (telemetry/stat.hh).
    std::atomic<std::uint64_t> framesSubmitted{0};
    telemetry::CounterStat framesDecoded{"engine.frames.decoded"};
    telemetry::CounterStat eventsProcessed{"engine.events"};
    telemetry::CounterStat predictionsMade{"engine.predictions"};
    telemetry::CounterStat framesInline{"engine.frames.inline"};
    telemetry::CounterStat backpressureWaits{
        "engine.backpressure.waits"};
    telemetry::CounterStat batchesPopped;
    /** Indexed by rejectSlot(); every slot mirrors into
     *  engine.frames.rejected, which therefore reads their sum. */
    telemetry::CounterStat rejectCounts[6];
    telemetry::CounterStat framesApplied;
    mutable telemetry::CounterStat sessionsExported{
        "engine.sessions.exported"};
    telemetry::CounterStat sessionsImported{"engine.sessions.imported"};

    // Fault/recovery stats (see FaultRecoveryStats). Those with an
    // instrument attach it only when a resilience feature (fault plan,
    // error budget, shedding, watchdog) is on, so default runs keep
    // their RunReports unchanged.
    telemetry::CounterStat corruptFrames;
    telemetry::CounterStat delayedDelivered;
    telemetry::CounterStat sessionsPoisoned;
    telemetry::CounterStat sessionsReadmitted;
    telemetry::CounterStat backoffDropped;
    telemetry::CounterStat allocDropped;
    telemetry::CounterStat framesShed;
    telemetry::CounterStat workersStalled;
    telemetry::CounterStat workersUnstalled;
    telemetry::CounterStat stallDetections;

    // Registry-only instruments (no per-engine stat of their own);
    // nullptr when telemetry is not attached.
    telemetry::Gauge *tmQueueHighWater = nullptr;
    telemetry::Gauge *tmQueueDepth = nullptr;
    telemetry::Histogram *tmBatchSize = nullptr;
    // Eagerly registered so every shard appears in reports even at
    // zero.
    std::vector<telemetry::Counter *> tmShardFrames;
    std::vector<telemetry::Gauge *> tmShardDepth;

    // Stage-span recorder: engine-owned when cfg.spanSampleEvery != 0,
    // else whatever setSpanRecorder() installed (the net server's).
    std::unique_ptr<telemetry::SpanRecorder> ownedSpans;
    telemetry::SpanRecorder *spans = nullptr;

    // Registry-only resilience instruments, registered with the
    // resilience stats above. The injected counts mirror the fault
    // injector's own counters; overload spikes mirror the spike
    // detectors' degraded entries.
    telemetry::Counter *tmInjected[fault::kSiteCount] = {};
    telemetry::Counter *tmQuarantined = nullptr;
    telemetry::Counter *tmRebuilt = nullptr;
    telemetry::Counter *tmAllocFailures = nullptr;
    telemetry::Counter *tmOverloadSpikes = nullptr;
};

} // namespace engine
} // namespace hotpath

#endif // HOTPATH_ENGINE_ENGINE_HH
