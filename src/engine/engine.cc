#include "engine/engine.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <string>

#include "support/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::engine
{

namespace
{

/** rejectCounts slot for a decode failure. */
std::size_t
rejectSlot(wire::DecodeStatus status)
{
    switch (status) {
      case wire::DecodeStatus::Truncated: return 0;
      case wire::DecodeStatus::BadMagic: return 1;
      case wire::DecodeStatus::BadKind: return 2;
      case wire::DecodeStatus::BadLength: return 3;
      case wire::DecodeStatus::BadCrc: return 4;
      case wire::DecodeStatus::BadPayload: return 5;
      case wire::DecodeStatus::Ok: break;
    }
    panic("rejectSlot called with DecodeStatus::Ok");
}

/** How long a parked worker sleeps before re-checking its rings, and
 *  how long a blocked producer sleeps before re-trying a full ring.
 *  Both parks are belt-and-braces: the Dekker handshake (seq_cst
 *  fences around the sleeping/spaceWaiters flags) makes a missed
 *  notify nearly impossible, and the timeout makes even that
 *  self-heal instead of hanging drain(). */
constexpr auto kParkTimeout = std::chrono::milliseconds(2);

/** Cap on the re-admission backoff doubling: a poisoned session
 *  drops at most backoffBaseFrames << 10 frames (16,384 at the
 *  default base) however often it has been poisoned. */
constexpr std::uint32_t kBackoffMaxExponent = 10;

} // namespace

struct Engine::InlineState
{
    /** A serial-mode frame submitted while this thread was inline. */
    struct Deferred
    {
        Engine *engine = nullptr;
        std::size_t shard = 0;
        QueuedFrame frame;
    };

    /** An engine worker: its frames always go through the rings. */
    bool onWorker = false;
    /** Inside runInline(), completion callbacks included. Submits
     *  made from here never run inline themselves. */
    bool running = false;
    /** Inline decode scratch. The completion callback reads
     *  `preds` after the stripe lock is released, so this memory
     *  belongs to the thread, never to a shard or an engine. */
    wire::DecodedFrame scratch;
    std::vector<wire::PredictionRecord> preds;
    std::vector<std::uint8_t> stateReply;
    /** Serial-mode frames awaiting the running inline frame, in
     *  submission order. */
    std::deque<Deferred> deferred;
};

Engine::InlineState &
Engine::inlineState()
{
    thread_local InlineState state;
    return state;
}

Engine::Engine(EngineConfig config)
    : cfg(std::move(config)), table(cfg.sessions)
{
    HOTPATH_ASSERT(cfg.queueCapacityFrames >= 1,
                   "queue capacity must be at least one frame");
    // The rings hold a power of two; every depth gauge and clamp
    // reads this field, so it states the capacity they really have.
    cfg.queueCapacityFrames = std::bit_ceil(cfg.queueCapacityFrames);
    HOTPATH_ASSERT(cfg.maxBatchFrames >= 1,
                   "batch size must be at least one frame");
    HOTPATH_ASSERT(cfg.delayWindowFrames >= 1,
                   "delay window must be at least one frame");

    if (cfg.faults.enabled())
        injector = std::make_unique<fault::FaultInjector>(cfg.faults);

    if (cfg.spanSampleEvery > 0) {
        ownedSpans = std::make_unique<telemetry::SpanRecorder>(
            telemetry::SpanConfig{cfg.spanSampleEvery});
        spans = ownedSpans.get();
    }

    for (telemetry::CounterStat &slot : rejectCounts)
        slot.attach("engine.frames.rejected");
    tmQueueHighWater = telemetry::gauge("engine.queue.highwater");
    tmQueueDepth = telemetry::gauge("engine.queue.depth");
    tmBatchSize = telemetry::histogram("engine.batch.size");

    // Resilience metrics exist only when a resilience feature is on,
    // so default runs keep their RunReports byte-stable.
    const bool resilient =
        injector != nullptr ||
        cfg.sessions.session.errorBudget > 0 ||
        cfg.overloadPolicy == OverloadPolicy::DropOldest ||
        cfg.watchdogIntervalMs > 0;
    if (resilient) {
        for (std::size_t s = 0; s < fault::kSiteCount; ++s)
            tmInjected[s] = telemetry::counter(
                std::string("engine.fault.injected.") +
                fault::siteName(static_cast<fault::Site>(s)));
        corruptFrames.attach("engine.fault.frames.corrupted");
        sessionsPoisoned.attach("engine.fault.sessions.poisoned");
        tmAllocFailures =
            telemetry::counter("engine.fault.alloc.failures");
        tmOverloadSpikes =
            telemetry::counter("engine.fault.overload.spikes");
        workersStalled.attach("engine.fault.worker.stalled");
        tmQuarantined =
            telemetry::counter("engine.recovered.frames.quarantined");
        delayedDelivered.attach(
            "engine.recovered.frames.delayed.delivered");
        tmRebuilt =
            telemetry::counter("engine.recovered.sessions.rebuilt");
        sessionsReadmitted.attach(
            "engine.recovered.sessions.readmitted");
        backoffDropped.attach("engine.recovered.backoff.frames");
        framesShed.attach("engine.recovered.shed.frames");
        workersUnstalled.attach("engine.recovered.worker.unstalled");
    }

    if (injector && injector->armed(fault::Site::AllocFail)) {
        table.setAllocFailHook([this] {
            const bool fail =
                injector->shouldInject(fault::Site::AllocFail);
            if (fail) {
                countInjected(fault::Site::AllocFail);
                if (tmAllocFailures)
                    tmAllocFailures->add(1);
            }
            return fail;
        });
    }

    const std::size_t shard_count = table.shardCount();
    // More workers than shards would only idle: clamp.
    const std::size_t worker_count =
        std::min(cfg.workerThreads, shard_count);

    queues.reserve(shard_count);
    tmShardFrames.reserve(shard_count);
    tmShardDepth.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
        queues.push_back(std::make_unique<ShardQueue>());
        if (cfg.overloadPolicy == OverloadPolicy::DropOldest)
            queues.back()->degradation =
                std::make_unique<DegradationPolicy>(cfg.degradation);
        // Serial mode never queues, so it skips the allocation.
        if (worker_count > 0)
            queues.back()->ring =
                std::make_unique<support::BoundedRing<QueuedFrame>>(
                    cfg.queueCapacityFrames);
        const std::string prefix =
            "engine.shard." + std::to_string(i);
        tmShardFrames.push_back(
            telemetry::counter(prefix + ".frames"));
        tmShardDepth.push_back(
            telemetry::gauge(prefix + ".queue.depth"));
        queues.back()->backpressureWaits.attach(prefix +
                                                ".backpressure.waits");
    }

    if (worker_count == 0)
        return; // serial fallback mode

    workerStates.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) {
        workerStates.push_back(std::make_unique<WorkerState>());
        const std::string prefix =
            "engine.worker." + std::to_string(w);
        workerStates.back()->busyNs.attach(prefix + ".busy.ns");
        workerStates.back()->idleNs.attach(prefix + ".idle.ns");
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
        const std::size_t owner = s % worker_count;
        queues[s]->worker = owner;
        workerStates[owner]->shards.push_back(s);
    }
    workers.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w)
        workers.emplace_back(&Engine::workerLoop, this, w);

    // An armed stall without a watchdog would hang drain(): the
    // watchdog is what releases injected stalls.
    if (cfg.watchdogIntervalMs == 0 && injector &&
        injector->armed(fault::Site::WorkerStall))
        cfg.watchdogIntervalMs = 10;
    if (cfg.watchdogIntervalMs > 0)
        watchdog = std::thread(&Engine::watchdogLoop, this);
}

Engine::~Engine()
{
    shutdown();
}

void
Engine::countReject(wire::DecodeStatus status)
{
    rejectCounts[rejectSlot(status)].add();
    // A reject is a quarantine: the frame is skipped and counted,
    // never allowed to take the session or the engine down.
    if (tmQuarantined)
        tmQuarantined->add(1);
    // One diagnostic per engine; rejections after the first are
    // visible in stats() without flooding the log from workers.
    if (!warnedReject.exchange(true, std::memory_order_relaxed))
        warn(std::string("engine: rejected frame (") +
             wire::decodeStatusName(status) +
             "); further rejections counted silently");
}

void
Engine::countInjected(fault::Site site)
{
    if (telemetry::Counter *tm = tmInjected[static_cast<std::size_t>(site)])
        tm->add(1);
}

bool
Engine::submit(std::vector<std::uint8_t> frame, std::uint64_t tag)
{
    const std::uint64_t submitted =
        framesSubmitted.fetch_add(1, std::memory_order_relaxed) + 1;

    if (injector) {
        std::uint64_t aux = 0;
        if (injector->armed(fault::Site::FrameDrop) &&
            injector->shouldInject(fault::Site::FrameDrop)) {
            // Simulated network loss: the producer sees success.
            countInjected(fault::Site::FrameDrop);
            return true;
        }
        bool corrupted = false;
        if (injector->armed(fault::Site::WireTruncate) &&
            injector->shouldInject(fault::Site::WireTruncate, &aux) &&
            frame.size() > 3) {
            frame.resize(3 + aux % (frame.size() - 3));
            corrupted = true;
            countInjected(fault::Site::WireTruncate);
        }
        if (injector->armed(fault::Site::WireBitFlip) &&
            injector->shouldInject(fault::Site::WireBitFlip, &aux) &&
            !frame.empty()) {
            frame[(aux >> 3) % frame.size()] ^=
                static_cast<std::uint8_t>(1u << (aux & 7));
            corrupted = true;
            countInjected(fault::Site::WireBitFlip);
        }
        if (corrupted)
            corruptFrames.add();
        if (injector->armed(fault::Site::FrameDelay) &&
            injector->shouldInject(fault::Site::FrameDelay)) {
            countInjected(fault::Site::FrameDelay);
            std::lock_guard<std::mutex> lock(delayMu);
            delayed.push_back(
                {std::move(frame), tag,
                 submitted + cfg.delayWindowFrames});
            return true;
        }
        // Redeliver held frames whose window has passed (out of
        // order relative to their original submission).
        flushDelayed(false);
    }

    // Engine-owned span sampling (EngineConfig::spanSampleEvery)
    // happens after the fault preamble, so dropped/delayed frames do
    // not consume a sample without ever recording a stage.
    std::uint64_t span_ns = 0;
    if (ownedSpans && ownedSpans->sampleFrame())
        span_ns = telemetry::monotonicNanos();

    FrameBuf buf(std::move(frame));
    return routeFrame(buf, tag, /*blocking=*/true, span_ns) ==
           SubmitStatus::Accepted;
}

bool
Engine::submitShared(
    std::shared_ptr<const std::vector<std::uint8_t>> buffer,
    std::size_t offset, std::size_t length, std::uint64_t tag)
{
    framesSubmitted.fetch_add(1, std::memory_order_relaxed);
    // No fault preamble (it would mutate the shared bytes; see the
    // header contract), but engine-owned span sampling still applies.
    std::uint64_t span_ns = 0;
    if (ownedSpans && ownedSpans->sampleFrame())
        span_ns = telemetry::monotonicNanos();

    FrameBuf buf(std::move(buffer), offset, length);
    return routeFrame(buf, tag, /*blocking=*/true, span_ns) ==
           SubmitStatus::Accepted;
}

SubmitStatus
Engine::trySubmitShared(
    const std::shared_ptr<const std::vector<std::uint8_t>> &buffer,
    std::size_t offset, std::size_t length, std::uint64_t tag,
    std::uint64_t span_ns, bool may_run_inline)
{
    FrameBuf buf(buffer, offset, length);
    const SubmitStatus status = routeFrame(
        buf, tag, /*blocking=*/false, span_ns, may_run_inline);
    // Backpressure leaves the slice with the caller (who still holds
    // the shared buffer); everything else was taken and counted.
    if (status != SubmitStatus::Backpressure)
        framesSubmitted.fetch_add(1, std::memory_order_relaxed);
    return status;
}

void
Engine::setSpanRecorder(telemetry::SpanRecorder *recorder)
{
    // Clearing restores the engine-owned recorder when one exists.
    spans = recorder ? recorder : ownedSpans.get();
}

void
Engine::setFrameCallback(FrameCallback callback)
{
    frameCallback = std::move(callback);
}

std::size_t
Engine::evictIdleSessions(std::uint64_t max_age)
{
    return table.evictIdle(max_age);
}

bool
Engine::retuneSession(std::uint64_t session_id,
                      std::uint64_t prediction_delay)
{
    return table.mutateSession(
        session_id, [prediction_delay](Session &session) {
            session.retune(prediction_delay);
        });
}

void
Engine::noteQueueDepth(ShardQueue &queue, std::size_t shard_index,
                       std::size_t depth)
{
    // A ring size() read can transiently overshoot the capacity (the
    // two cursors are loaded independently); clamp so the recorded
    // high-water mark never exceeds the ring's capacity.
    const std::size_t clamped =
        std::min(depth, cfg.queueCapacityFrames);
    std::size_t prev = queue.highWater.load(std::memory_order_relaxed);
    while (clamped > prev &&
           !queue.highWater.compare_exchange_weak(
               prev, clamped, std::memory_order_relaxed)) {
    }
    if (tmQueueDepth)
        tmQueueDepth->set(static_cast<std::int64_t>(clamped));
    if (tmShardDepth[shard_index])
        tmShardDepth[shard_index]->set(
            static_cast<std::int64_t>(clamped));
    if (tmQueueHighWater)
        tmQueueHighWater->recordMax(
            static_cast<std::int64_t>(clamped));
}

void
Engine::wakeWorker(WorkerState &worker)
{
    // Dekker handshake, producer half: the push above is ordered
    // before this fence; the worker orders its sleeping-flag store
    // before re-checking the rings. Either we see sleeping==true and
    // notify, or the worker sees our frame - a wakeup cannot be lost.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!worker.sleeping.load(std::memory_order_relaxed))
        return; // the worker is running and will sweep the rings
    {
        std::lock_guard<std::mutex> lock(worker.mu);
        worker.wake = true;
    }
    worker.workAvailable.notify_one();
}

SubmitStatus
Engine::routeFrame(FrameBuf &frame, std::uint64_t tag, bool blocking,
                   std::uint64_t span_ns, bool may_run_inline)
{
    wire::FrameHeader header;
    std::size_t frame_end = 0;
    const wire::DecodeStatus status = wire::peekFrameHeader(
        frame.data(), frame.size(), 0, header, frame_end);
    if (status != wire::DecodeStatus::Ok) {
        countReject(status);
        return SubmitStatus::Rejected;
    }
    if (frame_end != frame.size()) {
        // submit() takes exactly one frame per call.
        countReject(wire::DecodeStatus::BadLength);
        return SubmitStatus::Rejected;
    }

    const std::size_t shard_index = table.shardOf(header.session);
    InlineState &local = inlineState();
    if (workers.empty()) {
        // Serial mode: the caller's thread is the worker. A frame
        // submitted from an inline frame's callback waits until that
        // frame is done, so a closed loop iterates, never recurses.
        pendingFrames.fetch_add(1, std::memory_order_relaxed);
        if (local.running)
            local.deferred.push_back(
                {this, shard_index, {std::move(frame), tag, span_ns}});
        else
            runInline(shard_index, frame, tag, span_ns,
                      /*claimed=*/false);
        return SubmitStatus::Accepted;
    }

    ShardQueue &queue = *queues[shard_index];
    // Count the frame in flight first so drain() can never observe a
    // pushed-but-uncounted frame.
    pendingFrames.fetch_add(1, std::memory_order_relaxed);
    // Idle shard: claim it and run the frame here, which saves the
    // worker's wake-up and the hand-off back. Only a 0 -> 1 claim
    // succeeds, so the frame cannot overtake a queued one. A
    // DropOldest shard always queues: its spike detector counts
    // every submit.
    std::uint32_t idle = 0;
    if (may_run_inline && !queue.degradation && !local.onWorker &&
        !local.running &&
        queue.active.compare_exchange_strong(
            idle, 1, std::memory_order_acquire,
            std::memory_order_relaxed)) {
        runInline(shard_index, frame, tag, span_ns, /*claimed=*/true);
        return SubmitStatus::Accepted;
    }
    // Lock-free handoff: one CAS to enqueue (a DropOldest shard's
    // producer first takes the lock that feeds its spike detector).
    queue.active.fetch_add(1, std::memory_order_relaxed);
    QueuedFrame qf{std::move(frame), tag, span_ns};
    const bool pushed = queue.degradation ? pushOrShed(queue, qf)
                                          : queue.ring->tryPush(qf);
    if (!pushed) {
        if (!blocking) {
            frame = std::move(qf.buf);
            // Undo the in-flight counts.
            queue.active.fetch_sub(1, std::memory_order_relaxed);
            noteFrameDone(1);
            return SubmitStatus::Backpressure;
        }
        queue.backpressureWaits.add();
        backpressureWaits.add();
        // Full: park until the worker frees a slot. The waiter count
        // tells the worker to bother with the notify; the timeout
        // makes a lost race self-heal (see kParkTimeout).
        std::unique_lock<std::mutex> lock(queue.spaceMu);
        queue.spaceWaiters.fetch_add(1, std::memory_order_seq_cst);
        while (!queue.ring->tryPush(qf))
            queue.spaceAvailable.wait_for(lock, kParkTimeout);
        queue.spaceWaiters.fetch_sub(1, std::memory_order_seq_cst);
    }
    noteQueueDepth(queue, shard_index, queue.ring->size());
    wakeWorker(*workerStates[queue.worker]);
    return SubmitStatus::Accepted;
}

bool
Engine::pushOrShed(ShardQueue &queue, QueuedFrame &frame)
{
    std::vector<QueuedFrame> shed;
    {
        std::lock_guard<std::mutex> lock(queue.shedMu);
        const bool pushed = queue.ring->tryPush(frame);
        // Dynamo's flush-on-spike heuristic, pointed at queue
        // pressure: only *sustained* saturation flips the shard into
        // load shedding; a transient burst still blocks.
        const DegradationMode prev = queue.degradation->mode();
        const DegradationMode mode = queue.degradation->onEvent(!pushed);
        if (prev == DegradationMode::Normal &&
            mode == DegradationMode::Degraded && tmOverloadSpikes)
            tmOverloadSpikes->add(1);
        if (pushed || mode != DegradationMode::Degraded)
            return pushed;
        // Degraded: admit the fresh frame by shedding the oldest
        // queued one (stale profile data is the cheapest loss). The
        // lock keeps the shard's other producers out, so one shed
        // makes the room - unless a producer parked in routeFrame()
        // takes the slot first, and the loop sheds again.
        while (!queue.ring->tryPush(frame)) {
            QueuedFrame oldest;
            if (queue.ring->tryPop(oldest))
                shed.push_back(std::move(oldest));
            else
                std::this_thread::yield(); // a push or pop is mid-slot
        }
    }
    // A shed frame never reaches a worker, so its completion fires
    // here (outside the lock: the callback may submit) or its
    // submitter's in-flight count would never drain.
    for (const QueuedFrame &oldest : shed) {
        framesShed.add();
        completeUnapplied(oldest.buf.data(), oldest.buf.size(),
                          oldest.tag, nullptr);
    }
    queue.active.fetch_sub(static_cast<std::uint32_t>(shed.size()),
                           std::memory_order_relaxed);
    noteFrameDone(shed.size());
    return true;
}

bool
Engine::submitEvents(std::uint64_t session, std::uint64_t sequence,
                     const PathEvent *events, std::size_t count)
{
    std::vector<std::uint8_t> frame;
    wire::appendEventFrame(frame, session, sequence, events, count);
    return submit(std::move(frame));
}

void
Engine::flushDelayed(bool all)
{
    for (;;) {
        std::vector<std::uint8_t> frame;
        std::uint64_t tag = 0;
        {
            std::lock_guard<std::mutex> lock(delayMu);
            if (delayed.empty())
                return;
            if (!all && delayed.front().releaseAt >
                            framesSubmitted.load(
                                std::memory_order_relaxed))
                return;
            frame = std::move(delayed.front().bytes);
            tag = delayed.front().tag;
            delayed.pop_front();
        }
        delayedDelivered.add();
        // Already counted in framesSubmitted at original submission.
        FrameBuf buf(std::move(frame));
        routeFrame(buf, tag, /*blocking=*/true);
    }
}

void
Engine::attributeDecodeError(const std::uint8_t *data,
                             std::size_t size)
{
    const SessionConfig &scfg = cfg.sessions.session;
    if (scfg.errorBudget == 0)
        return;
    wire::FrameHeader header;
    std::size_t frame_end = 0;
    if (wire::peekFrameHeader(data, size, 0, header, frame_end) !=
        wire::DecodeStatus::Ok)
        return; // no session id worth trusting

    bool poisoned = false;
    std::uint32_t generation = 0;
    table.withSessionLocked(header.session, [&](Session &session) {
        if (session.noteDecodeError()) {
            poisoned = true;
            generation = session.generation();
        }
    });
    if (!poisoned)
        return;

    sessionsPoisoned.add();
    // Evict-and-rebuild, with exponential re-admission backoff: each
    // poisoning doubles the number of frames dropped before the
    // fresh session accepts traffic again.
    const std::uint64_t backoff =
        scfg.backoffBaseFrames
        << std::min(generation, kBackoffMaxExponent);
    table.rebuildSessionLocked(header.session, [&](Session &session) {
        session.enterBackoff(backoff, generation + 1);
    });
    if (tmRebuilt)
        tmRebuilt->add(1);
}

void
Engine::completeUnapplied(const std::uint8_t *data, std::size_t size,
                          std::uint64_t tag,
                          std::unique_lock<std::mutex> *shard_lock)
{
    if (!frameCallback)
        return;
    FrameOutcome outcome;
    wire::FrameHeader header;
    std::size_t frame_end = 0;
    if (wire::peekFrameHeader(data, size, 0, header, frame_end) ==
        wire::DecodeStatus::Ok) {
        outcome.session = header.session;
        outcome.sequence = header.sequence;
    }
    outcome.tag = tag;
    // The callback may re-enter the engine (stats, export): never
    // hold the stripe lock across it.
    if (shard_lock)
        shard_lock->unlock();
    frameCallback(outcome);
    if (shard_lock)
        shard_lock->lock();
}

void
Engine::processSessionState(const wire::DecodedFrame &scratch,
                            std::uint64_t tag,
                            std::vector<std::uint8_t> &state_scratch,
                            std::unique_lock<std::mutex> &shard_lock)
{
    const std::uint64_t session = scratch.header.session;
    state_scratch.clear();
    if (scratch.state.request) {
        // Export request: reply with the session's snapshot. An
        // absent session exports as a fresh/empty snapshot
        // (sawFrame=false), so migration of a session the backend
        // never saw degrades to a clean rebuild on the new owner.
        wire::SessionState snapshot;
        snapshot.predictionDelay =
            cfg.sessions.session.predictionDelay;
        table.peekSessionLocked(session, [&](const Session &s) {
            s.exportState(snapshot);
        });
        wire::appendSessionStateFrame(state_scratch, session,
                                      scratch.header.sequence,
                                      snapshot);
        sessionsExported.add();
    } else {
        table.installSessionLocked(session, [&](Session &s) {
            s.importState(scratch.state);
        });
        sessionsImported.add();
    }
    framesApplied.add();

    if (frameCallback) {
        FrameOutcome outcome;
        outcome.session = session;
        outcome.sequence = scratch.header.sequence;
        outcome.tag = tag;
        outcome.applied = true;
        if (scratch.state.request)
            outcome.stateReply = &state_scratch;
        shard_lock.unlock();
        frameCallback(outcome);
        shard_lock.lock();
    }
}

void
Engine::runInline(std::size_t shard_index, const FrameBuf &frame,
                  std::uint64_t tag, std::uint64_t span_ns, bool claimed)
{
    InlineState &local = inlineState();
    local.running = true;
    processInline(shard_index, frame, tag, span_ns, claimed);
    // Frames serial-mode callbacks submitted meanwhile, oldest first
    // (their own callbacks may append more). They came through the
    // no-worker branch of routeFrame(), which claims no shard.
    while (!local.deferred.empty()) {
        InlineState::Deferred next = std::move(local.deferred.front());
        local.deferred.pop_front();
        next.engine->processInline(next.shard, next.frame.buf,
                                   next.frame.tag, next.frame.spanNs,
                                   /*claimed=*/false);
    }
    local.running = false;
}

void
Engine::processInline(std::size_t shard_index, const FrameBuf &frame,
                      std::uint64_t tag, std::uint64_t span_ns,
                      bool claimed)
{
    InlineState &local = inlineState();
    {
        auto lock = table.lockShard(shard_index);
        processFrame(frame.data(), frame.size(), tag, local.scratch,
                     local.preds, local.stateReply, span_ns, lock);
    }
    framesInline.add();
    if (tmShardFrames[shard_index])
        tmShardFrames[shard_index]->add(1);
    if (claimed)
        queues[shard_index]->active.fetch_sub(
            1, std::memory_order_release);
    noteFrameDone(1);
}

void
Engine::processFrame(const std::uint8_t *data, std::size_t size,
                     std::uint64_t tag, wire::DecodedFrame &scratch,
                     std::vector<wire::PredictionRecord> &preds,
                     std::vector<std::uint8_t> &state_scratch,
                     std::uint64_t span_ns,
                     std::unique_lock<std::mutex> &shard_lock)
{
    // Stage spans: a sampled frame (span_ns != 0) costs three clock
    // reads here - queue-wait end / decode start, decode end /
    // predict start, predict end. Unsampled frames pay one branch.
    std::uint64_t stage_start = 0;
    if (span_ns != 0 && spans) {
        stage_start = telemetry::monotonicNanos();
        spans->recordStage(telemetry::Stage::QueueWait,
                           stage_start - span_ns);
    }

    std::size_t offset = 0;
    const wire::DecodeStatus status =
        wire::decodeFrame(data, size, offset, scratch);
    if (status != wire::DecodeStatus::Ok) {
        countReject(status);
        attributeDecodeError(data, size);
        // The frame passed the header peek at submit, so a tagged
        // caller counted it in flight and is owed a completion.
        completeUnapplied(data, size, tag, &shard_lock);
        return;
    }
    if (scratch.header.kind == wire::FrameKind::SessionState) {
        // Migration traffic: import a snapshot or answer an export
        // request. Counted as decoded+applied so frame conservation
        // holds; never span-sampled past queue-wait (the stage-set
        // contract covers PathEvents frames only).
        framesDecoded.add();
        processSessionState(scratch, tag, state_scratch, shard_lock);
        return;
    }
    if (scratch.header.kind != wire::FrameKind::PathEvents) {
        // The serving path consumes path events; other frame kinds
        // are interchange/reply formats (see wire_format.hh).
        countReject(wire::DecodeStatus::BadKind);
        completeUnapplied(data, size, tag, &shard_lock);
        return;
    }

    framesDecoded.add();

    // Decode and predict are only recorded past the successful-decode
    // PathEvents gate, and predict wraps withSession (which runs for
    // backoff/alloc-dropped frames too) - so the sampled sets of the
    // decode, predict and downstream reply stages are identical and
    // per-stage counts check out frame-for-frame (the netcheck
    // conservation gate relies on this).
    if (stage_start != 0) {
        const std::uint64_t now = telemetry::monotonicNanos();
        spans->recordStage(telemetry::Stage::Decode,
                           now - stage_start);
        stage_start = now;
    }

    bool applied = false;
    bool readmitted = false;
    std::uint64_t predicted = 0;
    preds.clear();
    const bool want_records = static_cast<bool>(frameCallback);
    const bool resident = table.withSessionLocked(
        scratch.header.session, [&](Session &session) {
            if (session.consumeBackoffSlot()) {
                // Re-admission backoff: drop the frame; the last
                // dropped frame re-admits the session.
                if (!session.inBackoff())
                    readmitted = true;
                return;
            }
            applied = true;
            predicted = session.apply(
                scratch, want_records ? &preds : nullptr);
        });
    if (stage_start != 0)
        spans->recordStage(telemetry::Stage::Predict,
                           telemetry::monotonicNanos() -
                               stage_start);
    if (resident && applied) {
        framesApplied.add();
        eventsProcessed.add(scratch.events.size());
        if (predicted != 0)
            predictionsMade.add(predicted);
    } else if (!resident) {
        // Session creation refused (injected allocation failure):
        // the decoded frame is dropped, visibly.
        allocDropped.add();
    } else {
        backoffDropped.add();
        if (readmitted)
            sessionsReadmitted.add();
    }

    if (frameCallback) {
        // Every decoded frame gets a completion - dropped ones too,
        // so a pipelined client is never left waiting on a frame the
        // engine consumed but chose not to apply. The stripe lock is
        // released for the duration (the callback may re-enter the
        // engine; the scratch the outcome points into belongs to
        // this thread).
        FrameOutcome outcome;
        outcome.session = scratch.header.session;
        outcome.sequence = scratch.header.sequence;
        outcome.tag = tag;
        outcome.events =
            static_cast<std::uint32_t>(scratch.events.size());
        outcome.applied = applied;
        outcome.predictions = preds.data();
        outcome.predictionCount = preds.size();
        outcome.spanSampled = stage_start != 0;
        shard_lock.unlock();
        frameCallback(outcome);
        shard_lock.lock();
    }
}

void
Engine::noteFrameDone(std::uint64_t count)
{
    if (pendingFrames.fetch_sub(count, std::memory_order_acq_rel) ==
        count) {
        std::lock_guard<std::mutex> lock(drainMu);
        drainCv.notify_all();
    }
}

void
Engine::workerLoop(std::size_t worker_index)
{
    WorkerState &self = *workerStates[worker_index];
    inlineState().onWorker = true;
    wire::DecodedFrame scratch;
    std::vector<wire::PredictionRecord> predScratch;
    std::vector<std::uint8_t> stateScratch;
    std::vector<QueuedFrame> batch;
    // Busy/idle accounting: one clock read per sweep (not per frame).
    // Busy covers sweeping and processing, idle the parked wait.
    std::uint64_t mark = telemetry::monotonicNanos();

    while (true) {
        self.heartbeat.fetch_add(1, std::memory_order_relaxed);
        bool did_work = false;
        for (const std::size_t shard_index : self.shards) {
            ShardQueue &queue = *queues[shard_index];
            batch.clear();
            queue.ring->popBatch(batch, cfg.maxBatchFrames);
            if (batch.empty())
                continue;
            did_work = true;
            // Batch-notify: blocked producers register in
            // spaceWaiters, so the common case (nobody blocked) costs
            // one load here and no lock.
            if (queue.spaceWaiters.load(std::memory_order_seq_cst) !=
                0) {
                {
                    std::lock_guard<std::mutex> lock(queue.spaceMu);
                }
                queue.spaceAvailable.notify_all();
            }
            const auto depth = static_cast<std::int64_t>(
                std::min(queue.ring->size(), cfg.queueCapacityFrames));
            if (tmQueueDepth)
                tmQueueDepth->set(depth);
            if (tmShardDepth[shard_index])
                tmShardDepth[shard_index]->set(depth);

            batchesPopped.add();
            if (tmBatchSize)
                tmBatchSize->record(batch.size());
            if (tmShardFrames[shard_index])
                tmShardFrames[shard_index]->add(batch.size());

            // Thread-affine session access: one stripe-lock
            // acquisition covers the whole batch; processFrame
            // releases it only around completion callbacks.
            {
                auto shard_lock = table.lockShard(shard_index);
                for (const QueuedFrame &frame : batch)
                    processFrame(frame.buf.data(), frame.buf.size(),
                                 frame.tag, scratch, predScratch,
                                 stateScratch, frame.spanNs,
                                 shard_lock);
            }
            // Callbacks included: until here the shard stays claimed,
            // so no submitter can run a frame inline past this batch.
            queue.active.fetch_sub(
                static_cast<std::uint32_t>(batch.size()),
                std::memory_order_release);
            noteFrameDone(batch.size());
        }
        if (did_work) {
            const std::uint64_t now = telemetry::monotonicNanos();
            self.busyNs.add(now - mark);
            mark = now;
            if (injector &&
                injector->armed(fault::Site::WorkerStall) &&
                injector->shouldInject(fault::Site::WorkerStall)) {
                // Cooperative injected stall: park until the
                // watchdog notices and releases us (or shutdown).
                // The release is counted here, once per stall: the
                // watchdog may raise the flag again on every tick
                // before we see it.
                workersStalled.add();
                countInjected(fault::Site::WorkerStall);
                self.stalled.store(true, std::memory_order_release);
                while (!self.stallRelease.load(
                           std::memory_order_acquire) &&
                       !stopping.load(std::memory_order_acquire))
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                if (self.stallRelease.load(std::memory_order_relaxed))
                    workersUnstalled.add();
                self.stalled.store(false, std::memory_order_relaxed);
                self.stallRelease.store(false,
                                        std::memory_order_relaxed);
            }
            continue;
        }

        // Nothing found this sweep. Dekker handshake, consumer half:
        // announce the intent to sleep, fence, then re-check the
        // rings - any producer that pushed after our sweep either
        // sees sleeping==true (and notifies) or published before the
        // fence (and the re-check finds the frame).
        self.sleeping.store(true, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const bool all_empty =
            std::all_of(self.shards.begin(), self.shards.end(),
                        [&](std::size_t shard_index) {
                            return queues[shard_index]->ring->empty();
                        });
        if (!all_empty && !stopping.load(std::memory_order_acquire)) {
            self.sleeping.store(false, std::memory_order_relaxed);
            continue;
        }

        std::unique_lock<std::mutex> lock(self.mu);
        if (stopping.load(std::memory_order_acquire)) {
            self.sleeping.store(false, std::memory_order_relaxed);
            // Drain-before-stop means the rings are already empty by
            // the time stopping is observed; double-check anyway.
            if (all_empty)
                return;
            continue;
        }
        const std::uint64_t before_wait = telemetry::monotonicNanos();
        self.busyNs.add(before_wait - mark);
        // Timed park: the fence handshake above makes a missed notify
        // nearly impossible; the timeout makes even that self-heal
        // (see kParkTimeout).
        self.workAvailable.wait_for(lock, kParkTimeout, [&] {
            return self.wake || stopping.load(std::memory_order_acquire);
        });
        self.wake = false;
        self.sleeping.store(false, std::memory_order_relaxed);
        mark = telemetry::monotonicNanos();
        self.idleNs.add(mark - before_wait);
    }
}

void
Engine::watchdogLoop()
{
    std::vector<std::uint64_t> last_beat(workerStates.size(), 0);
    std::unique_lock<std::mutex> lock(watchdogMu);
    while (!stopping.load(std::memory_order_acquire)) {
        watchdogCv.wait_for(
            lock, std::chrono::milliseconds(cfg.watchdogIntervalMs),
            [&] { return stopping.load(std::memory_order_acquire); });
        if (stopping.load(std::memory_order_acquire))
            return;
        for (std::size_t w = 0; w < workerStates.size(); ++w) {
            WorkerState &worker = *workerStates[w];
            if (worker.stalled.load(std::memory_order_acquire)) {
                // Injected stall: release the worker, which counts
                // the recovery when it wakes.
                worker.stallRelease.store(true,
                                          std::memory_order_release);
                continue;
            }
            const std::uint64_t beat =
                worker.heartbeat.load(std::memory_order_relaxed);
            if (beat == last_beat[w] &&
                pendingFrames.load(std::memory_order_acquire) > 0) {
                // A silent worker while frames are pending. This is
                // an observation, not proof - the pending frames may
                // belong to another worker's shards - so it counts
                // and warns without intervening.
                stallDetections.add();
                if (!warnedStall.exchange(true,
                                          std::memory_order_relaxed))
                    warn("engine: watchdog saw a silent worker with "
                         "pending frames");
            }
            last_beat[w] = beat;
        }
    }
}

void
Engine::drain()
{
    // Delayed frames count as unfinished work: deliver them first so
    // a drained engine has truly processed everything it accepted.
    // Then wait out queued frames and frames other threads are
    // running inline.
    flushDelayed(true);
    std::unique_lock<std::mutex> lock(drainMu);
    drainCv.wait(lock, [&] {
        return pendingFrames.load(std::memory_order_acquire) == 0;
    });
}

void
Engine::shutdown()
{
    flushDelayed(true);
    if (workers.empty() && !watchdog.joinable())
        return;
    if (!workers.empty()) {
        drain();
        stopping.store(true, std::memory_order_release);
        for (const auto &worker : workerStates) {
            {
                std::lock_guard<std::mutex> lock(worker->mu);
                worker->wake = true;
            }
            worker->workAvailable.notify_all();
        }
        for (std::thread &thread : workers)
            thread.join();
        workers.clear();
    } else {
        stopping.store(true, std::memory_order_release);
    }
    if (watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdogMu);
        }
        watchdogCv.notify_all();
        watchdog.join();
    }
}

EngineStats
Engine::stats() const
{
    EngineStats stats;
    stats.framesSubmitted =
        framesSubmitted.load(std::memory_order_relaxed);
    stats.framesDecoded = framesDecoded.get();
    stats.rejects.truncated = rejectCounts[0].get();
    stats.rejects.badMagic = rejectCounts[1].get();
    stats.rejects.badKind = rejectCounts[2].get();
    stats.rejects.badLength = rejectCounts[3].get();
    stats.rejects.badCrc = rejectCounts[4].get();
    stats.rejects.badPayload = rejectCounts[5].get();
    stats.framesRejected = stats.rejects.total();
    stats.eventsProcessed = eventsProcessed.get();
    stats.predictions = predictionsMade.get();
    stats.batches = batchesPopped.get();
    stats.framesInline = framesInline.get();
    stats.backpressureWaits = backpressureWaits.get();

    const SessionTableStats table_stats = table.stats();
    stats.sessionsCreated = table_stats.created;
    stats.sessionsEvicted = table_stats.evicted;
    stats.sessionsIdleEvicted = table_stats.idleEvicted;
    stats.sessionsLive = table_stats.live;
    stats.sessionsExported = sessionsExported.get();
    stats.sessionsImported = sessionsImported.get();

    if (injector) {
        stats.fault.injectedBitFlips =
            injector->counters(fault::Site::WireBitFlip).injected;
        stats.fault.injectedTruncations =
            injector->counters(fault::Site::WireTruncate).injected;
        stats.fault.injectedDrops =
            injector->counters(fault::Site::FrameDrop).injected;
        stats.fault.injectedDelays =
            injector->counters(fault::Site::FrameDelay).injected;
        stats.fault.injectedStalls =
            injector->counters(fault::Site::WorkerStall).injected;
        stats.fault.injectedAllocFails =
            injector->counters(fault::Site::AllocFail).injected;
    }
    stats.fault.corruptFrames = corruptFrames.get();
    stats.fault.framesQuarantined = stats.rejects.total();
    stats.fault.delayedDelivered = delayedDelivered.get();
    stats.fault.sessionsPoisoned = sessionsPoisoned.get();
    stats.fault.sessionsRebuilt = table_stats.rebuilt;
    stats.fault.sessionsReadmitted = sessionsReadmitted.get();
    stats.fault.backoffDroppedFrames = backoffDropped.get();
    stats.fault.allocDroppedFrames = allocDropped.get();
    stats.fault.shedFrames = framesShed.get();
    stats.fault.workersStalled = workersStalled.get();
    stats.fault.workersUnstalled = workersUnstalled.get();
    stats.fault.stallDetections = stallDetections.get();
    stats.fault.framesApplied = framesApplied.get();

    stats.queueHighWater.reserve(queues.size());
    stats.queueDepth.reserve(queues.size());
    stats.queueBackpressureWaits.reserve(queues.size());
    for (const auto &queue : queues) {
        stats.queueHighWater.push_back(
            queue->highWater.load(std::memory_order_relaxed));
        stats.queueBackpressureWaits.push_back(
            queue->backpressureWaits.get());
        stats.queueDepth.push_back(
            queue->ring ? std::min(queue->ring->size(),
                                   cfg.queueCapacityFrames)
                        : 0);
        if (queue->degradation) {
            std::lock_guard<std::mutex> lock(queue->shedMu);
            stats.fault.degradedEntries +=
                queue->degradation->degradedEntries();
        }
    }
    stats.workerBusyNs.reserve(workerStates.size());
    stats.workerIdleNs.reserve(workerStates.size());
    for (const auto &worker : workerStates) {
        stats.workerBusyNs.push_back(worker->busyNs.get());
        stats.workerIdleNs.push_back(worker->idleNs.get());
    }
    return stats;
}

std::vector<PathIndex>
Engine::predictionsFor(std::uint64_t session_id) const
{
    std::vector<PathIndex> predictions;
    table.peekSession(session_id, [&](const Session &session) {
        predictions = session.predictions();
    });
    return predictions;
}

bool
Engine::exportSession(std::uint64_t session_id,
                      wire::SessionState &out) const
{
    out = wire::SessionState{};
    out.predictionDelay = cfg.sessions.session.predictionDelay;
    const bool resident =
        table.peekSession(session_id, [&](const Session &session) {
            session.exportState(out);
        });
    if (resident)
        sessionsExported.add();
    return resident;
}

void
Engine::importSession(std::uint64_t session_id,
                      const wire::SessionState &state)
{
    table.installSession(session_id, [&](Session &session) {
        session.importState(state);
    });
    sessionsImported.add();
}

} // namespace hotpath::engine
