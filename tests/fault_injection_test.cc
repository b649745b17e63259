/**
 * @file
 * Fault-injection and resilience tests: the injector's determinism
 * contract (same seed, same fault schedule), wire-format resync after
 * corruption (at most the corrupt frame is lost), session error
 * budgets with exponential re-admission backoff, allocation-failure
 * gating, delayed-frame redelivery, the degradation policy's
 * enter/exit discipline, and load shedding under sustained overload.
 *
 * Everything except the two threaded shedding tests runs the engine
 * in serial mode, where the injection schedule is a pure function of
 * the fault seed and the submission order - so every count asserted
 * here is exact, not a bound.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dynamo/flush.hh"
#include "engine/engine.hh"
#include "engine/wire_format.hh"
#include "support/fault_injector.hh"

using namespace hotpath;
using namespace hotpath::engine;

namespace
{

/** Loop-heavy event frames for one session (exact same shape the
 *  engine determinism tests use). */
std::vector<std::vector<std::uint8_t>>
makeFrames(std::uint64_t session, std::size_t frames,
           std::size_t events_per_frame, std::uint64_t first_sequence = 0)
{
    std::vector<std::vector<std::uint8_t>> out;
    std::uint64_t sequence = first_sequence;
    for (std::size_t f = 0; f < frames; ++f) {
        std::vector<PathEvent> events;
        for (std::size_t i = 0; i < events_per_frame; ++i) {
            const std::uint32_t loop =
                static_cast<std::uint32_t>((f * events_per_frame + i) % 8);
            PathEvent event;
            event.path = loop * 10;
            event.head = loop;
            event.blocks = 4 + loop;
            event.branches = 3 + loop;
            event.instructions = 30 + 5 * loop;
            events.push_back(event);
        }
        std::vector<std::uint8_t> frame;
        wire::appendEventFrame(frame, session, sequence++, events);
        out.push_back(std::move(frame));
    }
    return out;
}

/** A frame whose header parses but whose CRC fails (decode-time
 *  corruption, attributable to its session). */
std::vector<std::uint8_t>
corruptCrc(std::vector<std::uint8_t> frame)
{
    frame.back() ^= 0xFF;
    return frame;
}

} // namespace

// FaultInjector ----------------------------------------------------

TEST(FaultInjector, SameSeedSameSchedule)
{
    fault::FaultPlan plan;
    plan.seed = 12345;
    plan.site(fault::Site::WireBitFlip).probability = 0.3;
    plan.site(fault::Site::FrameDrop).everyN = 5;

    fault::FaultInjector a(plan);
    fault::FaultInjector b(plan);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t auxA = 0;
        std::uint64_t auxB = 0;
        ASSERT_EQ(a.shouldInject(fault::Site::WireBitFlip, &auxA),
                  b.shouldInject(fault::Site::WireBitFlip, &auxB));
        ASSERT_EQ(auxA, auxB);
        ASSERT_EQ(a.shouldInject(fault::Site::FrameDrop),
                  b.shouldInject(fault::Site::FrameDrop));
    }
    ASSERT_EQ(a.counters(fault::Site::WireBitFlip).injected,
              b.counters(fault::Site::WireBitFlip).injected);
    ASSERT_GT(a.counters(fault::Site::WireBitFlip).injected, 0u);

    // A different seed produces a different probabilistic schedule.
    fault::FaultPlan reseeded = plan;
    reseeded.seed = 54321;
    fault::FaultInjector a2(plan);
    fault::FaultInjector c(reseeded);
    bool any_difference = false;
    for (int i = 0; i < 1000; ++i)
        any_difference |=
            a2.shouldInject(fault::Site::WireBitFlip) !=
            c.shouldInject(fault::Site::WireBitFlip);
    ASSERT_TRUE(any_difference);
}

TEST(FaultInjector, EveryNFiresExactly)
{
    fault::FaultPlan plan;
    plan.site(fault::Site::WireTruncate).everyN = 7;
    fault::FaultInjector injector(plan);
    for (std::uint64_t n = 1; n <= 70; ++n)
        ASSERT_EQ(injector.shouldInject(fault::Site::WireTruncate),
                  n % 7 == 0)
            << "opportunity " << n;
    ASSERT_EQ(injector.counters(fault::Site::WireTruncate).opportunities,
              70u);
    ASSERT_EQ(injector.counters(fault::Site::WireTruncate).injected,
              10u);
    ASSERT_EQ(injector.totalInjected(), 10u);
}

TEST(FaultInjector, UnarmedPlanNeverFires)
{
    fault::FaultPlan plan;
    ASSERT_FALSE(plan.enabled());
    fault::FaultInjector injector(plan);
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
        const auto site = static_cast<fault::Site>(s);
        ASSERT_FALSE(injector.armed(site));
        for (int i = 0; i < 100; ++i)
            ASSERT_FALSE(injector.shouldInject(site));
        // Unarmed sites do not even pay the opportunity counter.
        ASSERT_EQ(injector.counters(site).opportunities, 0u);
    }
}

// Wire-format resync -----------------------------------------------

TEST(WireResync, FindNextFrameSkipsCorruption)
{
    const auto frames = makeFrames(/*session=*/9, /*frames=*/4,
                                   /*events_per_frame=*/32);
    std::vector<std::uint8_t> buffer;
    std::vector<std::size_t> starts;
    for (const auto &frame : frames) {
        starts.push_back(buffer.size());
        buffer.insert(buffer.end(), frame.begin(), frame.end());
    }

    // Clean buffer: every frame start is found from just before it.
    bool complete = false;
    for (std::size_t f = 0; f < starts.size(); ++f) {
        ASSERT_EQ(wire::findFrameBoundary(
                      buffer.data(), buffer.size(),
                      f == 0 ? 0 : starts[f - 1] + 1, &complete),
                  starts[f]);
        ASSERT_TRUE(complete);
    }

    // Corrupt frame 1's payload: scanning from inside it lands on
    // frame 2, never on a fabricated boundary inside the damage.
    buffer[starts[1] + 10] ^= 0x40;
    ASSERT_EQ(wire::findFrameBoundary(buffer.data(), buffer.size(),
                                      starts[1], &complete),
              starts[2]);
    ASSERT_TRUE(complete);

    // No valid frame after the last one: returns size.
    ASSERT_EQ(wire::findFrameBoundary(buffer.data(), buffer.size(),
                                      starts.back() + 1, &complete),
              buffer.size());
    ASSERT_FALSE(complete);
}

TEST(EngineResilience, SubmitBufferResyncsAfterCorruptHeader)
{
    // Six frames, submitted one at a time. Destroy frame 2's magic:
    // its header no longer parses, so the engine must reject that
    // frame alone and apply the five around it.
    auto frames = makeFrames(/*session=*/5, /*frames=*/6,
                             /*events_per_frame=*/64);
    frames[2][0] = 0x00;

    EngineConfig config;
    config.workerThreads = 0;
    Engine eng(config);
    for (std::size_t f = 0; f < frames.size(); ++f)
        ASSERT_EQ(eng.submit(frames[f]), f != 2);
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 6u);
    EXPECT_EQ(stats.framesDecoded, 5u);
    EXPECT_EQ(stats.framesRejected, 1u);
    EXPECT_EQ(stats.fault.framesQuarantined, 1u);
    EXPECT_EQ(stats.eventsProcessed, 5u * 64u);
}

// Error budget and re-admission backoff ----------------------------

TEST(EngineResilience, BackoffReadmissionTiming)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.sessions.session.errorBudget = 2;
    config.sessions.session.backoffBaseFrames = 4;

    Engine eng(config);
    const std::uint64_t id = 1;
    std::uint64_t sequence = 0;
    const auto good = [&](std::size_t n) {
        for (const auto &frame :
             makeFrames(id, n, /*events_per_frame=*/16, sequence))
            ASSERT_TRUE(eng.submit(frame));
        sequence += n;
    };
    const auto bad = [&](std::size_t n) {
        for (const auto &frame :
             makeFrames(id, n, /*events_per_frame=*/16, sequence))
            eng.submit(corruptCrc(frame));
        sequence += n;
    };

    good(5); // healthy traffic
    bad(2);  // exhausts the budget: poison #1, backoff = 4 frames
    good(4); // all dropped in backoff; the 4th re-admits
    good(3); // applied again
    bad(2);  // poison #2: backoff doubles to 8 frames
    good(8); // dropped; the 8th re-admits
    good(2); // applied
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 26u);
    EXPECT_EQ(stats.framesRejected, 4u);
    EXPECT_EQ(stats.rejects.badCrc, 4u);
    EXPECT_EQ(stats.framesDecoded, 22u);
    EXPECT_EQ(stats.fault.sessionsPoisoned, 2u);
    EXPECT_EQ(stats.fault.sessionsRebuilt, 2u);
    EXPECT_EQ(stats.fault.sessionsReadmitted, 2u);
    EXPECT_EQ(stats.fault.backoffDroppedFrames, 12u);
    EXPECT_EQ(stats.fault.framesApplied, 10u);
    // Conservation: nothing lost silently.
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
}

// Allocation-failure gating ----------------------------------------

TEST(EngineResilience, AllocFailureDropsFramesVisibly)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.faults.seed = 11;
    config.faults.site(fault::Site::AllocFail).everyN = 2;

    Engine eng(config);
    // Ten sessions, two frames each. Creation opportunities run
    // 1, 2, 3, ... and every even one fails: session 1 creates on
    // its first frame; each later session loses its first frame to
    // the injected failure and creates on its second.
    for (std::uint64_t id = 1; id <= 10; ++id)
        for (const auto &frame : makeFrames(id, 2, 8))
            ASSERT_TRUE(eng.submit(frame));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesDecoded, 20u);
    EXPECT_EQ(stats.fault.injectedAllocFails, 9u);
    EXPECT_EQ(stats.fault.allocDroppedFrames, 9u);
    EXPECT_EQ(stats.fault.framesApplied, 11u);
    EXPECT_EQ(stats.sessionsCreated, 10u);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
}

// Delayed frames ---------------------------------------------------

TEST(EngineResilience, DelayedFramesAllDeliveredByDrain)
{
    EngineConfig config;
    config.workerThreads = 0;
    config.delayWindowFrames = 5;
    config.faults.seed = 23;
    config.faults.site(fault::Site::FrameDelay).everyN = 3;

    Engine eng(config);
    for (const auto &frame : makeFrames(/*session=*/4, 30, 8))
        ASSERT_TRUE(eng.submit(frame));
    eng.drain();

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.framesSubmitted, 30u);
    EXPECT_EQ(stats.fault.injectedDelays, 10u);
    EXPECT_EQ(stats.fault.delayedDelivered, 10u);
    // Every frame - delayed or not - was eventually decoded and
    // applied; the damage is reordering, visible as sequence gaps.
    EXPECT_EQ(stats.framesDecoded, 30u);
    EXPECT_EQ(stats.fault.framesApplied, 30u);
    std::uint64_t gaps = 0;
    ASSERT_TRUE(eng.withSessionStats(4, [&](const Session &session) {
        gaps = session.stats().sequenceGaps;
    }));
    EXPECT_GT(gaps, 0u);
}

// Degradation policy -----------------------------------------------

TEST(DegradationPolicy, EntersAndExitsDeterministically)
{
    DegradationPolicyConfig config;
    config.spike.windowEvents = 4;
    config.spike.spikeFloor = 2;
    config.spike.spikeFactor = 1.0;
    config.spike.smoothing = 0.5;
    config.spike.warmupWindows = 1;
    config.degradedWindows = 2;

    DegradationPolicy policy(config);
    const auto feedWindow = [&](bool pressure) {
        DegradationMode mode = policy.mode();
        for (std::uint64_t i = 0; i < config.spike.windowEvents; ++i)
            mode = policy.onEvent(pressure);
        return mode;
    };

    ASSERT_EQ(policy.mode(), DegradationMode::Normal);
    // Warmup window: even full pressure cannot trigger yet.
    ASSERT_EQ(feedWindow(true), DegradationMode::Normal);
    // First live window of sustained pressure: spike, degrade.
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    ASSERT_EQ(policy.degradedEntries(), 1u);
    // Pressure persists: stays degraded.
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    // Two quiet windows: recovery.
    ASSERT_EQ(feedWindow(false), DegradationMode::Degraded);
    ASSERT_EQ(feedWindow(false), DegradationMode::Normal);
    // Post-recovery warmup window is spike-blind (settle()
    // discipline), then the detector is live again.
    ASSERT_EQ(feedWindow(true), DegradationMode::Normal);
    ASSERT_EQ(feedWindow(true), DegradationMode::Degraded);
    ASSERT_EQ(policy.degradedEntries(), 2u);
}

// Load shedding + worker stalls (threaded; bounds, not exact counts)

TEST(EngineResilience, LoadShedPreservesHitRateWithinBounds)
{
    const std::size_t kFrames = 400;
    const std::size_t kEventsPerFrame = 32;

    // Overloaded threaded run: one worker, a tiny queue, injected
    // worker stalls (released by the watchdog) and drop-oldest
    // shedding under a fast-reacting degradation policy.
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 4;
    config.maxBatchFrames = 2;
    config.overloadPolicy = OverloadPolicy::DropOldest;
    config.degradation.spike.windowEvents = 8;
    config.degradation.spike.spikeFloor = 2;
    config.degradation.spike.spikeFactor = 1.0;
    config.degradation.spike.smoothing = 0.5;
    config.degradation.spike.warmupWindows = 1;
    config.degradation.degradedWindows = 2;
    config.faults.seed = 31;
    config.faults.site(fault::Site::WorkerStall).everyN = 4;
    config.watchdogIntervalMs = 2;

    EngineStats stats;
    double shed_hit_rate = 0.0;
    {
        Engine eng(config);
        for (const auto &frame :
             makeFrames(/*session=*/8, kFrames, kEventsPerFrame))
            ASSERT_TRUE(eng.submit(frame));
        eng.drain();
        std::uint64_t cached = 0;
        std::uint64_t events = 0;
        ASSERT_TRUE(
            eng.withSessionStats(8, [&](const Session &session) {
                cached = session.stats().cachedEvents;
                events = session.stats().eventsProcessed;
            }));
        ASSERT_GT(events, 0u);
        shed_hit_rate =
            static_cast<double>(cached) / static_cast<double>(events);
        eng.shutdown();
        stats = eng.stats();
    }

    // Conservation holds whatever the thread timing did.
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.fault.injectedDrops +
                  stats.fault.shedFrames + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
    // Injected stalls were all released (watchdog or shutdown), or
    // the test would have hung at drain().
    EXPECT_LE(stats.fault.workersUnstalled,
              stats.fault.workersStalled);

    // Every frame in this traffic is identical (events cycle i % 8
    // within each frame) and a single session keeps FIFO order, so
    // the session's hit rate is a pure function of how many frames
    // were applied - regardless of *which* frames shedding dropped.
    // A clean serial run fed exactly that many frames must therefore
    // reproduce the shed run's hit rate exactly: shedding degrades
    // coverage (fewer events), never prediction quality.
    const std::uint64_t applied = stats.fault.framesApplied;
    ASSERT_GT(applied, 0u);
    EngineConfig reference;
    reference.workerThreads = 0;
    Engine ref(reference);
    for (const auto &frame : makeFrames(
             /*session=*/8, static_cast<std::size_t>(applied),
             kEventsPerFrame))
        ASSERT_TRUE(ref.submit(frame));
    ref.drain();
    double reference_hit_rate = 0.0;
    ASSERT_TRUE(ref.withSessionStats(8, [&](const Session &session) {
        reference_hit_rate =
            static_cast<double>(session.stats().cachedEvents) /
            static_cast<double>(session.stats().eventsProcessed);
    }));
    EXPECT_NEAR(shed_hit_rate, reference_hit_rate, 1e-12);
}

TEST(EngineResilience,
     ForcedSheddingDropsTheOldestQueuedFramesWithoutBlocking)
{
    // The worker is held inside frame 0's completion callback while
    // the test thread submits frames 1-10 into a 4-frame queue. With
    // shedding forced, no submit may block behind the stalled worker:
    // each one past the bound sheds the oldest queued frame, which
    // completes unapplied on the submitting thread.
    EngineConfig config;
    config.workerThreads = 1;
    config.queueCapacityFrames = 4;
    config.maxBatchFrames = 4;
    config.overloadPolicy = OverloadPolicy::DropOldest;

    struct Completion
    {
        std::uint64_t sequence = 0;
        bool applied = false;
        bool onTestThread = false;
    };
    const std::thread::id test_thread = std::this_thread::get_id();
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::mutex mu;
    std::vector<Completion> completions;

    Engine eng(config);
    eng.setForcedShedding(true);
    eng.setFrameCallback([&](const FrameOutcome &outcome) {
        if (outcome.sequence == 0) {
            started.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
        std::lock_guard<std::mutex> lock(mu);
        completions.push_back(
            {outcome.sequence, outcome.applied,
             std::this_thread::get_id() == test_thread});
    });

    const auto frames = makeFrames(/*session=*/5, 11, 16);
    EXPECT_TRUE(eng.submit(frames[0]));
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    for (std::size_t seq = 1; seq <= 10; ++seq)
        EXPECT_TRUE(eng.submit(frames[seq]));
    std::vector<Completion> before_release;
    {
        std::lock_guard<std::mutex> lock(mu);
        before_release = completions;
    }
    release.store(true, std::memory_order_release);
    eng.drain();

    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(before_release.size(), 6u);
    for (std::size_t i = 0; i < before_release.size(); ++i) {
        EXPECT_EQ(before_release[i].sequence, i + 1);
        EXPECT_FALSE(before_release[i].applied);
        EXPECT_TRUE(before_release[i].onTestThread);
    }
    ASSERT_EQ(completions.size(), 11u);
    const std::uint64_t kept[] = {0, 7, 8, 9, 10};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(completions[6 + i].sequence, kept[i]);
        EXPECT_TRUE(completions[6 + i].applied);
    }

    const EngineStats stats = eng.stats();
    EXPECT_EQ(stats.fault.shedFrames, 6u);
    EXPECT_EQ(stats.fault.framesApplied, 5u);
    EXPECT_EQ(stats.framesSubmitted,
              stats.framesRejected + stats.fault.injectedDrops +
                  stats.fault.shedFrames + stats.framesDecoded);
    EXPECT_EQ(stats.framesDecoded,
              stats.fault.framesApplied +
                  stats.fault.backoffDroppedFrames +
                  stats.fault.allocDroppedFrames);
}
