/**
 * @file
 * Adaptive control plane tests: classifier rule coverage over
 * hand-built samples, the controller's τ ladder moves against live
 * engine sessions, the admin-stats fragment, and the determinism
 * contract (same traffic + same step schedule => identical decision
 * logs and predictions at any worker count; the engine-tsan CI job
 * runs this file under ThreadSanitizer).
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/classifier.hh"
#include "control/controller.hh"
#include "engine/engine.hh"
#include "progen/adversarial.hh"

using namespace hotpath;
using namespace hotpath::control;

namespace
{

/** One observation: cumulative counters after another epoch. */
SessionSample
sample(std::uint64_t session, std::uint64_t events,
       std::uint64_t cached, std::uint64_t predictions,
       std::uint64_t counters, std::uint64_t tau = 64)
{
    SessionSample s;
    s.session = session;
    s.events = events;
    s.cached = cached;
    s.predictions = predictions;
    s.counters = counters;
    s.predictionDelay = tau;
    return s;
}

engine::EngineConfig
controlEngineConfig(std::size_t workers, std::uint64_t tau,
                    bool record = false)
{
    engine::EngineConfig cfg;
    cfg.workerThreads = workers;
    cfg.sessions.session.predictionDelay = tau;
    cfg.sessions.session.cacheCapacityInstr = 2600;
    cfg.sessions.session.recordPredictions = record;
    return cfg;
}

/** Feed `events` events of `stream` to `session` as one frame per
 *  250 events. */
void
feed(engine::Engine &eng, std::uint64_t session,
     std::uint64_t &sequence, AdversarialStream &stream,
     std::uint64_t events)
{
    std::vector<PathEvent> frame;
    for (std::uint64_t done = 0; done < events; done += 250) {
        frame.clear();
        for (int i = 0; i < 250; ++i)
            frame.push_back(stream.next());
        eng.submitEvents(session, sequence++, frame.data(),
                         frame.size());
    }
}

} // namespace

// --- SessionClassifier --------------------------------------------

TEST(SessionClassifier, FirstObservationSeedsAndReturnsIdle)
{
    SessionClassifier cls;
    EXPECT_EQ(cls.observe(sample(1, 5000, 4900, 0, 4)),
              SessionClass::Idle);
    EXPECT_EQ(cls.tracked(), 1u);
}

TEST(SessionClassifier, QuietEpochIsIdle)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 0, 4));
    // Only 100 events this epoch (< minEventsPerEpoch 256).
    EXPECT_EQ(cls.observe(sample(1, 1100, 990, 0, 4)),
              SessionClass::Idle);
}

TEST(SessionClassifier, HighCoverageQuietPredictorIsStable)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 10, 4));
    // 2000 more events, 95% cached, no predictions, no new heads.
    EXPECT_EQ(cls.observe(sample(1, 3000, 2800, 10, 4)),
              SessionClass::Stable);
}

TEST(SessionClassifier, CounterGrowthIsHeadChurn)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 10, 4));
    // 16 new head counters over 2000 events = 8/kilo >= 6.
    EXPECT_EQ(cls.observe(sample(1, 3000, 2800, 10, 20)),
              SessionClass::HeadChurn);
}

TEST(SessionClassifier, PredictionVelocityIsNoisy)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 0, 4));
    // 40 predictions over 2000 events = 20/kilo >= 12, even though
    // coverage is high - junk promotion is junk promotion.
    EXPECT_EQ(cls.observe(sample(1, 3000, 2900, 40, 4)),
              SessionClass::Noisy);
}

TEST(SessionClassifier, CollapsedCoverageIsPhaseShifting)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 0, 4));
    // 50% coverage, quiet predictor, no counter growth.
    EXPECT_EQ(cls.observe(sample(1, 3000, 1900, 0, 4)),
              SessionClass::PhaseShifting);
}

TEST(SessionClassifier, CoverageOscillationIsPhaseShifting)
{
    SessionClassifier cls;
    SessionSignals sig;
    cls.observe(sample(1, 0, 0, 0, 4));
    std::uint64_t events = 0, cached = 0;
    // Alternate 97% and 60% coverage epochs: each alone averages
    // above the low-coverage bar some of the time, but the windowed
    // spread (>= 250 permille) betrays the oscillation.
    SessionClass last = SessionClass::Stable;
    for (int epoch = 0; epoch < 6; ++epoch) {
        events += 2000;
        cached += (epoch % 2 == 0) ? 1940 : 1200;
        last = cls.observe(sample(1, events, cached, 0, 4), &sig);
    }
    EXPECT_GE(sig.spreadPermille, 250u);
    EXPECT_EQ(last, SessionClass::PhaseShifting);
}

TEST(SessionClassifier, ForgetReseedsTheBaseline)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 100, 0, 4));
    cls.forget(1);
    EXPECT_EQ(cls.tracked(), 0u);
    // Re-seed: first observation after forget is Idle again even
    // though the cumulative counters moved a lot.
    EXPECT_EQ(cls.observe(sample(1, 9000, 200, 0, 4)),
              SessionClass::Idle);
}

TEST(SessionClassifier, CounterShrinkIsNotChurn)
{
    SessionClassifier cls;
    cls.observe(sample(1, 1000, 900, 0, 100));
    // Eviction shrank the counter space; a shrink must not read as
    // head churn.
    SessionSignals sig;
    EXPECT_EQ(cls.observe(sample(1, 3000, 2900, 0, 10), &sig),
              SessionClass::Stable);
    EXPECT_EQ(sig.churnPerKiloEvent, 0u);
}

// --- Controller ladder moves --------------------------------------

TEST(Controller, NoisySessionStepsUpTheLadder)
{
    // τ=8 with a fresh path every event under one head: every 8th
    // event promotes a path that never recurs - pure junk velocity.
    engine::Engine eng(controlEngineConfig(0, 8));
    Controller ctl(eng);

    std::uint64_t sequence = 0;
    std::vector<PathEvent> frame;
    for (int epoch = 0; epoch < 2; ++epoch) {
        frame.clear();
        for (int i = 0; i < 500; ++i) {
            PathEvent e;
            e.path = static_cast<PathIndex>(1000 + epoch * 500 + i);
            e.head = 7;
            e.blocks = 4;
            e.branches = 3;
            e.instructions = 40;
            frame.push_back(e);
        }
        eng.submitEvents(4, sequence++, frame.data(), frame.size());
        ctl.step();
    }

    const auto log = ctl.decisions();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].session, 4u);
    EXPECT_EQ(log[0].cls, SessionClass::Noisy);
    EXPECT_EQ(log[0].tauBefore, 8u);
    EXPECT_EQ(log[0].tauAfter, 64u);
    bool saw = eng.withSessionStats(4, [](const engine::Session &s) {
        EXPECT_EQ(s.predictionDelay(), 64u);
    });
    EXPECT_TRUE(saw);
}

TEST(Controller, ChurningSessionStepsDownTheLadder)
{
    engine::Engine eng(controlEngineConfig(0, 64));
    Controller ctl(eng);
    AdversarialConfig wcfg;
    AdversarialStream stream(AdversarialKind::HeadChurn, wcfg);

    std::uint64_t sequence = 0;
    for (int epoch = 0; epoch < 2; ++epoch) {
        feed(eng, 9, sequence, stream, 2000);
        ctl.step();
    }

    const auto log = ctl.decisions();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].cls, SessionClass::HeadChurn);
    EXPECT_EQ(log[0].tauBefore, 64u);
    EXPECT_EQ(log[0].tauAfter, 8u);
    EXPECT_EQ(ctl.stats().decisions, 1u);
}

TEST(Controller, BottomRungHolds)
{
    // Already at the most reactive rung: HeadChurn traffic has
    // nowhere to go, so no decision is logged.
    engine::Engine eng(controlEngineConfig(0, 8));
    Controller ctl(eng);
    AdversarialConfig wcfg;
    AdversarialStream stream(AdversarialKind::HeadChurn, wcfg);

    std::uint64_t sequence = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        feed(eng, 9, sequence, stream, 2000);
        ctl.step();
    }
    EXPECT_TRUE(ctl.decisions().empty());
    EXPECT_EQ(ctl.epoch(), 4u);
}

TEST(Controller, AppendStatsEmitsFlatJsonFragments)
{
    engine::Engine eng(controlEngineConfig(0, 64));
    Controller ctl(eng);
    ctl.step();

    std::ostringstream os;
    ctl.appendStats(os);
    const std::string out = os.str();
    // Splices into a JSON object: must start with a comma and
    // contain the control_* keys the admin /stats surface documents.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], ',');
    EXPECT_NE(out.find("\"control_epoch\":1"), std::string::npos);
    EXPECT_NE(out.find("\"control_class_stable\":"),
              std::string::npos);
    EXPECT_NE(out.find("\"control_tau_rungs\":[8,64,1000]"),
              std::string::npos);
    EXPECT_NE(out.find("\"control_tau_sessions\":[0,0,0]"),
              std::string::npos);
    // No retune yet: the last-decision keys must be absent rather
    // than emitted as zeros.
    EXPECT_EQ(out.find("\"control_last_epoch\":"),
              std::string::npos);
}

TEST(Controller, AppendStatsReportsLadderOccupancyAndLastDecision)
{
    engine::Engine eng(controlEngineConfig(0, 64));
    Controller ctl(eng);
    AdversarialConfig wcfg;
    AdversarialStream stream(AdversarialKind::HeadChurn, wcfg);
    std::uint64_t sequence = 0;
    for (int epoch = 0; epoch < 2; ++epoch) {
        feed(eng, 9, sequence, stream, 2000);
        ctl.step();
    }

    std::ostringstream os;
    ctl.appendStats(os);
    const std::string out = os.str();
    // The churning session was stepped down 64 -> 8, so it now sits
    // on the bottom rung.
    EXPECT_NE(out.find("\"control_tau_sessions\":[1,0,0]"),
              std::string::npos);
    EXPECT_NE(out.find("\"control_last_session\":9"),
              std::string::npos);
    EXPECT_NE(out.find("\"control_last_tau_before\":64"),
              std::string::npos);
    EXPECT_NE(out.find("\"control_last_tau_after\":8"),
              std::string::npos);
}

// --- Determinism across worker counts -----------------------------

TEST(Controller, DecisionsAndPredictionsDeterministicAcrossWorkers)
{
    struct Run
    {
        std::vector<ControlDecision> log;
        std::vector<std::vector<PathIndex>> predictions;
    };

    const auto run = [](std::size_t workers) {
        engine::Engine eng(controlEngineConfig(workers, 64,
                                               /*record=*/true));
        Controller ctl(eng);
        std::vector<AdversarialStream> streams;
        streams.emplace_back(AdversarialKind::PhaseThrash,
                             AdversarialConfig{});
        streams.emplace_back(AdversarialKind::HeadChurn,
                             AdversarialConfig{});
        streams.emplace_back(AdversarialKind::ZipfTail,
                             AdversarialConfig{});
        std::vector<std::uint64_t> sequences(streams.size(), 0);

        for (int epoch = 0; epoch < 10; ++epoch) {
            for (std::size_t i = 0; i < streams.size(); ++i)
                feed(eng, i + 1, sequences[i], streams[i], 1000);
            eng.drain();
            ctl.step();
        }
        eng.drain();

        Run out;
        out.log = ctl.decisions();
        for (std::size_t i = 0; i < streams.size(); ++i)
            out.predictions.push_back(eng.predictionsFor(i + 1));
        return out;
    };

    const Run serial = run(0);
    const Run threaded = run(8);

    ASSERT_EQ(serial.log.size(), threaded.log.size());
    for (std::size_t i = 0; i < serial.log.size(); ++i) {
        EXPECT_EQ(serial.log[i].epoch, threaded.log[i].epoch);
        EXPECT_EQ(serial.log[i].session, threaded.log[i].session);
        EXPECT_EQ(serial.log[i].cls, threaded.log[i].cls);
        EXPECT_EQ(serial.log[i].tauBefore, threaded.log[i].tauBefore);
        EXPECT_EQ(serial.log[i].tauAfter, threaded.log[i].tauAfter);
    }
    EXPECT_FALSE(serial.log.empty())
        << "the adversarial mix should force at least one retune";
    EXPECT_EQ(serial.predictions, threaded.predictions);
    for (const auto &paths : serial.predictions)
        EXPECT_FALSE(paths.empty());
}
