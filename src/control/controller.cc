#include "control/controller.hh"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>

#include "engine/engine.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::control
{

namespace
{

/**
 * The τ ladder, ascending. Retunes move sessions one rung at a time;
 * a session whose τ is between rungs snaps to the nearest rung on its
 * first move. The rungs bracket the paper's operating range: 8
 * (reactive), 64 (the "less is more" sweet spot), 1000
 * (conservative).
 */
constexpr std::array<std::uint64_t, 3> kTauRungs = {8, 64, 1000};
static_assert(std::is_sorted(kTauRungs.begin(), kTauRungs.end()),
              "tau rungs must ascend");

/** Retune decisions kept in the in-memory log (oldest dropped
 *  first); the determinism test replays the whole log. */
constexpr std::size_t kDecisionLogCap = 4096;

/** Index of the rung nearest to `tau` (first rung >= tau, else the
 *  top rung). */
std::size_t
rungOf(std::uint64_t tau)
{
    for (std::size_t i = 0; i < kTauRungs.size(); ++i)
        if (kTauRungs[i] >= tau)
            return i;
    return kTauRungs.size() - 1;
}

} // namespace

Controller::Controller(engine::Engine &eng) : eng(eng)
{
    tmRetunes = telemetry::counter("control.retunes");
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        classTallies[i].attach(
            std::string("control.class.") +
            sessionClassName(static_cast<SessionClass>(i)));
}

void
Controller::step()
{
    std::lock_guard<std::mutex> guard(mu);
    epochCount.add();

    // 1. Snapshot every resident session. The forEach order depends
    // on hashing, so sort by id before classifying - the decision
    // log must not depend on shard layout.
    scratchSamples.clear();
    eng.sessions().forEach([this](const engine::Session &session) {
        const engine::SessionStats &stats = session.stats();
        SessionSample sample;
        sample.session = session.id();
        sample.events = stats.eventsProcessed;
        sample.cached = stats.cachedEvents;
        sample.predictions = stats.predictions;
        sample.counters = session.countersAllocated();
        sample.predictionDelay = session.predictionDelay();
        scratchSamples.push_back(sample);
    });
    std::sort(scratchSamples.begin(), scratchSamples.end(),
              [](const SessionSample &a, const SessionSample &b) {
                  return a.session < b.session;
              });
    observedCount.set(static_cast<std::int64_t>(scratchSamples.size()));
    rungOccupancy.assign(kTauRungs.size(), 0);
    for (const SessionSample &sample : scratchSamples)
        ++rungOccupancy[rungOf(sample.predictionDelay)];

    // 2+3. Classify each session's closed epoch and move one ladder
    // rung when the verdict calls for it.
    for (const SessionSample &sample : scratchSamples) {
        const SessionClass cls = classifier.observe(sample);
        classTallies[static_cast<std::size_t>(cls)].add();

        const std::size_t rung = rungOf(sample.predictionDelay);
        std::size_t target = rung;
        switch (cls) {
        case SessionClass::Noisy:
            // Junk promotions: raise τ so only genuinely hot paths
            // clear the bar.
            if (rung + 1 < kTauRungs.size())
                target = rung + 1;
            break;
        case SessionClass::PhaseShifting:
        case SessionClass::HeadChurn:
            // The working set moved: lower τ so the new hot paths
            // are promoted before the next move.
            if (rung > 0)
                target = rung - 1;
            break;
        case SessionClass::Idle:
        case SessionClass::Stable:
            break;
        }
        const std::uint64_t tau_after = kTauRungs[target];
        if (tau_after == sample.predictionDelay)
            continue;
        if (!eng.retuneSession(sample.session, tau_after))
            continue; // evicted between snapshot and retune

        --rungOccupancy[rung];
        ++rungOccupancy[target];
        decisionCount.add();
        if (tmRetunes)
            tmRetunes->add(1);
        if (log.size() >= kDecisionLogCap)
            log.erase(log.begin());
        log.push_back(ControlDecision{epochCount.get(), sample.session,
                                      cls, sample.predictionDelay,
                                      tau_after});
        // Settling time: drop the session's history so the next
        // epoch re-seeds under the new τ and the one after is the
        // first to judge it.
        classifier.forget(sample.session);
    }
}

std::uint64_t
Controller::epoch() const
{
    std::lock_guard<std::mutex> guard(mu);
    return epochCount.get();
}

std::vector<ControlDecision>
Controller::decisions() const
{
    std::lock_guard<std::mutex> guard(mu);
    return log;
}

ControlStats
Controller::stats() const
{
    std::lock_guard<std::mutex> guard(mu);
    ControlStats out;
    out.epochs = epochCount.get();
    out.decisions = decisionCount.get();
    out.sessionsObserved =
        static_cast<std::uint64_t>(observedCount.get());
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        out.classCounts[i] = classTallies[i].get();
    return out;
}

void
Controller::appendStats(std::ostream &os) const
{
    std::lock_guard<std::mutex> guard(mu);
    os << ",\"control_epoch\":" << epochCount.get()
       << ",\"control_decisions\":" << decisionCount.get()
       << ",\"control_sessions_observed\":" << observedCount.get();
    for (std::size_t i = 0; i < kSessionClassCount; ++i)
        os << ",\"control_class_"
           << sessionClassName(static_cast<SessionClass>(i))
           << "\":" << classTallies[i].get();

    // The τ ladder and its occupancy (sessions per rung as of the
    // last epoch's snapshot) as flat arrays, so engine_top can show
    // where the fleet of sessions currently sits.
    os << ",\"control_tau_rungs\":[";
    for (std::size_t i = 0; i < kTauRungs.size(); ++i)
        os << (i ? "," : "") << kTauRungs[i];
    os << "],\"control_tau_sessions\":[";
    for (std::size_t i = 0; i < kTauRungs.size(); ++i)
        os << (i ? "," : "")
           << (i < rungOccupancy.size() ? rungOccupancy[i] : 0);
    os << "]";

    // The most recent retune, flattened (class as the SessionClass
    // index; engine_top maps it back to a name).
    if (!log.empty()) {
        const ControlDecision &last = log.back();
        os << ",\"control_last_epoch\":" << last.epoch
           << ",\"control_last_session\":" << last.session
           << ",\"control_last_class\":"
           << static_cast<unsigned>(last.cls)
           << ",\"control_last_tau_before\":" << last.tauBefore
           << ",\"control_last_tau_after\":" << last.tauAfter;
    }
}

} // namespace hotpath::control
