#include "control/classifier.hh"

#include <algorithm>

namespace hotpath::control
{

namespace
{

// Classification thresholds, in permille / per-kilo-event units.
// They are tuned against the adversarial workloads in
// src/progen/adversarial.hh; see docs/OPERATIONS.md "Adaptive
// control" before changing them.

/** Epochs with fewer events than this classify as Idle. */
constexpr std::uint64_t kMinEventsPerEpoch = 256;

/** HeadChurn when new head counters per kilo-event reach this. */
constexpr std::uint32_t kChurnPerKiloEvent = 6;

/** Noisy when predictions per kilo-event reach this. A converged
 *  session promotes almost nothing (its hot paths are cached and stop
 *  feeding the predictor), so sustained promotion velocity is junk
 *  promotion regardless of the coverage it leaves. */
constexpr std::uint32_t kNoisyVelocityPerKiloEvent = 12;

/** PhaseShifting when coverage falls below this permille. Set well
 *  below a healthy-but-bursty session's worst epoch: only a genuine
 *  working-set move collapses coverage this far. */
constexpr std::uint32_t kLowCoveragePermille = 750;

/** Sliding window (in epochs) for the coverage spread signal. */
constexpr std::size_t kSpreadWindowEpochs = 4;

/** PhaseShifting when the windowed coverage spread (max - min)
 *  reaches this permille, even if the mean coverage is high. */
constexpr std::uint32_t kPhaseSpreadPermille = 250;

/** 1000 * num / den with integer arithmetic; 0 when den is 0. */
std::uint32_t
permilleOf(std::uint64_t num, std::uint64_t den)
{
    if (den == 0)
        return 0;
    return static_cast<std::uint32_t>((num * 1000) / den);
}

} // namespace

const char *
sessionClassName(SessionClass cls)
{
    switch (cls) {
    case SessionClass::Idle:
        return "idle";
    case SessionClass::Stable:
        return "stable";
    case SessionClass::Noisy:
        return "noisy";
    case SessionClass::PhaseShifting:
        return "phase";
    case SessionClass::HeadChurn:
        return "churn";
    }
    return "unknown";
}

SessionClass
SessionClassifier::observe(const SessionSample &sample,
                           SessionSignals *signals_out)
{
    auto [it, fresh] = states.try_emplace(sample.session);
    State &state = it->second;
    if (fresh) {
        // First sight of this session: no previous epoch to delta
        // against, so just seed the baseline.
        state.prev = sample;
        if (signals_out)
            *signals_out = SessionSignals{};
        return SessionClass::Idle;
    }

    SessionSignals sig;
    sig.events = sample.events - state.prev.events;
    const std::uint64_t d_cached = sample.cached - state.prev.cached;
    const std::uint64_t d_predictions =
        sample.predictions - state.prev.predictions;
    // Counter count is a level: eviction can shrink it, and a shrink
    // is not churn, so clamp the delta at zero.
    const std::uint64_t d_counters =
        sample.counters > state.prev.counters
            ? sample.counters - state.prev.counters
            : 0;
    state.prev = sample;

    sig.coveragePermille = permilleOf(d_cached, sig.events);
    sig.velocityPerKiloEvent = permilleOf(d_predictions, sig.events);
    sig.churnPerKiloEvent = permilleOf(d_counters, sig.events);

    if (sig.events < kMinEventsPerEpoch) {
        // Too quiet to judge; do not pollute the coverage window
        // with a noisy small-sample ratio either.
        if (signals_out)
            *signals_out = sig;
        return SessionClass::Idle;
    }

    if (state.window.size() < kSpreadWindowEpochs) {
        state.window.push_back(sig.coveragePermille);
    } else {
        state.window[state.windowNext] = sig.coveragePermille;
        state.windowNext = (state.windowNext + 1) % state.window.size();
    }
    const auto [min_it, max_it] =
        std::minmax_element(state.window.begin(), state.window.end());
    sig.spreadPermille = *max_it - *min_it;

    if (signals_out)
        *signals_out = sig;

    if (sig.churnPerKiloEvent >= kChurnPerKiloEvent)
        return SessionClass::HeadChurn;
    if (sig.velocityPerKiloEvent >= kNoisyVelocityPerKiloEvent)
        return SessionClass::Noisy;
    if (sig.coveragePermille < kLowCoveragePermille ||
        sig.spreadPermille >= kPhaseSpreadPermille)
        return SessionClass::PhaseShifting;
    return SessionClass::Stable;
}

void
SessionClassifier::forget(std::uint64_t session)
{
    states.erase(session);
}

} // namespace hotpath::control
