#include "dynamo/flush.hh"

#include "support/logging.hh"

namespace hotpath
{

PredictionRateMonitor::PredictionRateMonitor(FlushHeuristicConfig config)
    : cfg(config), cooldownLeft(config.warmupWindows)
{
    HOTPATH_ASSERT(cfg.windowEvents >= 1);
    HOTPATH_ASSERT(cfg.smoothing > 0.0 && cfg.smoothing <= 1.0);
}

bool
PredictionRateMonitor::onEvent(bool was_prediction)
{
    ++eventsInWindow;
    if (was_prediction)
        ++predictionsInWindow;
    if (eventsInWindow < cfg.windowEvents)
        return false;

    const auto count = static_cast<double>(predictionsInWindow);
    eventsInWindow = 0;
    predictionsInWindow = 0;

    if (cooldownLeft > 0) {
        // Startup or post-flush refill: neither a spike nor a
        // baseline sample.
        --cooldownLeft;
        return false;
    }

    const bool spike =
        count >= static_cast<double>(cfg.spikeFloor) &&
        count > cfg.spikeFactor * average;
    average = cfg.smoothing * count + (1.0 - cfg.smoothing) * average;
    return spike;
}

void
PredictionRateMonitor::settle()
{
    eventsInWindow = 0;
    predictionsInWindow = 0;
    cooldownLeft = cfg.warmupWindows;
}

DegradationPolicy::DegradationPolicy(DegradationPolicyConfig config)
    : cfg(config), cooldownLeft(config.spike.warmupWindows)
{
    HOTPATH_ASSERT(cfg.spike.windowEvents >= 1);
    HOTPATH_ASSERT(cfg.spike.smoothing > 0.0 &&
                   cfg.spike.smoothing <= 1.0);
    HOTPATH_ASSERT(cfg.degradedWindows >= 1);
}

DegradationMode
DegradationPolicy::onEvent(bool pressure)
{
    ++eventsInWindow;
    if (pressure)
        ++pressureInWindow;
    if (eventsInWindow < cfg.spike.windowEvents)
        return state;

    const auto count = static_cast<double>(pressureInWindow);
    eventsInWindow = 0;
    pressureInWindow = 0;

    if (state == DegradationMode::Degraded) {
        // Sustained pressure re-arms the stay; quiet windows count
        // down toward recovery.
        if (count >= static_cast<double>(cfg.spike.spikeFloor)) {
            degradedLeft = cfg.degradedWindows;
        } else if (--degradedLeft == 0) {
            state = DegradationMode::Normal;
            // Post-recovery warmup: the catch-up burst must neither
            // re-trigger nor pollute the baseline (settle()).
            cooldownLeft = cfg.spike.warmupWindows;
        }
        return state;
    }

    if (cooldownLeft > 0) {
        --cooldownLeft;
        return state;
    }

    const bool spike =
        count >= static_cast<double>(cfg.spike.spikeFloor) &&
        count > cfg.spike.spikeFactor * average;
    average = cfg.spike.smoothing * count +
              (1.0 - cfg.spike.smoothing) * average;
    if (spike) {
        state = DegradationMode::Degraded;
        degradedLeft = cfg.degradedWindows;
        ++entries;
    }
    return state;
}

} // namespace hotpath
