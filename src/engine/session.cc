#include "engine/session.hh"

#include <algorithm>

#include "support/logging.hh"

namespace hotpath::engine
{

namespace
{

/** The session's cache: the configured instruction cap in the
 *  default code geometry, never linked. */
CodeCacheConfig
sessionCacheConfig(const SessionConfig &config)
{
    HOTPATH_ASSERT(config.cachePolicy == CachePolicy::FlushAll ||
                       config.cachePolicy == CachePolicy::EvictLru,
                   "a session cache is FlushAll or EvictLru");
    CodeCacheConfig cache;
    cache.capacityBytes = config.cacheCapacityInstr * cache.bytesPerInstr;
    cache.policy = config.cachePolicy;
    return cache;
}

} // namespace

Session::Session(std::uint64_t id, const SessionConfig &config)
    : sessionId(id), cfg(config),
      predictor(config.predictionDelay, config.reArm),
      fragments(sessionCacheConfig(config))
{
}

void
Session::retune(std::uint64_t prediction_delay)
{
    cfg.predictionDelay = prediction_delay;
    predictor.setDelay(prediction_delay);
}

bool
Session::consume(const PathEvent &event)
{
    ++st.eventsProcessed;

    // Predicted paths execute from the session's fragment cache and
    // never reach the profiler - exactly the in-process replay route.
    if (fragments.find(event.path) != nullptr) {
        ++st.cachedEvents;
        return false;
    }

    ++st.interpretedEvents;
    if (!predictor.observe(event))
        return false;

    ++st.predictions;
    fragments.insert(event.path, event.instructions);
    if (cfg.recordPredictions)
        predictionLog.push_back(event.path);
    return true;
}

std::uint64_t
Session::apply(const wire::DecodedFrame &frame,
               std::vector<wire::PredictionRecord> *predictions_out)
{
    HOTPATH_ASSERT(frame.header.session == sessionId,
                   "frame routed to the wrong session");
    ++st.framesApplied;

    const std::uint64_t sequence = frame.header.sequence;
    if (sawFrame && sequence != lastSequence + 1)
        ++st.sequenceGaps;
    sawFrame = true;
    lastSequence = sequence;

    std::uint64_t predicted = 0;
    for (const PathEvent &event : frame.events) {
        if (!consume(event))
            continue;
        ++predicted;
        if (predictions_out != nullptr)
            predictions_out->push_back({event.head, event.path});
    }
    return predicted;
}

void
Session::exportState(wire::SessionState &out) const
{
    out = wire::SessionState{};
    out.predictionDelay = cfg.predictionDelay;
    out.lastSequence = lastSequence;
    out.sawFrame = sawFrame;
    out.cacheClock = fragments.clockValue();

    predictor.forEachCounter(
        [&out](std::uint64_t key, std::uint64_t count) {
            out.counters.push_back({key, count});
        });
    std::sort(out.counters.begin(), out.counters.end(),
              [](const wire::SessionCounterEntry &a,
                 const wire::SessionCounterEntry &b) {
                  return a.key < b.key;
              });

    for (const HeadIndex head : predictor.retiredHeads())
        out.retired.push_back(head);
    std::sort(out.retired.begin(), out.retired.end());

    fragments.forEach([&out](const CodeFragment &fragment) {
        out.fragments.push_back({fragment.key, fragment.instructions,
                                 fragment.executions,
                                 fragment.stamp});
    });
    std::sort(out.fragments.begin(), out.fragments.end(),
              [](const wire::SessionFragmentEntry &a,
                 const wire::SessionFragmentEntry &b) {
                  return a.path < b.path;
              });

    out.framesApplied = st.framesApplied;
    out.eventsProcessed = st.eventsProcessed;
    out.cachedEvents = st.cachedEvents;
    out.interpretedEvents = st.interpretedEvents;
    out.predictions = st.predictions;
    out.sequenceGaps = st.sequenceGaps;
    out.decodeErrors = st.decodeErrors;
}

void
Session::importState(const wire::SessionState &in)
{
    HOTPATH_ASSERT(st.framesApplied == 0 && fragments.size() == 0,
                   "importState requires a fresh session");
    // Adopt the exporter's prediction delay so a τ retuned online by
    // the control plane survives migration (a no-op when both ends
    // run the same static config).
    if (in.predictionDelay != 0)
        retune(in.predictionDelay);
    for (const wire::SessionCounterEntry &entry : in.counters)
        predictor.restoreCounter(entry.key, entry.count);
    for (const std::uint32_t head : in.retired)
        predictor.restoreRetired(head);
    for (const wire::SessionFragmentEntry &fragment : in.fragments)
        fragments.restore(fragment.path, fragment.instructions,
                          fragment.executions, fragment.lastUse);
    fragments.setClockValue(in.cacheClock);

    lastSequence = in.lastSequence;
    sawFrame = in.sawFrame;
    st.framesApplied = in.framesApplied;
    st.eventsProcessed = in.eventsProcessed;
    st.cachedEvents = in.cachedEvents;
    st.interpretedEvents = in.interpretedEvents;
    st.predictions = in.predictions;
    st.sequenceGaps = in.sequenceGaps;
    st.decodeErrors = in.decodeErrors;
}

bool
Session::noteDecodeError()
{
    ++st.decodeErrors;
    return cfg.errorBudget != 0 && st.decodeErrors >= cfg.errorBudget;
}

void
Session::enterBackoff(std::uint64_t frames, std::uint32_t generation)
{
    backoffLeft = frames;
    poisonGeneration = generation;
}

bool
Session::consumeBackoffSlot()
{
    if (backoffLeft == 0)
        return false;
    --backoffLeft;
    return true;
}

} // namespace hotpath::engine
