#include "telemetry/span.hh"

#include <string>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath::telemetry
{

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Read: return "read";
      case Stage::Decode: return "decode";
      case Stage::QueueWait: return "queue_wait";
      case Stage::Predict: return "predict";
      case Stage::Encode: return "encode";
      case Stage::WriteFlush: return "write_flush";
    }
    panic("stageName called with an unknown stage");
}

SpanRecorder::SpanRecorder(SpanConfig config) : cfg(config)
{
    if (cfg.sampleEvery == 0)
        return;
    // Eager registration: the net.stage.* histograms appear in
    // RunReport and /metrics from the moment spans are configured,
    // zero-valued until the first sampled frame.
    for (std::size_t s = 0; s < kStageCount; ++s)
        registryHists[s] = telemetry::histogram(
            std::string("net.stage.") +
            stageName(static_cast<Stage>(s)) + ".ns");
}

void
SpanRecorder::recordStage(Stage stage, std::uint64_t ns)
{
    const std::size_t index = static_cast<std::size_t>(stage);
    StageSlot &slot = slots[index];
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sumNs.fetch_add(ns, std::memory_order_relaxed);
    slot.buckets[Histogram::bucketOf(ns)].fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t seen = slot.minNs.load(std::memory_order_relaxed);
    while (ns < seen &&
           !slot.minNs.compare_exchange_weak(
               seen, ns, std::memory_order_relaxed)) {
    }
    seen = slot.maxNs.load(std::memory_order_relaxed);
    while (ns > seen &&
           !slot.maxNs.compare_exchange_weak(
               seen, ns, std::memory_order_relaxed)) {
    }
    if (registryHists[index])
        registryHists[index]->record(ns);
}

StageTotals
SpanRecorder::totals(Stage stage) const
{
    const StageSlot &slot =
        slots[static_cast<std::size_t>(stage)];
    StageTotals totals;
    totals.count = slot.count.load(std::memory_order_relaxed);
    totals.sumNs = slot.sumNs.load(std::memory_order_relaxed);
    return totals;
}

HistogramSnapshot
SpanRecorder::stageSnapshot(Stage stage) const
{
    const StageSlot &slot =
        slots[static_cast<std::size_t>(stage)];
    HistogramSnapshot snap;
    snap.count = slot.count.load(std::memory_order_relaxed);
    snap.sum = slot.sumNs.load(std::memory_order_relaxed);
    snap.max = slot.maxNs.load(std::memory_order_relaxed);
    const std::uint64_t lo =
        slot.minNs.load(std::memory_order_relaxed);
    snap.min = snap.count == 0 ? 0 : lo;
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b)
        snap.buckets[b] =
            slot.buckets[b].load(std::memory_order_relaxed);
    return snap;
}

} // namespace hotpath::telemetry
