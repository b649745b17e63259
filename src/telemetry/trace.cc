#include "telemetry/trace.hh"

#include "support/logging.hh"
#include "telemetry/json.hh"

namespace hotpath::telemetry
{

const char *
traceEventName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::RunStart:
        return "run_start";
      case TraceEventKind::RunStop:
        return "run_stop";
      case TraceEventKind::Prediction:
        return "prediction";
      case TraceEventKind::FragmentInsert:
        return "fragment_insert";
      case TraceEventKind::FragmentEvict:
        return "fragment_evict";
      case TraceEventKind::CacheFlush:
        return "cache_flush";
      case TraceEventKind::BailOut:
        return "bail_out";
      case TraceEventKind::PhaseChange:
        return "phase_change";
      case TraceEventKind::Log:
        return "log";
    }
    return "unknown";
}

JsonlTraceSink::JsonlTraceSink(std::ostream &os) : out(&os) {}

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : ownedFile(path, std::ios::out | std::ios::trunc),
      out(&ownedFile)
{
    if (!ownedFile)
        fatal("cannot open trace output file: " + path);
}

void
JsonlTraceSink::record(const TraceRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostream &os = *out;
    os << "{\"event\":\"" << traceEventName(rec.kind)
       << "\",\"t_ns\":" << rec.timeNs << ",\"component\":";
    writeJsonString(os, rec.component);
    for (std::size_t i = 0; i < rec.fieldCount; ++i) {
        os << ',';
        writeJsonString(os, rec.fields[i].key);
        os << ':' << rec.fields[i].value;
    }
    if (!rec.detail.empty()) {
        os << ",\"detail\":";
        writeJsonString(os, rec.detail);
    }
    os << "}\n";
    ++written;
}

void
JsonlTraceSink::flush()
{
    std::lock_guard<std::mutex> lock(mu);
    out->flush();
}

} // namespace hotpath::telemetry
