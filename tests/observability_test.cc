/**
 * @file
 * Metric-registration audit for the observability plane.
 *
 * The serving stack promises eager registration: every engine.*,
 * net.*, cluster.* and control.* instrument exists in the registry -
 * and therefore in
 * RunReport and the /metrics endpoint - from component construction,
 * even when its value is still zero. Dashboards and alert rules bind
 * to metric names before traffic arrives, so a lazily-registered
 * instrument is an outage in the monitoring plane.
 *
 * The golden list below is the documented instrument set. Adding an
 * instrument to the engine or server without extending this list
 * (and the metric-name table in docs/OPERATIONS.md, which this list
 * mirrors) fails the audit; so does removing or renaming one.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/router.hh"
#include "control/controller.hh"
#include "engine/engine.hh"
#include "net/server.hh"
#include "support/fault_injector.hh"
#include "telemetry/run_report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"

using namespace hotpath;

namespace
{

/**
 * The golden instrument list - keep in sync with the "Metric
 * reference" table in docs/OPERATIONS.md. Indexed instruments
 * (engine.shard.<i>.*, engine.worker.<w>.*) appear once with the
 * index normalized to N; fault sites and pipeline stages are
 * enumerated programmatically so a new Site or Stage enumerator
 * extends the expectation automatically.
 */
std::set<std::string>
goldenInstruments()
{
    std::set<std::string> names = {
        // Engine core (always registered).
        "engine.frames.decoded",
        "engine.frames.rejected",
        "engine.events",
        "engine.predictions",
        "engine.backpressure.waits",
        "engine.queue.highwater",
        "engine.queue.depth",
        "engine.batch.size",
        "engine.frames.inline",
        // Per-shard contention instruments (normalized index).
        "engine.shard.N.frames",
        "engine.shard.N.queue.depth",
        "engine.shard.N.backpressure.waits",
        // Per-worker utilization instruments (normalized index).
        "engine.worker.N.busy.ns",
        "engine.worker.N.idle.ns",
        // Session table.
        "engine.sessions.created",
        "engine.sessions.evicted",
        "engine.sessions.evicted.idle",
        "engine.sessions.live",
        "engine.sessions.exported",
        "engine.sessions.imported",
        "engine.table.lock.wait.ns",
        // Resilience (registered when any resilience feature is on).
        "engine.fault.frames.corrupted",
        "engine.fault.sessions.poisoned",
        "engine.fault.alloc.failures",
        "engine.fault.overload.spikes",
        "engine.fault.worker.stalled",
        "engine.recovered.frames.quarantined",
        "engine.recovered.frames.delayed.delivered",
        "engine.recovered.sessions.rebuilt",
        "engine.recovered.sessions.readmitted",
        "engine.recovered.backoff.frames",
        "engine.recovered.shed.frames",
        "engine.recovered.worker.unstalled",
        // Serving layer.
        "net.connections.accepted",
        "net.connections.closed",
        "net.connections.idle.closed",
        "net.connections.shed",
        "net.connections.reset",
        "net.connections.active",
        "net.accept.failures",
        "net.bytes.in",
        "net.bytes.out",
        "net.frames.in",
        "net.responses.out",
        "net.responses.dropped",
        "net.frames.resynced",
        "net.resync.bytes.skipped",
        "net.read.pauses",
        // Cluster routing tier.
        "cluster.connections.accepted",
        "cluster.connections.closed",
        "cluster.connections.active",
        "cluster.frames.in",
        "cluster.frames.routed",
        "cluster.frames.replayed",
        "cluster.frames.parked",
        "cluster.frames.resynced",
        "cluster.resync.bytes.skipped",
        "cluster.migration.frames",
        "cluster.migration.bytes",
        "cluster.responses.out",
        "cluster.responses.synthesized",
        "cluster.responses.dropped",
        "cluster.rehash.events",
        "cluster.sessions.migrated",
        "cluster.backend.reconnects",
        "cluster.backends.live",
        "cluster.backend.inflight",
        // Per-backend in-flight gauge (normalized index).
        "cluster.backend.N.inflight",
        "cluster.failovers",
        "cluster.weight.updates",
        "control.epochs",
        "control.decisions",
        "control.retunes",
        "control.shed.engaged",
        "control.shed.released",
        "control.shed.active",
        "control.queue.pressure",
        "control.sessions.observed",
    };
    for (std::size_t c = 0; c < control::kSessionClassCount; ++c)
        names.insert(std::string("control.class.") +
                     control::sessionClassName(
                         static_cast<control::SessionClass>(c)));
    for (std::size_t s = 0; s < fault::kSiteCount; ++s)
        names.insert(std::string("engine.fault.injected.") +
                     fault::siteName(static_cast<fault::Site>(s)));
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s)
        names.insert(std::string("net.stage.") +
                     telemetry::stageName(
                         static_cast<telemetry::Stage>(s)) +
                     ".ns");
    return names;
}

/** Collapse a shard/worker index to N: "engine.shard.3.frames" ->
 *  "engine.shard.N.frames". */
std::string
normalizeIndexed(const std::string &name)
{
    for (const char *prefix :
         {"engine.shard.", "engine.worker.", "cluster.backend."}) {
        const std::size_t plen = std::string(prefix).size();
        if (name.rfind(prefix, 0) != 0)
            continue;
        std::size_t digits = plen;
        while (digits < name.size() &&
               std::isdigit(static_cast<unsigned char>(name[digits])))
            ++digits;
        if (digits > plen)
            return name.substr(0, plen) + "N" + name.substr(digits);
    }
    return name;
}

/** Every engine.* and net.* instrument name in the snapshot,
 *  indexed instruments normalized. */
std::set<std::string>
observedInstruments(const telemetry::MetricsSnapshot &snapshot)
{
    std::set<std::string> names;
    const auto keep = [&names](const std::string &name) {
        if (name.rfind("engine.", 0) == 0 ||
            name.rfind("net.", 0) == 0 ||
            name.rfind("cluster.", 0) == 0 ||
            name.rfind("control.", 0) == 0)
            names.insert(normalizeIndexed(name));
    };
    for (const auto &counter : snapshot.counters)
        keep(counter.name);
    for (const auto &gauge : snapshot.gauges)
        keep(gauge.name);
    for (const auto &hist : snapshot.histograms)
        keep(hist.name);
    return names;
}

} // namespace

TEST(ObservabilityAudit, EveryInstrumentRegistersEagerlyAtZero)
{
    telemetry::TelemetrySession session;

    // The fullest configuration: a resilient engine (watchdog on, so
    // the resilience instruments register) behind a span-sampling
    // server. No traffic flows - eager registration means every
    // instrument must already exist at zero.
    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 2;
    engineCfg.sessions.shardCount = 4;
    engineCfg.watchdogIntervalMs = 50;
    engine::Engine eng(engineCfg);

    net::ServerConfig serverCfg;
    serverCfg.spanSampleEvery = 64;
    net::Server server(eng, serverCfg);

    // A configured (never started) router: the cluster.* instruments
    // - including the per-backend in-flight gauge - must register at
    // construction, before any backend is reachable.
    cluster::RouterConfig routerCfg;
    routerCfg.backends = {{"127.0.0.1", 1}};
    cluster::Router router(routerCfg);

    // An attached (never stepped) adaptive controller: every
    // control.* instrument must exist before the first epoch.
    control::Controller controller(eng);

    const std::set<std::string> golden = goldenInstruments();
    const std::set<std::string> observed =
        observedInstruments(session.registry().snapshot());

    std::vector<std::string> undocumented;
    std::set_difference(observed.begin(), observed.end(),
                        golden.begin(), golden.end(),
                        std::back_inserter(undocumented));
    EXPECT_TRUE(undocumented.empty())
        << "instrument(s) registered but missing from the golden "
           "list (add them here AND to the metric table in "
           "docs/OPERATIONS.md): "
        << ::testing::PrintToString(undocumented);

    std::vector<std::string> unregistered;
    std::set_difference(golden.begin(), golden.end(),
                        observed.begin(), observed.end(),
                        std::back_inserter(unregistered));
    EXPECT_TRUE(unregistered.empty())
        << "documented instrument(s) never registered (lazy "
           "registration or a rename): "
        << ::testing::PrintToString(unregistered);

    eng.shutdown();
}

TEST(ObservabilityAudit, RunReportCarriesEveryInstrumentAtZero)
{
    telemetry::TelemetrySession session;

    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 1;
    engineCfg.sessions.shardCount = 2;
    engineCfg.watchdogIntervalMs = 50;
    engine::Engine eng(engineCfg);

    net::ServerConfig serverCfg;
    serverCfg.spanSampleEvery = 64;
    net::Server server(eng, serverCfg);

    std::ostringstream out;
    telemetry::RunReport::capture(session.registry(), "audit")
        .writeJson(out);
    const std::string report = out.str();

    // Spot the indexed and zero-valued instruments a lazy
    // registration scheme would drop.
    for (const char *name :
         {"engine.shard.0.queue.depth", "engine.shard.1.frames",
          "engine.worker.0.busy.ns", "engine.worker.0.idle.ns",
          "engine.table.lock.wait.ns", "net.stage.read.ns",
          "net.stage.write_flush.ns", "net.frames.in",
          "engine.fault.injected.bitflip"}) {
        EXPECT_NE(report.find(std::string("\"") + name + "\""),
                  std::string::npos)
            << name << " missing from RunReport JSON";
    }

    eng.shutdown();
}

TEST(ObservabilityAudit, SpanDisabledServerSkipsStageHistograms)
{
    // With spans off the recorder must not register net.stage.*
    // histograms - the disabled path promises "a branch and nothing
    // else", and phantom all-zero stage histograms would suggest a
    // sampling server that never sampled.
    telemetry::TelemetrySession session;

    engine::EngineConfig engineCfg;
    engineCfg.workerThreads = 1;
    engineCfg.sessions.shardCount = 2;
    engine::Engine eng(engineCfg);
    net::Server server(eng, net::ServerConfig{});

    const telemetry::MetricsSnapshot snapshot =
        session.registry().snapshot();
    for (const auto &hist : snapshot.histograms)
        EXPECT_EQ(hist.name.rfind("net.stage.", 0),
                  std::string::npos)
            << hist.name << " registered with sampling disabled";

    eng.shutdown();
}
