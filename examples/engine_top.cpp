/**
 * @file
 * engine_top: a `top`-style live view of a serving prediction engine.
 *
 * Polls the admin endpoint of a running server (prediction_service
 * --serve --admin-port=<n>, or anything embedding net::Server with
 * ServerConfig::adminPort set) and redraws a per-stage / per-worker
 * table every interval:
 *
 *   - throughput counters (frames in, replies out, events,
 *     predictions) with per-interval rates;
 *   - sampled pipeline stage latencies (read, decode, queue-wait,
 *     predict, encode, write-flush) as p50/p99 from the server's
 *     SpanRecorder;
 *   - per-worker utilization (busy%) and per-shard queue depth from
 *     the engine's contention instruments.
 *
 * Pointed at a cluster router admin endpoint instead
 * (prediction_service --route --admin-port=<n>), the tool detects the
 * router-shaped /stats document and switches to a fleet view: router
 * throughput (frames in/routed/replayed, synthesized replies,
 * migrations, failovers) plus one row per backend with liveness,
 * in-flight depth, owned sessions, and frames sent.
 *
 * The /stats document is deliberately flat - scalar numbers and flat
 * numeric arrays only - so this tool scans it with string searches
 * instead of carrying a JSON parser.
 *
 * Flags:
 *   --connect=<host:port>  admin endpoint (default 127.0.0.1:8126)
 *   --interval-ms=<n>      refresh period (default 500)
 *   --iterations=<n>       stop after n refreshes (0 = run until ^C)
 *   --no-clear             do not clear the screen between refreshes
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "control/classifier.hh"
#include "net/admin_endpoint.hh"
#include "support/table.hh"
#include "telemetry/span.hh"

using namespace hotpath;

namespace
{

std::string
valueArg(int argc, char **argv, const char *prefix)
{
    const std::size_t len = std::strlen(prefix);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix, len) == 0)
            return std::string(argv[i] + len);
    }
    return "";
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    }
    return false;
}

/** One bounded HTTP/1.0 GET; returns the response body ("" on any
 *  failure - connection refused, timeout, short response). */
std::string
httpGet(const std::string &host, std::uint16_t port,
        const std::string &path, std::uint64_t timeout_ms)
{
    const std::string response = net::httpRequest(
        host, port, "GET " + path + " HTTP/1.0\r\n\r\n", timeout_ms);
    const std::size_t body = response.find("\r\n\r\n");
    if (body == std::string::npos ||
        response.rfind("HTTP/", 0) != 0)
        return "";
    return response.substr(body + 4);
}

/** Scalar `"key":<number>` lookup in a flat JSON document. */
std::uint64_t
jsonU64(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(doc.c_str() + pos + needle.size(), nullptr,
                         10);
}

/** Flat `"key":[n,n,...]` lookup in a flat JSON document. */
std::vector<std::uint64_t>
jsonArray(const std::string &doc, const std::string &key)
{
    std::vector<std::uint64_t> values;
    const std::string needle = "\"" + key + "\":[";
    std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return values;
    pos += needle.size();
    while (pos < doc.size() && doc[pos] != ']') {
        char *end = nullptr;
        values.push_back(
            std::strtoull(doc.c_str() + pos, &end, 10));
        pos = static_cast<std::size_t>(end - doc.c_str());
        if (pos < doc.size() && doc[pos] == ',')
            ++pos;
    }
    return values;
}

/** Fleet view for a cluster router /stats document (detected by the
 *  presence of cluster_frames_in): router throughput counters plus a
 *  per-backend table driven by the flat backend_* arrays. */
void
printRouterSnapshot(const std::string &doc, const std::string &prev,
                    double interval_s)
{
    const std::uint64_t framesIn =
        jsonU64(doc, "cluster_frames_in");
    const std::uint64_t responses =
        jsonU64(doc, "cluster_responses_out");
    const auto rate = [&](std::uint64_t now, const char *key) {
        if (prev.empty() || interval_s <= 0)
            return 0.0;
        const std::uint64_t before = jsonU64(prev, key);
        return now >= before
            ? static_cast<double>(now - before) / interval_s
            : 0.0;
    };

    std::cout << "router: connections "
              << jsonU64(doc, "cluster_active") << " active / "
              << jsonU64(doc, "cluster_accepted")
              << " accepted | frames " << framesIn << " ("
              << static_cast<std::uint64_t>(
                     rate(framesIn, "cluster_frames_in"))
              << "/s) | replies " << responses << " ("
              << static_cast<std::uint64_t>(
                     rate(responses, "cluster_responses_out"))
              << "/s) | synthesized "
              << jsonU64(doc, "cluster_responses_synthesized")
              << " | in-flight " << jsonU64(doc, "cluster_inflight")
              << " | parked "
              << jsonU64(doc, "cluster_parked_frames") << "\n";
    std::cout << "ring: " << jsonU64(doc, "cluster_backends_live")
              << " backends live | "
              << jsonU64(doc, "cluster_sessions_tracked")
              << " sessions | "
              << jsonU64(doc, "cluster_rehash_events")
              << " rehashes | "
              << jsonU64(doc, "cluster_sessions_migrated")
              << " migrated | "
              << jsonU64(doc, "cluster_failovers") << " failovers | "
              << jsonU64(doc, "cluster_backend_reconnects")
              << " reconnects\n\n";

    const std::vector<std::uint64_t> ids =
        jsonArray(doc, "backend_ids");
    const std::vector<std::uint64_t> alive =
        jsonArray(doc, "backend_alive");
    const std::vector<std::uint64_t> inflight =
        jsonArray(doc, "backend_inflight");
    const std::vector<std::uint64_t> sessions =
        jsonArray(doc, "backend_sessions");
    const std::vector<std::uint64_t> sent =
        jsonArray(doc, "backend_frames_sent");
    const std::vector<std::uint64_t> prevIds =
        jsonArray(prev, "backend_ids");
    const std::vector<std::uint64_t> prevSent =
        jsonArray(prev, "backend_frames_sent");

    TextTable fleet;
    fleet.setHeader({"Backend", "Alive", "In-flight", "Sessions",
                     "Frames sent", "Sent/s"});
    for (std::size_t i = 0; i < ids.size(); ++i) {
        // Rate per backend id, not per array slot: a reaped backend
        // shifts later rows left between snapshots.
        double sentRate = 0.0;
        const std::uint64_t now = i < sent.size() ? sent[i] : 0;
        for (std::size_t j = 0;
             j < prevIds.size() && j < prevSent.size(); ++j) {
            if (prevIds[j] != ids[i])
                continue;
            if (interval_s > 0 && now >= prevSent[j])
                sentRate =
                    static_cast<double>(now - prevSent[j]) /
                    interval_s;
            break;
        }
        fleet.beginRow();
        fleet.addCell(ids[i]);
        fleet.addCell(i < alive.size() && alive[i] != 0 ? "yes"
                                                        : "NO");
        fleet.addCell(i < inflight.size() ? inflight[i] : 0);
        fleet.addCell(i < sessions.size() ? sessions[i] : 0);
        fleet.addCell(now);
        fleet.addCell(sentRate);
    }
    fleet.print(std::cout);

    std::cout << "\nrouted " << jsonU64(doc, "cluster_frames_routed")
              << " | replayed "
              << jsonU64(doc, "cluster_frames_replayed")
              << " | migration frames "
              << jsonU64(doc, "cluster_migration_frames") << " ("
              << jsonU64(doc, "cluster_migration_bytes")
              << " bytes) | resyncs "
              << jsonU64(doc, "cluster_frames_resynced")
              << " | dropped "
              << jsonU64(doc, "cluster_responses_dropped") << "\n";
}

/** Adaptive-control section (present when a control::Controller is
 *  attached via Server::setStatsAugmenter, detected by the
 *  control_epoch key): epoch, retune count, the τ ladder with
 *  per-rung session occupancy, class tallies, and the most recent
 *  retune decision. */
void
printControlSnapshot(const std::string &doc)
{
    if (doc.find("\"control_epoch\":") == std::string::npos)
        return;

    std::cout << "\ncontrol: epoch " << jsonU64(doc, "control_epoch")
              << " | " << jsonU64(doc, "control_decisions")
              << " retunes | "
              << jsonU64(doc, "control_sessions_observed")
              << " sessions observed\n";

    const std::vector<std::uint64_t> rungs =
        jsonArray(doc, "control_tau_rungs");
    const std::vector<std::uint64_t> occupancy =
        jsonArray(doc, "control_tau_sessions");
    std::cout << "tau ladder:";
    for (std::size_t i = 0; i < rungs.size(); ++i)
        std::cout << (i ? " |" : "") << " tau=" << rungs[i] << ": "
                  << (i < occupancy.size() ? occupancy[i] : 0)
                  << " sessions";
    std::cout << "\nclasses:";
    for (std::size_t i = 0; i < control::kSessionClassCount; ++i) {
        const char *name = control::sessionClassName(
            static_cast<control::SessionClass>(i));
        std::cout << (i ? " |" : "") << " " << name << " "
                  << jsonU64(doc,
                             std::string("control_class_") + name);
    }
    std::cout << "\n";

    if (doc.find("\"control_last_epoch\":") != std::string::npos) {
        const std::uint64_t cls = jsonU64(doc, "control_last_class");
        std::cout << "last decision: epoch "
                  << jsonU64(doc, "control_last_epoch") << " session "
                  << jsonU64(doc, "control_last_session") << " ["
                  << (cls < control::kSessionClassCount
                          ? control::sessionClassName(
                                static_cast<control::SessionClass>(
                                    cls))
                          : "?")
                  << "] tau "
                  << jsonU64(doc, "control_last_tau_before") << " -> "
                  << jsonU64(doc, "control_last_tau_after") << "\n";
    }
}

void
printSnapshot(const std::string &doc, const std::string &prev,
              double interval_s)
{
    const std::uint64_t framesIn = jsonU64(doc, "net_frames_in");
    const std::uint64_t responses =
        jsonU64(doc, "net_responses_out");
    const std::uint64_t events = jsonU64(doc, "engine_events");
    const std::uint64_t predictions =
        jsonU64(doc, "engine_predictions");
    const auto rate = [&](std::uint64_t now, const char *key) {
        if (prev.empty() || interval_s <= 0)
            return 0.0;
        const std::uint64_t before = jsonU64(prev, key);
        return now >= before
            ? static_cast<double>(now - before) / interval_s
            : 0.0;
    };

    std::cout << "connections " << jsonU64(doc, "net_active")
              << " active / " << jsonU64(doc, "net_accepted")
              << " accepted | frames " << framesIn << " ("
              << static_cast<std::uint64_t>(
                     rate(framesIn, "net_frames_in"))
              << "/s) | replies " << responses << " ("
              << static_cast<std::uint64_t>(
                     rate(responses, "net_responses_out"))
              << "/s) | events " << events << " | predictions "
              << predictions << " | sessions "
              << jsonU64(doc, "engine_sessions_live") << "\n";
    std::cout << "spans: 1/" << jsonU64(doc, "span_sample_every")
              << " sampling, " << jsonU64(doc, "span_frames_sampled")
              << " of " << jsonU64(doc, "span_frames_seen")
              << " frames sampled\n\n";

    TextTable stages;
    stages.setHeader(
        {"Stage", "Samples", "p50 (us)", "p99 (us)", "Mean (us)"});
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
        const char *name = telemetry::stageName(
            static_cast<telemetry::Stage>(s));
        const std::string prefix = std::string("stage_") + name;
        const std::uint64_t count = jsonU64(doc, prefix + "_count");
        const std::uint64_t sum = jsonU64(doc, prefix + "_sum_ns");
        stages.beginRow();
        stages.addCell(name);
        stages.addCell(count);
        stages.addCell(jsonU64(doc, prefix + "_p50_ns") / 1000.0);
        stages.addCell(jsonU64(doc, prefix + "_p99_ns") / 1000.0);
        stages.addCell(
            count == 0 ? 0.0
                       : static_cast<double>(sum) /
                             static_cast<double>(count) / 1000.0);
    }
    stages.print(std::cout);

    const std::vector<std::uint64_t> busy =
        jsonArray(doc, "engine_worker_busy_ns");
    const std::vector<std::uint64_t> idle =
        jsonArray(doc, "engine_worker_idle_ns");
    const std::vector<std::uint64_t> prevBusy =
        jsonArray(prev, "engine_worker_busy_ns");
    const std::vector<std::uint64_t> prevIdle =
        jsonArray(prev, "engine_worker_idle_ns");
    if (!busy.empty()) {
        std::cout << "\n";
        TextTable workers;
        workers.setHeader(
            {"Worker", "Busy (ms)", "Idle (ms)", "Busy %"});
        for (std::size_t w = 0; w < busy.size(); ++w) {
            // Busy% over the last interval when we have a previous
            // snapshot, else over the whole run.
            std::uint64_t b = busy[w];
            std::uint64_t i = w < idle.size() ? idle[w] : 0;
            if (w < prevBusy.size() && b >= prevBusy[w])
                b -= prevBusy[w];
            if (w < prevIdle.size() && i >= prevIdle[w])
                i -= prevIdle[w];
            workers.beginRow();
            workers.addCell(w);
            workers.addCell(busy[w] / 1000000);
            workers.addCell(
                (w < idle.size() ? idle[w] : 0) / 1000000);
            workers.addCell(b + i == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(b) /
                                      static_cast<double>(b + i));
        }
        workers.print(std::cout);
    }

    const std::vector<std::uint64_t> depth =
        jsonArray(doc, "engine_queue_depth");
    std::uint64_t total_depth = 0;
    for (const std::uint64_t d : depth)
        total_depth += d;
    std::cout << "\nqueues: " << total_depth
              << " frames across " << depth.size()
              << " shards | backpressure waits "
              << jsonU64(doc, "engine_backpressure_waits")
              << " | read pauses "
              << jsonU64(doc, "net_read_pauses") << "\n";

    printControlSnapshot(doc);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 8126;
    const std::string target = valueArg(argc, argv, "--connect=");
    if (!target.empty()) {
        const std::size_t colon = target.find(':');
        if (colon == std::string::npos) {
            std::cerr << "--connect expects host:port\n";
            return 1;
        }
        host = target.substr(0, colon);
        port = static_cast<std::uint16_t>(
            std::stoul(target.substr(colon + 1)));
    }
    const std::string interval =
        valueArg(argc, argv, "--interval-ms=");
    const std::string iters = valueArg(argc, argv, "--iterations=");
    const int interval_ms =
        interval.empty() ? 500 : std::stoi(interval);
    const std::uint64_t iterations =
        iters.empty() ? 0
                      : std::strtoull(iters.c_str(), nullptr, 10);
    const bool clear = !hasFlag(argc, argv, "--no-clear");

    std::string prev;
    std::uint64_t n = 0;
    while (iterations == 0 || n < iterations) {
        const std::string doc =
            httpGet(host, port, "/stats", 1000);
        if (doc.empty()) {
            std::cerr << "engine_top: no /stats from " << host << ":"
                      << port << " (is --serve running with "
                      << "--admin-port?)\n";
            return 1;
        }
        if (clear)
            std::cout << "\x1b[2J\x1b[H";
        const bool router =
            doc.find("\"cluster_frames_in\":") != std::string::npos;
        std::cout << "engine_top - " << host << ":" << port
                  << (router ? " [cluster router]" : "")
                  << " every " << interval_ms << "ms (refresh "
                  << n + 1 << ")\n\n";
        if (router)
            printRouterSnapshot(
                doc, prev,
                static_cast<double>(interval_ms) / 1000.0);
        else
            printSnapshot(doc, prev,
                          static_cast<double>(interval_ms) / 1000.0);
        std::cout << std::flush;
        prev = doc;
        ++n;
        if (iterations == 0 || n < iterations)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
    }
    return 0;
}
