/**
 * @file
 * Extension experiment X13: adaptive τ control vs the static grid.
 *
 * The paper picks one prediction delay (τ) and shows "less is more"
 * for average workloads - but no single τ survives an adversarial
 * mix. This bench runs the three adversarial regimes of
 * src/progen/adversarial.hh through the serving engine twice:
 *
 *  - a static grid: each workload at each rung of the τ ladder
 *    {8, 64, 1000}, one session per run;
 *  - one adaptive run: all three workloads as concurrent sessions of
 *    a single engine starting at τ=64, with the control plane
 *    (src/control) stepping once per epoch and retuning each session
 *    along the ladder as it classifies them.
 *
 * The score is steady-state fragment-cache coverage (permille of
 * events served from the cache), measured after a fixed warmup
 * window that is excluded identically for static and adaptive runs -
 * the adaptive controller needs a few epochs to observe, decide and
 * settle, and the static τ=1000 runs need the same window to arm
 * their first promotions. The CI gate (scripts/compare_bench.py
 * adaptive) requires the controller to land within 2pp of the best
 * static rung AND at least 5pp above the worst one, per workload -
 * i.e. adapting must approximate the per-workload oracle without
 * knowing the workloads.
 *
 * Every emitted quantity is an integer (permille, counts) computed
 * from deterministic integer streams, so two runs with the same seed
 * produce byte-identical JSON/CSV - checked by the perf-smoke CI
 * job.
 *
 * Flags:
 *   --seed=<n>    workload seed (default 1)
 *   --json=<path> machine-readable rows + controller decision log
 *   --csv=<path>  the coverage rows as CSV
 */

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "control/controller.hh"
#include "engine/engine.hh"
#include "progen/adversarial.hh"
#include "support/table.hh"

using namespace hotpath;

namespace
{

constexpr std::uint64_t kEpochs = 30;
constexpr std::uint64_t kWarmupEpochs = 6;
constexpr std::uint64_t kEventsPerEpoch = 2000;
constexpr std::uint64_t kFrameEvents = 500;
constexpr std::uint64_t kCacheCapacityInstr = 2600;
constexpr std::uint64_t kAdaptiveStartTau = 64;

const std::uint64_t kStaticTaus[] = {8, 64, 1000};

const AdversarialKind kWorkloads[] = {
    AdversarialKind::PhaseThrash,
    AdversarialKind::HeadChurn,
    AdversarialKind::ZipfTail,
};

/** One (workload, mode, τ) cell's outcome. */
struct RunRow
{
    std::string workload;
    std::string mode; // "static" | "adaptive"
    std::uint64_t tau = 0; // starting τ for adaptive
    std::uint64_t finalTau = 0;
    std::uint32_t steadyCoveragePermille = 0;
    std::uint64_t events = 0;
    std::uint64_t cached = 0;
    std::uint64_t predictions = 0;
};

engine::EngineConfig
makeEngineConfig(std::uint64_t tau)
{
    engine::EngineConfig cfg;
    cfg.workerThreads = 0; // serial: deterministic reference mode
    cfg.sessions.session.predictionDelay = tau;
    cfg.sessions.session.cacheCapacityInstr = kCacheCapacityInstr;
    cfg.sessions.session.cachePolicy = CachePolicy::EvictLru;
    return cfg;
}

/** Feed one epoch of `stream` into `session`, frames of
 *  kFrameEvents. */
void
feedEpoch(engine::Engine &eng, std::uint64_t session,
          std::uint64_t &sequence, AdversarialStream &stream)
{
    std::vector<PathEvent> frame;
    frame.reserve(kFrameEvents);
    for (std::uint64_t done = 0; done < kEventsPerEpoch;
         done += kFrameEvents) {
        frame.clear();
        for (std::uint64_t i = 0; i < kFrameEvents; ++i)
            frame.push_back(stream.next());
        eng.submitEvents(session, sequence++, frame.data(),
                         frame.size());
    }
}

/** Cumulative (events, cached) snapshot of one session. */
struct Snapshot
{
    std::uint64_t events = 0;
    std::uint64_t cached = 0;
    std::uint64_t predictions = 0;
    std::uint64_t tau = 0;
};

Snapshot
snapshotSession(const engine::Engine &eng, std::uint64_t session)
{
    Snapshot snap;
    eng.withSessionStats(session, [&](const engine::Session &s) {
        snap.events = s.stats().eventsProcessed;
        snap.cached = s.stats().cachedEvents;
        snap.predictions = s.stats().predictions;
        snap.tau = s.predictionDelay();
    });
    return snap;
}

std::uint32_t
steadyPermille(const Snapshot &warm, const Snapshot &end)
{
    const std::uint64_t events = end.events - warm.events;
    if (events == 0)
        return 0;
    return static_cast<std::uint32_t>(
        (end.cached - warm.cached) * 1000 / events);
}

/** One workload at one static τ, alone in its own serial engine. */
RunRow
runStatic(AdversarialKind kind, std::uint64_t tau,
          std::uint64_t seed)
{
    engine::Engine eng(makeEngineConfig(tau));
    AdversarialConfig wcfg;
    wcfg.seed = seed;
    AdversarialStream stream(kind, wcfg);

    std::uint64_t sequence = 0;
    Snapshot warm;
    for (std::uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
        feedEpoch(eng, 1, sequence, stream);
        if (epoch + 1 == kWarmupEpochs)
            warm = snapshotSession(eng, 1);
    }
    eng.drain();

    const Snapshot end = snapshotSession(eng, 1);
    RunRow row;
    row.workload = adversarialKindName(kind);
    row.mode = "static";
    row.tau = tau;
    row.finalTau = tau;
    row.steadyCoveragePermille = steadyPermille(warm, end);
    row.events = end.events;
    row.cached = end.cached;
    row.predictions = end.predictions;
    return row;
}

/** The adaptive run: all three workloads as sessions 1..3 of one
 *  engine, controller stepping once per epoch. */
struct AdaptiveOutcome
{
    std::vector<RunRow> rows;
    control::ControlStats stats;
    std::vector<control::ControlDecision> decisions;
};

AdaptiveOutcome
runAdaptive(std::uint64_t seed)
{
    engine::Engine eng(makeEngineConfig(kAdaptiveStartTau));
    control::Controller controller(eng);

    std::vector<AdversarialStream> streams;
    for (const AdversarialKind kind : kWorkloads) {
        AdversarialConfig wcfg;
        wcfg.seed = seed;
        streams.emplace_back(kind, wcfg);
    }
    std::vector<std::uint64_t> sequences(streams.size(), 0);
    std::vector<Snapshot> warm(streams.size());

    for (std::uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
        for (std::size_t i = 0; i < streams.size(); ++i)
            feedEpoch(eng, i + 1, sequences[i], streams[i]);
        eng.drain();
        // Epoch boundary: the control plane observes and retunes.
        // Load pressure is 0 in this bench (serial engine, queues
        // always empty) - the shed path is pinned by
        // tests/control_test.cc instead.
        controller.stepWithLoad(0);
        if (epoch + 1 == kWarmupEpochs)
            for (std::size_t i = 0; i < streams.size(); ++i)
                warm[i] = snapshotSession(eng, i + 1);
    }
    eng.drain();

    AdaptiveOutcome out;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const Snapshot end = snapshotSession(eng, i + 1);
        RunRow row;
        row.workload = streams[i].name();
        row.mode = "adaptive";
        row.tau = kAdaptiveStartTau;
        row.finalTau = end.tau;
        row.steadyCoveragePermille = steadyPermille(warm[i], end);
        row.events = end.events;
        row.cached = end.cached;
        row.predictions = end.predictions;
        out.rows.push_back(row);
    }
    out.stats = controller.stats();
    out.decisions = controller.decisions();
    return out;
}

void
writeJson(const std::string &path, std::uint64_t seed,
          const std::vector<RunRow> &rows,
          const AdaptiveOutcome &adaptive)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "{\n"
        << "  \"bench\": \"ext_adaptive_tau\",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"epochs\": " << kEpochs << ",\n"
        << "  \"warmup_epochs\": " << kWarmupEpochs << ",\n"
        << "  \"events_per_epoch\": " << kEventsPerEpoch << ",\n"
        << "  \"cache_capacity_instr\": " << kCacheCapacityInstr
        << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunRow &row = rows[i];
        out << "    {\"workload\": \"" << row.workload
            << "\", \"mode\": \"" << row.mode
            << "\", \"tau\": " << row.tau
            << ", \"final_tau\": " << row.finalTau
            << ", \"steady_coverage_permille\": "
            << row.steadyCoveragePermille
            << ", \"events\": " << row.events
            << ", \"cached\": " << row.cached
            << ", \"predictions\": " << row.predictions << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"controller\": {\n"
        << "    \"epochs\": " << adaptive.stats.epochs << ",\n"
        << "    \"decisions\": " << adaptive.stats.decisions << ",\n";
    for (std::size_t i = 0; i < control::kSessionClassCount; ++i)
        out << "    \"class_"
            << control::sessionClassName(
                   static_cast<control::SessionClass>(i))
            << "\": " << adaptive.stats.classCounts[i] << ",\n";
    out << "    \"decision_log\": [\n";
    for (std::size_t i = 0; i < adaptive.decisions.size(); ++i) {
        const control::ControlDecision &d = adaptive.decisions[i];
        out << "      {\"epoch\": " << d.epoch
            << ", \"session\": " << d.session << ", \"class\": \""
            << control::sessionClassName(d.cls)
            << "\", \"tau_before\": " << d.tauBefore
            << ", \"tau_after\": " << d.tauAfter << "}"
            << (i + 1 < adaptive.decisions.size() ? "," : "")
            << "\n";
    }
    out << "    ]\n"
        << "  }\n"
        << "}\n";
}

void
writeCsv(const std::string &path, const std::vector<RunRow> &rows)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    out << "workload,mode,tau,final_tau,steady_coverage_permille,"
           "events,cached,predictions\n";
    for (const RunRow &row : rows)
        out << row.workload << ',' << row.mode << ',' << row.tau
            << ',' << row.finalTau << ','
            << row.steadyCoveragePermille << ',' << row.events << ','
            << row.cached << ',' << row.predictions << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::TelemetryScope scope(argc, argv,
                                "X13 adaptive tau control");
    const std::uint64_t seed = bench::seedFlag(argc, argv, 1);

    std::vector<RunRow> rows;
    for (const AdversarialKind kind : kWorkloads)
        for (const std::uint64_t tau : kStaticTaus)
            rows.push_back(runStatic(kind, tau, seed));
    const AdaptiveOutcome adaptive = runAdaptive(seed);
    for (const RunRow &row : adaptive.rows)
        rows.push_back(row);

    // Console: one row per workload, static rungs vs adaptive.
    std::cout << "X13: steady-state cache coverage (permille), "
              << kEpochs << " epochs x " << kEventsPerEpoch
              << " events, warmup " << kWarmupEpochs
              << " epochs excluded\n\n";
    TextTable table;
    table.setHeader({"workload", "tau=8", "tau=64", "tau=1000",
                     "adaptive", "final tau"});
    for (const AdversarialKind kind : kWorkloads) {
        const std::string name = adversarialKindName(kind);
        table.beginRow();
        table.addCell(name);
        for (const RunRow &row : rows)
            if (row.workload == name && row.mode == "static")
                table.addCell(
                    static_cast<std::uint64_t>(
                        row.steadyCoveragePermille));
        for (const RunRow &row : rows)
            if (row.workload == name && row.mode == "adaptive") {
                table.addCell(static_cast<std::uint64_t>(
                    row.steadyCoveragePermille));
                table.addCell(row.finalTau);
            }
    }
    table.print(std::cout);
    std::cout << "\ncontroller: " << adaptive.stats.epochs
              << " epochs, " << adaptive.stats.decisions
              << " retunes\n";

    const std::string json_path =
        bench::flagValue(argc, argv, "json");
    if (!json_path.empty())
        writeJson(json_path, seed, rows, adaptive);
    const std::string csv_path =
        bench::flagValue(argc, argv, "csv");
    if (!csv_path.empty())
        writeCsv(csv_path, rows);
    return 0;
}
