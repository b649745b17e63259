#include "common.hh"

#include <cstring>
#include <exception>
#include <string>

#include "metrics/evaluation.hh"
#include "predict/net_predictor.hh"
#include "predict/path_profile_predictor.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/table.hh"
#include "telemetry/run_report.hh"

namespace hotpath::bench
{

std::string
flagValue(int argc, char **argv, const char *name)
{
    const std::string bare = std::string("--") + name;
    const std::string prefix = bare + "=";
    for (int i = 1; i < argc; ++i) {
        if (bare == argv[i])
            fatal(detail::concat(bare, " takes a value: pass ", bare,
                                 "=<value>"));
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
            return std::string(argv[i] + prefix.size());
    }
    return "";
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    const std::string bare = std::string("--") + name;
    for (int i = 1; i < argc; ++i)
        if (bare == argv[i])
            return true;
    return false;
}

std::uint64_t
flagU64(int argc, char **argv, const char *name,
        std::uint64_t fallback)
{
    const std::string value = flagValue(argc, argv, name);
    if (value.empty())
        return fallback;
    std::size_t consumed = 0;
    std::uint64_t parsed = 0;
    try {
        parsed = std::stoull(value, &consumed);
    } catch (const std::exception &) {
        consumed = 0;
    }
    if (consumed != value.size())
        fatal(detail::concat("invalid --", name, " value '", value,
                             "': expected an unsigned integer"));
    return parsed;
}

std::uint64_t
seedFlag(int argc, char **argv, std::uint64_t fallback)
{
    return flagU64(argc, argv, "seed", fallback);
}

std::size_t
jobsFlag(int argc, char **argv)
{
    const std::uint64_t jobs =
        flagU64(argc, argv, "jobs", ThreadPool::defaultThreads());
    if (jobs == 0)
        fatal("--jobs must be at least 1");
    return static_cast<std::size_t>(jobs);
}

ThreadPoolConfig
jobsPoolConfig(std::size_t jobs)
{
    ThreadPoolConfig config;
    config.threads = jobs <= 1 ? 0 : jobs;
    return config;
}

TelemetryScope::TelemetryScope(int argc, char **argv,
                               std::string report_title)
    : title(std::move(report_title))
{
    reportPath = flagValue(argc, argv, "telemetry-out");
    const std::string trace_path =
        flagValue(argc, argv, "telemetry-trace");
    if (reportPath.empty() && trace_path.empty())
        return;
    session =
        std::make_unique<telemetry::TelemetrySession>(trace_path);
}

TelemetryScope::~TelemetryScope()
{
    if (!session || reportPath.empty())
        return;
    telemetry::RunReport::capture(session->registry(), title)
        .writeFile(reportPath);
}

std::vector<BenchmarkSweep>
runFigureSweeps(const SweepSetup &setup)
{
    const std::vector<SpecTarget> &targets = specTargets();
    ThreadPool pool(jobsPoolConfig(setup.jobs));

    // Stage 1: materialize every benchmark's stream and oracle, one
    // task per benchmark. Each workload is seeded independently, so
    // the streams are identical at any worker count.
    struct Materialized
    {
        std::vector<PathEvent> stream;
        OracleProfile oracle;
        std::vector<std::uint64_t> delays;
    };
    std::vector<Materialized> inputs(targets.size());
    pool.parallelFor(targets.size(), [&](std::size_t i) {
        WorkloadConfig config;
        config.flowScale = setup.flowScale;
        config.hotFraction = setup.hotFraction;
        config.seed = setup.seed;
        CalibratedWorkload workload(targets[i], config);

        Materialized &input = inputs[i];
        input.stream = workload.materializeStream();
        for (std::uint64_t t = 0; t < input.stream.size(); ++t)
            input.oracle.onPathEvent(input.stream[t], t);

        // The ladder never exceeds the stream (a delay longer than
        // the flow predicts nothing at all).
        const std::uint64_t cap = std::min<std::uint64_t>(
            setup.maxDelay, input.stream.size());
        input.delays = defaultDelaySchedule(cap);
    });

    // Stage 2: the full (benchmark x scheme x delay) matrix, one
    // task per sweep point, merged back in schedule order.
    std::vector<SweepJob> jobs;
    jobs.reserve(targets.size() * 2);
    for (const Materialized &input : inputs) {
        SweepJob job;
        job.stream = &input.stream;
        job.oracle = &input.oracle;
        job.delays = input.delays;
        job.hotFraction = setup.hotFraction;
        job.factory = [](std::uint64_t delay) {
            return std::make_unique<PathProfilePredictor>(delay);
        };
        jobs.push_back(job);
        job.factory = [](std::uint64_t delay) {
            return std::make_unique<NetPredictor>(delay);
        };
        jobs.push_back(std::move(job));
    }
    std::vector<std::vector<SweepPoint>> results =
        runSweepJobs(jobs, pool);

    std::vector<BenchmarkSweep> sweeps;
    sweeps.reserve(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
        BenchmarkSweep sweep;
        sweep.name = std::string(targets[i].name);
        sweep.flow = inputs[i].stream.size();
        sweep.pathProfile = std::move(results[2 * i]);
        sweep.net = std::move(results[2 * i + 1]);
        sweeps.push_back(std::move(sweep));
    }
    return sweeps;
}

namespace
{

TextTable
buildCurveTable(const std::vector<BenchmarkSweep> &sweeps)
{
    TextTable table;
    table.setHeader({"Benchmark", "Scheme", "Delay", "Profiled flow",
                     "Hit rate", "Noise rate"});
    for (const BenchmarkSweep &sweep : sweeps) {
        const auto emit = [&](const char *scheme,
                              const std::vector<SweepPoint> &points) {
            for (const SweepPoint &point : points) {
                table.beginRow();
                table.addCell(sweep.name);
                table.addCell(std::string(scheme));
                table.addCell(point.delay);
                table.addPercentCell(
                    point.result.profiledFlowPercent(), 2);
                table.addPercentCell(point.result.hitRatePercent(), 2);
                table.addPercentCell(point.result.noiseRatePercent(),
                                     2);
            }
        };
        emit("path-profile", sweep.pathProfile);
        emit("net", sweep.net);
    }
    return table;
}

} // namespace

void
printCurveData(std::ostream &os,
               const std::vector<BenchmarkSweep> &sweeps)
{
    buildCurveTable(sweeps).print(os);
}

void
printCurveCsv(std::ostream &os,
              const std::vector<BenchmarkSweep> &sweeps)
{
    buildCurveTable(sweeps).printCsv(os);
}

void
printSummaryAtTenPercent(std::ostream &os,
                         const std::vector<BenchmarkSweep> &sweeps,
                         bool noise)
{
    TextTable table;
    table.setHeader({"Benchmark",
                     noise ? "PathProfile noise @10%"
                           : "PathProfile hit @10%",
                     noise ? "NET noise @10%" : "NET hit @10%"});

    RunningStat pp_stat;
    RunningStat net_stat;
    for (const BenchmarkSweep &sweep : sweeps) {
        const double pp =
            noise ? noiseRateAtProfiledFlow(sweep.pathProfile, 10.0)
                  : hitRateAtProfiledFlow(sweep.pathProfile, 10.0);
        const double net =
            noise ? noiseRateAtProfiledFlow(sweep.net, 10.0)
                  : hitRateAtProfiledFlow(sweep.net, 10.0);
        pp_stat.add(pp);
        net_stat.add(net);
        table.beginRow();
        table.addCell(sweep.name);
        table.addPercentCell(pp, 2);
        table.addPercentCell(net, 2);
    }
    table.beginRow();
    table.addCell(std::string("Average"));
    table.addPercentCell(pp_stat.mean(), 2);
    table.addPercentCell(net_stat.mean(), 2);
    table.print(os);
}

} // namespace hotpath::bench
