/**
 * @file
 * Regenerates Figure 2: hit rate vs profiled flow for path profile
 * based prediction and NET prediction, across all nine benchmarks and
 * the full prediction-delay ladder (10 .. 1,000,000; flow replayed at
 * 1/1000 of the paper's, so the ladder spans the same profiled-flow
 * range the paper's does).
 *
 * Expected shape (paper): both schemes reach ~97.5% average hit rate
 * at 10% profiled flow, and the hit rate decays toward zero as the
 * profiled flow grows - missed opportunity cost makes long profiling
 * counterproductive. compress (dominant hot paths) decays fastest;
 * go/gcc (many cold paths) decay slowest.
 */

#include <iostream>
#include <string>

#include "common.hh"
#include "support/table.hh"

using namespace hotpath;
using namespace hotpath::bench;

int
main(int argc, char **argv)
{
    // --telemetry-out=<path>: machine-readable run report (counter
    // table probes/occupancy, predictions) alongside the figure.
    TelemetryScope telemetry(argc, argv, "fig2_hit_rate");

    // --csv: dump the raw curve rows for replotting and exit.
    if (hasFlag(argc, argv, "csv")) {
        SweepSetup setup;
        setup.seed = seedFlag(argc, argv, setup.seed);
        setup.jobs = jobsFlag(argc, argv);
        printCurveCsv(std::cout, runFigureSweeps(setup));
        return 0;
    }

    std::cout << "Figure 2: hit rate vs profiled flow "
                 "(0.1% HotPath set)\n\n";

    SweepSetup setup;
    setup.seed = seedFlag(argc, argv, setup.seed);
    setup.jobs = jobsFlag(argc, argv);
    const std::vector<BenchmarkSweep> sweeps = runFigureSweeps(setup);

    std::cout << "Summary (the paper quotes ~97.5% average hit rate "
                 "at 10% profiled flow for both schemes):\n\n";
    printSummaryAtTenPercent(std::cout, sweeps, /*noise=*/false);

    std::cout << "\nCurve data (x = profiled flow, y = hit rate; one "
                 "series per benchmark and scheme):\n\n";
    printCurveData(std::cout, sweeps);

    // Decay-order check the paper calls out in the text: compress
    // falls fastest, go and gcc slowest.
    std::cout << "\nHit rate at 40% profiled flow (decay ordering; "
                 "paper: compress lowest, go/gcc highest):\n\n";
    TextTable decay;
    decay.setHeader({"Benchmark", "PathProfile hit @40%",
                     "NET hit @40%"});
    for (const BenchmarkSweep &sweep : sweeps) {
        decay.beginRow();
        decay.addCell(sweep.name);
        decay.addPercentCell(
            hitRateAtProfiledFlow(sweep.pathProfile, 40.0), 2);
        decay.addPercentCell(hitRateAtProfiledFlow(sweep.net, 40.0),
                             2);
    }
    decay.print(std::cout);
    return 0;
}
