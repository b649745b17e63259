/**
 * @file
 * Regenerates Figure 3: noise rate vs profiled flow for path profile
 * based prediction and NET prediction.
 *
 * Expected shape (paper): at 10% profiled flow NET yields ~56% noise
 * vs ~65% for path profile based prediction (NET slightly better at
 * the short, practically relevant delays); with long delays (20-70%
 * profiled flow) path profile based prediction becomes cleaner - it
 * reaches <10% noise at ~35% profiled flow where NET needs ~45% -
 * but those delays are irrelevant in practice because of the missed
 * opportunity cost Figure 2 shows.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "common.hh"
#include "support/table.hh"

using namespace hotpath;
using namespace hotpath::bench;

namespace
{

/** First profiled-flow percentage at which the noise drops below
 *  `target` (linear scan over the sweep, interpolated). */
double
profiledFlowForNoiseBelow(const std::vector<SweepPoint> &points,
                          double target)
{
    // Samples ordered by profiled flow.
    std::vector<std::pair<double, double>> samples;
    for (const SweepPoint &point : points) {
        samples.emplace_back(point.result.profiledFlowPercent(),
                             point.result.noiseRatePercent());
    }
    std::sort(samples.begin(), samples.end());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].second < target) {
            if (i == 0)
                return samples[0].first;
            const auto &[x0, y0] = samples[i - 1];
            const auto &[x1, y1] = samples[i];
            if (y0 == y1)
                return x1;
            const double t = (y0 - target) / (y0 - y1);
            return x0 + t * (x1 - x0);
        }
    }
    return 100.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --telemetry-out=<path>: machine-readable run report alongside
    // the figure.
    TelemetryScope telemetry(argc, argv, "fig3_noise_rate");

    // --csv: dump the raw curve rows for replotting and exit.
    if (hasFlag(argc, argv, "csv")) {
        SweepSetup setup;
        setup.seed = seedFlag(argc, argv, setup.seed);
        setup.jobs = jobsFlag(argc, argv);
        printCurveCsv(std::cout, runFigureSweeps(setup));
        return 0;
    }

    std::cout << "Figure 3: noise rate vs profiled flow "
                 "(0.1% HotPath set)\n\n";

    SweepSetup setup;
    setup.seed = seedFlag(argc, argv, setup.seed);
    setup.jobs = jobsFlag(argc, argv);
    const std::vector<BenchmarkSweep> sweeps = runFigureSweeps(setup);

    std::cout << "Summary (paper: ~65% path-profile vs ~56% NET noise "
                 "at 10% profiled flow):\n\n";
    printSummaryAtTenPercent(std::cout, sweeps, /*noise=*/true);

    std::cout << "\nProfiled flow needed to push noise below 10% "
                 "(paper: ~35% for path profile, ~45% for NET):\n\n";
    TextTable crossing;
    crossing.setHeader({"Benchmark", "PathProfile", "NET"});
    double pp_sum = 0.0;
    double net_sum = 0.0;
    for (const BenchmarkSweep &sweep : sweeps) {
        const double pp =
            profiledFlowForNoiseBelow(sweep.pathProfile, 10.0);
        const double net = profiledFlowForNoiseBelow(sweep.net, 10.0);
        pp_sum += pp;
        net_sum += net;
        crossing.beginRow();
        crossing.addCell(sweep.name);
        crossing.addPercentCell(pp, 1);
        crossing.addPercentCell(net, 1);
    }
    crossing.beginRow();
    crossing.addCell(std::string("Average"));
    crossing.addPercentCell(pp_sum / sweeps.size(), 1);
    crossing.addPercentCell(net_sum / sweeps.size(), 1);
    crossing.print(std::cout);

    // The paper's Figure 3 magnitudes (50-100% band, ~56% vs ~65%
    // average at 10% profiled flow) are only consistent with reading
    // noise as the COLD SHARE OF THE PREDICTION SET: Table 1's cold
    // flow budgets cap the flow-based formula far below the plotted
    // band (e.g. compress has 0.4% cold flow in total). We therefore
    // also report the prediction-set reading.
    std::cout << "\nCold share of the prediction set at 10% profiled "
                 "flow (the reading matching the paper's Figure 3 "
                 "band; paper: ~65% path-profile vs ~56% NET):\n\n";
    TextTable share;
    share.setHeader({"Benchmark", "PathProfile cold-share @10%",
                     "NET cold-share @10%"});
    double pp_share_sum = 0.0;
    double net_share_sum = 0.0;
    for (const BenchmarkSweep &sweep : sweeps) {
        const double pp = rateAtProfiledFlow(
            sweep.pathProfile, 10.0,
            &EvalResult::coldPredictionSharePercent);
        const double net = rateAtProfiledFlow(
            sweep.net, 10.0,
            &EvalResult::coldPredictionSharePercent);
        pp_share_sum += pp;
        net_share_sum += net;
        share.beginRow();
        share.addCell(sweep.name);
        share.addPercentCell(pp, 2);
        share.addPercentCell(net, 2);
    }
    share.beginRow();
    share.addCell(std::string("Average"));
    share.addPercentCell(pp_share_sum / sweeps.size(), 2);
    share.addPercentCell(net_share_sum / sweeps.size(), 2);
    share.print(std::cout);

    std::cout << "\nCurve data (x = profiled flow, y = noise rate):\n\n";
    printCurveData(std::cout, sweeps);
    return 0;
}
