/**
 * @file
 * Extension experiment X12: path cloning triage over the predictor
 * family (NET vs path profile vs k-iteration path profile).
 *
 * Propeller-style post-link optimizers clone hot paths into straight-
 * line code, gated by a policy with a small vocabulary: a maximum
 * path length (cloning long paths explodes code size), a minimum
 * flow ratio (the path must carry a meaningful share of its head's
 * flow), an i-cache penalty factor (cloned bytes evict other code)
 * and a score threshold. This bench runs the same stream through
 * three online predictors at delay 50 and pushes each predictor's
 * selections through the full policy grid:
 *
 *  - eligible(p)  = blocks(p) <= max_path_length
 *                   AND freq(p)/headFlow(p) >= min_flow_ratio
 *  - score(p)     = freq(p)/totalFlow * blocks(p)
 *                   - icache_penalty_factor * bytes(p)/totalBytes
 *  - clone(p)     = eligible(p) AND score(p) >= score_threshold
 *
 * The filter is evaluated on the true path distribution (perfect
 * post-hoc triage), so row differences come purely from *which*
 * paths each scheme predicted. The oracle row applies the policy to
 * every path. All emitted quantities are integers (flow shares in
 * ppm), so two runs with the same seed produce byte-identical
 * JSON/CSV - the property the perf-smoke CI job checks.
 *
 * Flags:
 *   --seed=<n>    workload seed (default 1)
 *   --json=<path> machine-readable rows
 *   --csv=<path>  the same rows as CSV
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common.hh"
#include "predict/kpath_predictor.hh"
#include "predict/net_predictor.hh"
#include "predict/path_profile_predictor.hh"
#include "support/table.hh"
#include "workload/spec_profile.hh"
#include "workload/synthesis.hh"

using namespace hotpath;

namespace
{

constexpr std::uint64_t kDelay = 50;
constexpr std::uint32_t kIterations = 2;
constexpr std::uint64_t kBytesPerInstr = 4;

const char *const kBenchmarks[] = {"compress", "m88ksim", "deltablue"};

const std::uint32_t kMaxPathLength[] = {8, 16, 32};
const double kMinFlowRatio[] = {0.0005, 0.005};
const double kIcachePenalty[] = {0.0, 0.5, 2.0};
const double kScoreThreshold[] = {0.0, 1e-4};

/** One grid point of the cloning policy. */
struct Policy
{
    std::uint32_t maxPathLength = 16;
    double minFlowRatio = 0.0005;
    double icachePenaltyFactor = 0.5;
    double scoreThreshold = 0.0;
};

/** One predictor's selections and profiling bill on one workload. */
struct PredictorRun
{
    std::string name;
    std::vector<PathIndex> predicted; // in first-prediction order
    std::uint64_t countersAllocated = 0;
    ProfilingCost cost;
};

/** Evaluation of one (predictor, policy) cell. */
struct CellResult
{
    std::uint64_t clones = 0;
    std::uint64_t rejected = 0; // predicted but filtered out
    std::uint64_t cloneBytes = 0;
    std::uint64_t flowCapturedPpm = 0; // of total flow
    std::uint64_t flowRecallPpm = 0;   // of the oracle's cloned flow
};

/** The true-distribution facts the policy filter consults. */
struct CloneModel
{
    const CalibratedWorkload *workload = nullptr;
    std::vector<std::uint64_t> headFlow;
    std::uint64_t totalBytes = 0;

    explicit CloneModel(const CalibratedWorkload &w) : workload(&w)
    {
        headFlow.assign(w.numHeads(), 0);
        for (PathIndex p = 0;
             p < static_cast<PathIndex>(w.numPaths()); ++p) {
            headFlow[w.headOf(p)] += w.frequency(p);
            totalBytes += static_cast<std::uint64_t>(
                              w.instructionsOf(p)) *
                          kBytesPerInstr;
        }
    }

    bool
    clones(PathIndex p, const Policy &policy) const
    {
        const CalibratedWorkload &w = *workload;
        if (w.blocksOf(p) > policy.maxPathLength)
            return false;
        const double head_flow =
            static_cast<double>(headFlow[w.headOf(p)]);
        if (head_flow <= 0.0)
            return false;
        const double flow_ratio =
            static_cast<double>(w.frequency(p)) / head_flow;
        if (flow_ratio < policy.minFlowRatio)
            return false;
        const double flow_share =
            static_cast<double>(w.frequency(p)) /
            static_cast<double>(w.totalFlow());
        const double byte_share =
            static_cast<double>(w.instructionsOf(p)) * kBytesPerInstr /
            static_cast<double>(totalBytes);
        const double score = flow_share * w.blocksOf(p) -
                             policy.icachePenaltyFactor * byte_share;
        return score >= policy.scoreThreshold;
    }
};

CellResult
evaluate(const CloneModel &model,
         const std::vector<PathIndex> &candidates, const Policy &policy,
         std::uint64_t oracle_flow)
{
    const CalibratedWorkload &w = *model.workload;
    CellResult cell;
    std::uint64_t cloned_flow = 0;
    for (const PathIndex p : candidates) {
        if (!model.clones(p, policy)) {
            ++cell.rejected;
            continue;
        }
        ++cell.clones;
        cell.cloneBytes += static_cast<std::uint64_t>(
                               w.instructionsOf(p)) *
                           kBytesPerInstr;
        cloned_flow += w.frequency(p);
    }
    cell.flowCapturedPpm = static_cast<std::uint64_t>(std::llround(
        1e6 * static_cast<double>(cloned_flow) /
        static_cast<double>(w.totalFlow())));
    cell.flowRecallPpm = oracle_flow == 0
        ? 0
        : static_cast<std::uint64_t>(std::llround(
              1e6 * static_cast<double>(cloned_flow) /
              static_cast<double>(oracle_flow)));
    return cell;
}

/** Drive one predictor over the stream, Dynamo-style: predicted
 *  paths leave the profiled set. */
PredictorRun
runPredictor(const CalibratedWorkload &workload,
             std::unique_ptr<HotPathPredictor> predictor,
             const std::string &name)
{
    PredictorRun run;
    run.name = name;
    std::unordered_set<PathIndex> predicted;
    workload.generateStream(
        0, [&](const PathEvent &event, std::uint64_t) {
            if (predicted.count(event.path) != 0)
                return;
            if (predictor->observe(event)) {
                predicted.insert(event.path);
                run.predicted.push_back(event.path);
            }
        });
    run.countersAllocated = predictor->countersAllocated();
    run.cost = predictor->cost();
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::TelemetryScope telemetry(argc, argv, "ext_path_cloning");
    // Read before the run, so a malformed flag fails fast.
    const std::string json_path = bench::flagValue(argc, argv, "json");
    const std::string csv_path = bench::flagValue(argc, argv, "csv");

    std::cout << "X12: path-cloning triage across the predictor "
                 "family (delay 50, k=2; policy grid in Propeller "
                 "vocabulary)\n\n";

    struct Row
    {
        std::string benchmark;
        std::string predictor;
        Policy policy;
        CellResult cell;
        std::uint64_t oracleClones = 0;
    };
    std::vector<Row> rows;

    struct PredictorSummary
    {
        std::string benchmark;
        PredictorRun run;
    };
    std::vector<PredictorSummary> summaries;

    for (const char *const name : kBenchmarks) {
        WorkloadConfig wconfig;
        wconfig.flowScale = 4e-2;
        wconfig.seed = bench::seedFlag(argc, argv, wconfig.seed);
        CalibratedWorkload workload(specTarget(name), wconfig);
        const CloneModel model(workload);

        std::vector<PredictorRun> runs;
        runs.push_back(runPredictor(
            workload, std::make_unique<NetPredictor>(kDelay), "net"));
        runs.push_back(runPredictor(
            workload, std::make_unique<PathProfilePredictor>(kDelay),
            "path-profile"));
        runs.push_back(runPredictor(
            workload,
            std::make_unique<KPathPredictor>(kDelay, kIterations),
            "kpath2"));
        for (const PredictorRun &run : runs)
            summaries.push_back({name, run});

        std::vector<PathIndex> all_paths(workload.numPaths());
        for (PathIndex p = 0;
             p < static_cast<PathIndex>(workload.numPaths()); ++p)
            all_paths[p] = p;

        for (const std::uint32_t max_len : kMaxPathLength) {
            for (const double min_flow : kMinFlowRatio) {
                for (const double icache : kIcachePenalty) {
                    for (const double threshold : kScoreThreshold) {
                        Policy policy;
                        policy.maxPathLength = max_len;
                        policy.minFlowRatio = min_flow;
                        policy.icachePenaltyFactor = icache;
                        policy.scoreThreshold = threshold;

                        std::uint64_t oracle_clones = 0;
                        std::uint64_t oracle_flow = 0;
                        for (const PathIndex p : all_paths) {
                            if (!model.clones(p, policy))
                                continue;
                            ++oracle_clones;
                            oracle_flow += workload.frequency(p);
                        }

                        for (const PredictorRun &run : runs) {
                            Row row;
                            row.benchmark = name;
                            row.predictor = run.name;
                            row.policy = policy;
                            row.oracleClones = oracle_clones;
                            row.cell =
                                evaluate(model, run.predicted, policy,
                                         oracle_flow);
                            rows.push_back(std::move(row));
                        }
                    }
                }
            }
        }
    }

    // Console summary: the default grid point per benchmark.
    TextTable table;
    table.setHeader({"Benchmark", "Predictor", "Clones", "Rejected",
                     "Oracle", "Clone KiB", "Flow %", "Recall %"});
    for (const Row &row : rows) {
        const Policy &p = row.policy;
        if (p.maxPathLength != 16 || p.minFlowRatio != 0.0005 ||
            p.icachePenaltyFactor != 0.5 || p.scoreThreshold != 0.0)
            continue;
        table.beginRow();
        table.addCell(row.benchmark);
        table.addCell(row.predictor);
        table.addCell(row.cell.clones);
        table.addCell(row.cell.rejected);
        table.addCell(row.oracleClones);
        table.addCell(row.cell.cloneBytes / 1024);
        table.addPercentCell(
            static_cast<double>(row.cell.flowCapturedPpm) / 1e4, 2);
        table.addPercentCell(
            static_cast<double>(row.cell.flowRecallPpm) / 1e4, 2);
    }
    table.print(std::cout);

    std::cout << "\nProfiling bill per predictor:\n\n";
    TextTable bill;
    bill.setHeader({"Benchmark", "Predictor", "Predictions",
                    "Counters", "Counter ops", "Shifts",
                    "Table ops"});
    for (const PredictorSummary &summary : summaries) {
        bill.beginRow();
        bill.addCell(summary.benchmark);
        bill.addCell(summary.run.name);
        bill.addCell(summary.run.predicted.size());
        bill.addCell(summary.run.countersAllocated);
        bill.addCell(summary.run.cost.counterUpdates);
        bill.addCell(summary.run.cost.historyShifts);
        bill.addCell(summary.run.cost.tableUpdates);
    }
    bill.print(std::cout);

    std::cout << "\nExpected shape: all three schemes recall nearly "
                 "the same cloned flow (the policy filter, not the "
                 "predictor, decides what is worth cloning), while "
                 "the path-profile family pays orders of magnitude "
                 "more profiling for its selections - less is "
                 "more.\n";

    const auto policyJson = [](const Policy &p, std::ostream &out) {
        out << "\"max_path_length\": " << p.maxPathLength
            << ", \"min_flow_ratio\": " << p.minFlowRatio
            << ", \"icache_penalty_factor\": " << p.icachePenaltyFactor
            << ", \"score_threshold\": " << p.scoreThreshold;
    };

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "{\n  \"seed\": "
            << bench::seedFlag(argc, argv, WorkloadConfig{}.seed)
            << ",\n  \"delay\": " << kDelay
            << ",\n  \"k\": " << kIterations << ",\n  \"predictors\": [\n";
        for (std::size_t i = 0; i < summaries.size(); ++i) {
            const PredictorSummary &s = summaries[i];
            out << "    {\"benchmark\": \"" << s.benchmark
                << "\", \"predictor\": \"" << s.run.name
                << "\", \"predictions\": " << s.run.predicted.size()
                << ", \"counters\": " << s.run.countersAllocated
                << ", \"counter_ops\": " << s.run.cost.counterUpdates
                << ", \"shifts\": " << s.run.cost.historyShifts
                << ", \"table_ops\": " << s.run.cost.tableUpdates
                << "}" << (i + 1 < summaries.size() ? "," : "")
                << "\n";
        }
        out << "  ],\n  \"rows\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            out << "    {\"benchmark\": \"" << row.benchmark
                << "\", \"predictor\": \"" << row.predictor << "\", ";
            policyJson(row.policy, out);
            out << ", \"clones\": " << row.cell.clones
                << ", \"rejected\": " << row.cell.rejected
                << ", \"oracle_clones\": " << row.oracleClones
                << ", \"clone_bytes\": " << row.cell.cloneBytes
                << ", \"flow_captured_ppm\": "
                << row.cell.flowCapturedPpm
                << ", \"flow_recall_ppm\": " << row.cell.flowRecallPpm
                << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        out << "benchmark,predictor,max_path_length,min_flow_ratio,"
               "icache_penalty_factor,score_threshold,clones,"
               "rejected,oracle_clones,clone_bytes,"
               "flow_captured_ppm,flow_recall_ppm\n";
        for (const Row &row : rows) {
            out << row.benchmark << ',' << row.predictor << ','
                << row.policy.maxPathLength << ','
                << row.policy.minFlowRatio << ','
                << row.policy.icachePenaltyFactor << ','
                << row.policy.scoreThreshold << ',' << row.cell.clones
                << ',' << row.cell.rejected << ',' << row.oracleClones
                << ',' << row.cell.cloneBytes << ','
                << row.cell.flowCapturedPpm << ','
                << row.cell.flowRecallPpm << "\n";
        }
    }
    return 0;
}
