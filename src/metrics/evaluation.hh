/**
 * @file
 * The paper's abstract prediction-quality metrics (Section 3).
 *
 * Given a path-event stream and a predictor, the evaluator splits the
 * total flow into profiled flow (executions before each path's
 * prediction, plus all executions of never-predicted paths) and
 * predicted flow (executions after prediction). Predicted flow of hot
 * paths is the hits; predicted flow of cold paths is the noise:
 *
 *   HitRate   = Hits  / freq(HotPath_h) * 100
 *   NoiseRate = Noise / freq(HotPath_h) * 100
 *   MOC       = hot-path executions lost to the prediction delay
 *
 * All quantities here are measured event-exactly from the stream (the
 * paper's formulas, e.g. Hits = freq(P^Hot) - |P^Hot| * tau, are the
 * special case where every predicted path was profiled exactly tau
 * times, which holds for path profile based prediction).
 */

#ifndef HOTPATH_METRICS_EVALUATION_HH
#define HOTPATH_METRICS_EVALUATION_HH

#include <vector>

#include "metrics/oracle.hh"
#include "predict/predictor.hh"

namespace hotpath
{

/** Result of evaluating one predictor at one delay over one stream. */
struct EvalResult
{
    // Workload facts.
    std::uint64_t totalFlow = 0;
    std::uint64_t hotFlow = 0;
    std::size_t hotPaths = 0;

    // Prediction set composition.
    std::size_t predictedPaths = 0;
    std::size_t predictedHotPaths = 0;
    std::size_t predictedColdPaths = 0;

    // Flow split (measured).
    std::uint64_t hits = 0;           // captured hot flow
    std::uint64_t noise = 0;          // captured cold flow
    std::uint64_t missedOpportunity = 0; // hot flow lost to the delay
    std::uint64_t profiledFlow = 0;   // everything not captured

    // Scheme overheads.
    std::size_t countersAllocated = 0;
    ProfilingCost cost;

    double
    hitRatePercent() const
    {
        return hotFlow == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(hotFlow);
    }

    double
    noiseRatePercent() const
    {
        return hotFlow == 0 ? 0.0
                            : 100.0 * static_cast<double>(noise) /
                                  static_cast<double>(hotFlow);
    }

    double
    profiledFlowPercent() const
    {
        return totalFlow == 0
            ? 0.0
            : 100.0 * static_cast<double>(profiledFlow) /
                  static_cast<double>(totalFlow);
    }

    /**
     * The paper's closed-form Hits(P) = freq(P ^ Hot) - |P ^ Hot| *
     * tau, reconstructed from the measured quantities (freq of the
     * predicted hot paths = hits + missed opportunity). Equals the
     * measured `hits` exactly whenever every predicted path was
     * profiled exactly tau times - which holds for path profile
     * based prediction by construction; for NET the measured value
     * is the honest one and this is the tau-uniform approximation.
     */
    std::uint64_t
    paperFormulaHits(std::uint64_t tau) const
    {
        const std::uint64_t freq_hot = hits + missedOpportunity;
        const std::uint64_t penalty = predictedHotPaths * tau;
        return freq_hot > penalty ? freq_hot - penalty : 0;
    }

    /**
     * Share of the prediction set that is cold, in paths. The flow
     * NoiseRate above is the paper's Section 3 formula; this count
     * reading is the only one whose magnitudes are consistent with
     * the paper's Figure 3 (Table 1's cold-flow budgets cap the flow
     * reading far below the figure's 50-100% band - see
     * EXPERIMENTS.md). Both are reported by the Figure 3 bench.
     */
    double
    coldPredictionSharePercent() const
    {
        return predictedPaths == 0
            ? 0.0
            : 100.0 * static_cast<double>(predictedColdPaths) /
                  static_cast<double>(predictedPaths);
    }
};

/**
 * Run `predictor` over `stream` and measure the Section 3 metrics
 * against HotPath_h with h = `hot_fraction` of the total flow.
 *
 * Executions of already-predicted paths bypass the predictor (they
 * run from the code cache); the triggering execution of a prediction
 * counts as profiled flow (it is the collection run).
 */
EvalResult evaluatePredictor(const std::vector<PathEvent> &stream,
                             HotPathPredictor &predictor,
                             double hot_fraction = 0.001);

/**
 * Same, but against a precomputed oracle (when the oracle of the
 * stream is already available, e.g. inside a sweep).
 */
EvalResult evaluatePredictor(const std::vector<PathEvent> &stream,
                             const OracleProfile &oracle,
                             HotPathPredictor &predictor,
                             double hot_fraction = 0.001);

} // namespace hotpath

#endif // HOTPATH_METRICS_EVALUATION_HH
