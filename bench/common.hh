/**
 * @file
 * Shared machinery for the figure-regeneration benches: the Figure
 * 2/3 delay sweeps over all nine calibrated benchmarks, and the
 * common table printers.
 */

#ifndef HOTPATH_BENCH_COMMON_HH
#define HOTPATH_BENCH_COMMON_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/parallel_sweep.hh"
#include "metrics/sweep.hh"
#include "support/thread_pool.hh"
#include "telemetry/telemetry.hh"
#include "workload/synthesis.hh"

namespace hotpath::bench
{

/**
 * Command-line telemetry for the bench binaries. Construct first
 * thing in main(), before any instrumented component, with the raw
 * argc/argv. Recognized flags:
 *
 *   --telemetry-out=<path>    write a machine-readable RunReport at
 *                             scope exit (JSON; CSV when the path
 *                             ends in .csv)
 *   --telemetry-trace=<path>  additionally stream structured trace
 *                             events (JSONL) as the run executes
 *
 * Without either flag, no registry is attached and the run pays
 * nothing. Other arguments are ignored, so the flags compose with
 * each bench's own options.
 */
class TelemetryScope
{
  public:
    TelemetryScope(int argc, char **argv, std::string report_title);
    ~TelemetryScope();

    TelemetryScope(const TelemetryScope &) = delete;
    TelemetryScope &operator=(const TelemetryScope &) = delete;

    /** True when a telemetry flag was present. */
    bool enabled() const { return session != nullptr; }

  private:
    std::string title;
    std::string reportPath;
    std::unique_ptr<telemetry::TelemetrySession> session;
};

/**
 * Value of `--<name>=<value>` in argv, or "" when absent; exits with
 * an error naming that form when argv holds a bare `--<name>`, which
 * would otherwise be ignored.
 */
std::string flagValue(int argc, char **argv, const char *name);

/** True when argv holds the bare switch `--<name>` at any position. */
bool hasFlag(int argc, char **argv, const char *name);

/**
 * Value of `--<name>=<u64>` in argv, or `fallback` when the flag is
 * absent; exits with an error on a non-numeric value.
 */
std::uint64_t flagU64(int argc, char **argv, const char *name,
                      std::uint64_t fallback);

/**
 * The shared `--seed=<u64>` flag: every bench threads this into its
 * workload/program synthesis so runs are reproducible (and varied)
 * from the command line. `fallback` preserves each bench's historic
 * default, keeping published outputs stable when the flag is absent.
 */
std::uint64_t seedFlag(int argc, char **argv,
                       std::uint64_t fallback = 42);

/**
 * The shared `--jobs=<N>` flag: worker threads for the sweep-style
 * benches (default: hardware concurrency). `--jobs=1` is the serial
 * reference; every bench's output is byte-identical across jobs
 * values - the flag only changes the wall clock.
 */
std::size_t jobsFlag(int argc, char **argv);

/**
 * Pool configuration a `--jobs=N` value asks for: N worker threads
 * for N > 1, and the inline (zero-thread) serial pool for N <= 1, so
 * jobs=1 really is the unthreaded reference run.
 */
ThreadPoolConfig jobsPoolConfig(std::size_t jobs);

/** Both schemes swept over one benchmark's stream. */
struct BenchmarkSweep
{
    std::string name;
    std::uint64_t flow = 0;
    std::vector<SweepPoint> pathProfile;
    std::vector<SweepPoint> net;
};

/** Sweep configuration for the figure benches. */
struct SweepSetup
{
    double flowScale = 1e-3;
    double hotFraction = kPaperHotFraction;
    std::uint64_t seed = 42;
    /** Cap of the delay ladder (paper: 1,000,000). */
    std::uint64_t maxDelay = 1000000;
    /** Worker threads for the sweep matrix (1 = serial). */
    std::size_t jobs = 1;
};

/** Run the Figure 2/3 sweeps for every benchmark in the paper. */
std::vector<BenchmarkSweep> runFigureSweeps(const SweepSetup &setup);

/**
 * Print the long-format curve data (one row per benchmark x scheme x
 * delay): profiled flow %, hit rate %, noise rate %.
 */
void printCurveData(std::ostream &os,
                    const std::vector<BenchmarkSweep> &sweeps);

/** Same rows as CSV (for replotting); fig2_hit_rate and
 *  fig3_noise_rate print only these when passed `--csv`. */
void printCurveCsv(std::ostream &os,
                   const std::vector<BenchmarkSweep> &sweeps);

/**
 * Print the figure summary: per benchmark, the rate interpolated at
 * 10% profiled flow for both schemes, plus the average row. Pass
 * `noise` to summarize Figure 3 instead of Figure 2.
 */
void printSummaryAtTenPercent(std::ostream &os,
                              const std::vector<BenchmarkSweep> &sweeps,
                              bool noise);

} // namespace hotpath::bench

#endif // HOTPATH_BENCH_COMMON_HH
