/**
 * @file
 * perfbench: the serving benchmark's command.
 *
 *   perfbench --workload <ingest|serve|route> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans-out <path>]
 *
 * Prints human-readable progress, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end metrics; with --trace 1
 * they are the per-layer metrics of a separate traced run. See
 * README.md in this directory.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <ingest|serve|route> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!(options.seconds > 0))
                return usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (flag == "--spans-out") {
            options.spansOut = value;
        } else {
            return usage("unknown flag " + flag);
        }
        if (end && *end != '\0')
            return usage("bad number for " + flag + ": " + value);
    }

    perfbench::Result result;
    if (options.workload == "ingest")
        result = perfbench::runIngest(options);
    else if (options.workload == "serve")
        result = perfbench::runServing(options, false);
    else if (options.workload == "route")
        result = perfbench::runServing(options, true);
    else
        return usage("unknown workload '" + options.workload + "'");

    if (result.metrics.empty()) {
        for (const std::string &why : result.problems)
            std::cerr << "perfbench: " << why << "\n";
        return 1;
    }
    perfbench::printResult(result);
    return 0;
}
