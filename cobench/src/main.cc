/**
 * @file
 * cobench: the co-exploration benchmark of record.
 *
 *   cobench --workload explore-irregular|race-resnet50|serve-mix
 *           --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints a detail line and then, as the last line of stdout, the
 * result object (see common.h). With --trace 0 the metrics are the
 * end-to-end figures; with --trace 1 the per-layer ones, and the
 * recorded spans go to --trace-out. Exits 1 when any output was
 * wrong, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

using namespace cobench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "cobench: %s\nusage: cobench --workload "
                 "explore-irregular|race-resnet50|serve-mix --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload")
            args.workload = val;
        else if (flag == "--seed")
            args.seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(val);
        else if (flag == "--trace")
            args.trace = std::atoi(val) != 0;
        else if (flag == "--trace-out")
            args.traceOut = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (args.seconds <= 0.0)
        return usage("--seconds must be positive");

    void (*run)(const Args &, Report *, std::string *) = nullptr;
    if (args.workload == "explore-irregular")
        run = runExploreIrregular;
    else if (args.workload == "race-resnet50")
        run = runRaceResnet50;
    else if (args.workload == "serve-mix")
        run = runServeMix;
    else
        return usage(("unknown workload " + args.workload).c_str());

    // inform() writes to stdout, which carries only the result.
    cocco::setQuiet(true);
    Tracer::instance().setEnabled(args.trace);
    Report report;
    std::string budgets;
    run(args, &report, &budgets);

    if (args.trace && !args.traceOut.empty()) {
        std::string header = "{\"workload\":\"" + args.workload +
                             "\",\"seed\":" + std::to_string(args.seed) +
                             ",\"host\":" + hostJson(budgets) + "}";
        if (!Tracer::instance().write(args.traceOut, header))
            report.fail("cannot write %s", args.traceOut.c_str());
    }
    report.print(args, budgets);
    return report.correct ? 0 : 1;
}
