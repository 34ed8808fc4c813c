/**
 * @file
 * Shared plumbing of the co-exploration benchmark: clocks, order
 * statistics, the host fingerprint and the result report.
 *
 * Every workload fills one Report. print() writes a detail line (host
 * fingerprint, per-input figures, counts) and then, as the last line
 * of stdout, the result object the benchmark contract defines:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#ifndef COBENCH_COMMON_H
#define COBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cobench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; ///< span file of a traced run ("" = none)
};

/** Monotonic wall clock, seconds. */
double nowSec();

/** Process CPU time (all threads), seconds. */
double cpuSec();

/** Peak resident set size of the process (VmHWM) since it started
 *  or since the last resetPeakRss(), MiB. */
double peakRssMb();

/** Restart peakRssMb() from the current resident set, through
 *  /proc/self/clear_refs. @return false where that is refused. */
bool resetPeakRss();

/** The i-th input seed derived from the run's --seed (splitmix64). */
uint64_t subSeed(uint64_t seed, uint64_t i);

/** Linear-interpolated quantile (q in [0, 1]); 0 for an empty set. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

double mean(const std::vector<double> &v);

/**
 * The latency tail: the highest percentile with at least 10 samples
 * beyond it, q = 1 - 10/n, floored at the median for small sets.
 * @p q_out receives the percentile used.
 */
double tailQuantile(const std::vector<double> &v, double *q_out);

/** One named figure with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports (see file comment). */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    bool correct = true;
    std::vector<Metric> metrics;

    /** Extra figures for the detail line, as raw JSON values. */
    std::vector<std::pair<std::string, std::string>> detail;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void note(const std::string &key, double value);

    /** Record one failed check (counts in failed, clears correct). */
    void fail(const char *fmt, ...);

    /** Print the detail line and the result line (see file comment). */
    void print(const Args &args, const std::string &threadBudgets) const;
};

/**
 * Host fingerprint as a JSON object: CPU model, nproc, compiler,
 * build type, and the workload's thread budgets. Numbers from
 * different fingerprints must not be compared.
 */
std::string hostJson(const std::string &threadBudgets);

/** True when the benchmark was built as Release (warns otherwise). */
bool releaseBuild();

} // namespace cobench

#endif // COBENCH_COMMON_H
