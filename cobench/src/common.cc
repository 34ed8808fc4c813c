#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "util/json.h"

namespace cobench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // in kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5"; // reset the peak RSS (VmHWM) to the current RSS
    out.flush();
    return static_cast<bool>(out);
}

uint64_t
subSeed(uint64_t seed, uint64_t i)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z % 1000000007ULL + 1; // small, positive, spec-friendly
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
tailQuantile(const std::vector<double> &v, double *q_out)
{
    double n = static_cast<double>(v.size());
    double q = n > 0.0 ? std::max(0.5, 1.0 - 10.0 / n) : 0.5;
    if (q_out)
        *q_out = q;
    return quantile(v, q);
}

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

} // namespace

void
Report::note(const std::string &key, double value)
{
    detail.emplace_back(key, num(value));
}

void
Report::fail(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "cobench: FAIL: %s\n", buf);
    ++failed;
    correct = false;
}

bool
releaseBuild()
{
#ifdef NDEBUG
    return std::string(COBENCH_BUILD_TYPE) == "Release";
#else
    return false;
#endif
}

std::string
hostJson(const std::string &threadBudgets)
{
    cocco::JsonWriter w;
    w.beginObject();
    w.key("cpu").value(cpuModel());
    w.key("nproc").value(
        static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.key("compiler").value(COBENCH_COMPILER);
    w.key("build_type").value(COBENCH_BUILD_TYPE);
    w.key("release").value(releaseBuild());
    w.key("thread_budgets").value(threadBudgets);
    w.endObject();
    return w.str();
}

void
Report::print(const Args &args, const std::string &threadBudgets) const
{
    if (!releaseBuild())
        std::fprintf(stderr,
                     "cobench: WARNING: not a Release build (%s); these "
                     "numbers are not comparable with Release results\n",
                     COBENCH_BUILD_TYPE);

    std::string line = "{\"detail\":{\"workload\":\"" + args.workload +
                       "\",\"seed\":" + std::to_string(args.seed) +
                       ",\"trace\":" + (args.trace ? "true" : "false") +
                       ",\"host\":" + hostJson(threadBudgets);
    double ratio = attempted > 0 ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0.0;
    line += ",\"failed_ratio\":" + num(ratio);
    for (const auto &[k, v] : detail)
        line += ",\"" + k + "\":" + v;
    line += "}}";
    std::printf("%s\n", line.c_str());

    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" +
               num(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // namespace cobench
