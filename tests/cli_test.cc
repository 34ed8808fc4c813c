/**
 * @file
 * End-to-end tests of the `cocco` binary (its path comes from the
 * build as COCCO_CLI): every search command runs a SearchSpec through
 * the one library runner, so the flag front ends must reproduce the
 * spec front end byte for byte, each command keeps its metrics name
 * prefix, `--json` output stays pure JSON, malformed flag values are
 * usage errors, and a structurally bad spec is refused with serve
 * admission's reason before any search starts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "serve/job_manager.h"
#include "serve/service.h"
#include "util/json.h"

using namespace cocco;

namespace {

/** A scratch directory for this test binary's files. */
std::string
scratch(const std::string &name)
{
    return testing::TempDir() + "cocco_cli_test_" + name;
}

std::string
writeFile(const std::string &name, const std::string &text)
{
    std::string path = scratch(name);
    std::ofstream(path) << text;
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** One CLI invocation: exit code, stdout, stderr. */
struct CliRun
{
    int code = -1;
    std::string out;
    std::string err;
};

CliRun
cocco(const std::string &args)
{
    const std::string errPath = scratch("stderr.txt");
    std::string cmd =
        std::string(COCCO_CLI) + " " + args + " 2>" + errPath;
    CliRun r;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        r.out.append(buf, n);
    int status = pclose(pipe);
    r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.err = readFile(errPath);
    return r;
}

/** A metrics document with its run name and wall time masked. */
std::string
maskNameAndWall(const std::string &doc)
{
    static const std::regex name("\"name\":\"[a-z]+-");
    static const std::regex wall("\"wall_seconds\":[-0-9.eE+]+");
    return std::regex_replace(std::regex_replace(doc, name, "\"name\":\"-"),
                              wall, "\"wall_seconds\":0");
}

/** The first run's "name" of the metrics document at @p path. */
std::string
metricsName(const std::string &path)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(loadJsonFile(path, &doc, &err)) << err;
    if (!doc.isObject() || !doc.find("runs") ||
        doc.find("runs")->array().empty())
        return "";
    return doc.find("runs")->array()[0].find("name")->str();
}

const char *kCoScheduleSpec = R"({
  "workload_set": [
    {"name": "vision", "model": "GoogleNet",
     "arrival_rate_hz": 40.0, "sla_latency_ms": 18.0},
    {"name": "mobile", "model": "MobileNetV2",
     "arrival_rate_hz": 25.0, "sla_latency_ms": 30.0}
  ],
  "deployment": "big-little",
  "algo": "ga",
  "samples": 200,
  "seed": 7,
  "ga": {"population": 12}
})";

TEST(CliTest, CoexploreMatchesRunSpec)
{
    std::string spec = writeFile(
        "coexplore.json", R"({"model": "GoogleNet", "algo": "ga",
        "mode": "coexplore", "samples": 300, "seed": 3})");
    std::string flagMetrics = scratch("coexplore.metrics.json");
    std::string specMetrics = scratch("coexplore-spec.metrics.json");
    CliRun flags = cocco("coexplore GoogleNet --samples 300 --seed 3 "
                      "--json --metrics-out " + flagMetrics);
    CliRun doc = cocco("run --spec " + spec + " --json --metrics-out " +
                    specMetrics);
    ASSERT_EQ(flags.code, 0) << flags.err;
    ASSERT_EQ(doc.code, 0) << doc.err;
    EXPECT_EQ(flags.out, doc.out);
    EXPECT_EQ(metricsName(flagMetrics), "coexplore-ga");
    EXPECT_EQ(metricsName(specMetrics), "spec-ga");
    EXPECT_EQ(maskNameAndWall(readFile(flagMetrics)),
              maskNameAndWall(readFile(specMetrics)));
}

TEST(CliTest, PartitionGaMatchesPartitionSpec)
{
    std::string spec = writeFile(
        "partition.json", R"({"model": "GoogleNet", "algo": "ga",
        "mode": "partition", "samples": 300, "seed": 5})");
    std::string flagMetrics = scratch("partition.metrics.json");
    std::string specMetrics = scratch("partition-spec.metrics.json");
    CliRun flags = cocco("partition GoogleNet --algo ga --samples 300 "
                      "--seed 5 --metrics-out " + flagMetrics);
    CliRun doc = cocco("run --spec " + spec + " --metrics-out " + specMetrics);
    ASSERT_EQ(flags.code, 0) << flags.err;
    ASSERT_EQ(doc.code, 0) << doc.err;
    EXPECT_NE(flags.out.find("GoogleNet: ga partition -> "),
              std::string::npos)
        << flags.out;
    EXPECT_EQ(metricsName(flagMetrics), "partition-ga");
    EXPECT_EQ(metricsName(specMetrics), "spec-ga");
    EXPECT_EQ(maskNameAndWall(readFile(flagMetrics)),
              maskNameAndWall(readFile(specMetrics)));

    // The non-sampling partitioners keep the same record shape.
    std::string dpMetrics = scratch("dp.metrics.json");
    CliRun dp = cocco("partition GoogleNet --algo dp --metrics-out " +
                   dpMetrics);
    ASSERT_EQ(dp.code, 0) << dp.err;
    EXPECT_EQ(metricsName(dpMetrics), "partition-dp");
}

TEST(CliTest, CoscheduleMatchesRunOnWorkloadSet)
{
    std::string spec = writeFile("cosched.json", kCoScheduleSpec);
    std::string schedMetrics = scratch("cosched.metrics.json");
    std::string runMetrics = scratch("cosched-run.metrics.json");
    CliRun sched = cocco("coschedule --spec " + spec + " --json --metrics-out " +
                      schedMetrics);
    CliRun run = cocco("run --spec " + spec + " --json --metrics-out " +
                    runMetrics);
    ASSERT_EQ(sched.code, 0) << sched.err;
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(sched.out, run.out);
    EXPECT_NE(sched.out.find("\"tenants\""), std::string::npos);
    EXPECT_EQ(metricsName(schedMetrics), "coschedule-ga");
    EXPECT_EQ(metricsName(runMetrics), "spec-ga");
    EXPECT_EQ(maskNameAndWall(readFile(schedMetrics)),
              maskNameAndWall(readFile(runMetrics)));
}

TEST(CliTest, JsonTimelineStaysPureJson)
{
    std::string spec = writeFile("cosched-tl.json", kCoScheduleSpec);
    CliRun plain = cocco("run --spec " + spec + " --json");
    CliRun timeline = cocco("run --spec " + spec + " --json --timeline");
    ASSERT_EQ(timeline.code, 0) << timeline.err;
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(timeline.out, &doc, &err)) << err;
    EXPECT_EQ(timeline.out, plain.out);

    // Human mode still renders the schedule lanes.
    CliRun human = cocco("coschedule --spec " + spec + " --timeline");
    ASSERT_EQ(human.code, 0) << human.err;
    EXPECT_NE(human.out.find("schedule lanes"), std::string::npos);
}

TEST(CliTest, BadFlagValuesAreUsageErrors)
{
    for (const char *bad :
         {"--metric emaa", "--style seperate", "--samples abc",
          "--threads abc", "--samples -5", "--threads -1", "--seed x",
          "--cache-size 12k", "--alpha nan", "--cores 0"}) {
        CliRun r = cocco(std::string("coexplore GoogleNet --samples 50 ") +
                      bad);
        EXPECT_EQ(r.code, 2) << bad;
        EXPECT_TRUE(r.out.empty()) << bad;
        EXPECT_NE(r.err.find("bad value"), std::string::npos) << bad;
    }
}

TEST(CliTest, DuplicateRacerRefusedLikeServeAdmission)
{
    const std::string text =
        R"({"model": "GoogleNet", "algo": "portfolio", "samples": 200,
            "portfolio": {"racers": ["ga", "sa", "ga"]}})";
    SearchSpec spec;
    std::string why;
    ASSERT_TRUE(parseRunSpecText(text, &spec, &why)) << why;
    JobManager manager;
    ASSERT_EQ(manager.submit(spec, "t", &why), -1);
    ASSERT_FALSE(why.empty());

    CliRun r = cocco("run --spec " + writeFile("dup.json", text) +
                  " --progress");
    EXPECT_EQ(r.code, 1);
    EXPECT_TRUE(r.out.empty());
    EXPECT_NE(r.err.find(why), std::string::npos) << r.err;
    // Refused before the search: no progress event was ever emitted.
    EXPECT_EQ(r.err.find("\"event\""), std::string::npos) << r.err;
}

} // namespace
