#include "core/runner.h"

#include <chrono>

#include "core/serialize.h"
#include "util/thread_pool.h"

namespace cocco {

namespace {

bool
fail(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

} // namespace

bool
checkRunSpec(const SearchSpec &spec, std::string *err)
{
    const SearcherRegistry &reg = SearcherRegistry::instance();
    if (!reg.contains(spec.algo))
        return fail(err, "unknown algorithm \"" + spec.algo + "\"");
    if (spec.eval.sampleBudget < 1)
        return fail(err, "sample budget must be >= 1");
    if (spec.workloadSet.enabled()) {
        if (!validateWorkloadSet(spec.workloadSet, err))
            return false;
    } else if (spec.workload.model.empty() && spec.workload.file.empty()) {
        return fail(err, "spec addresses no workload (model or file)");
    }
    if (spec.algo == "ga" &&
        (spec.ga.population < 2 || spec.ga.tournament < 1))
        return fail(err, "degenerate GA parameters (population >= 2, "
                         "tournament >= 1)");
    if (spec.algo == "sa" && spec.sa.neighborBatch < 1)
        return fail(err, "degenerate SA parameters (neighborBatch >= 1)");
    if ((spec.algo == "ts-random" || spec.algo == "ts-grid") &&
        (spec.twoStep.population < 2 || spec.twoStep.samplesPerCandidate < 1))
        return fail(err, "degenerate two-step parameters (population >= 2, "
                         "samplesPerCandidate >= 1)");
    if (spec.algo == "portfolio") {
        const std::vector<std::string> &racers = spec.portfolio.racers;
        if (racers.empty())
            return fail(err, "portfolio needs at least one racer");
        for (size_t i = 0; i < racers.size(); ++i) {
            const std::string &r = racers[i];
            if (r == "portfolio")
                return fail(err, "a portfolio cannot race itself");
            if (!reg.contains(r))
                return fail(err, "unknown portfolio racer \"" + r + "\"");
            for (size_t j = 0; j < i; ++j)
                if (racers[j] == r)
                    return fail(err,
                                "duplicate portfolio racer \"" + r + "\"");
        }
        if (spec.portfolio.checkEvals < 1 || spec.portfolio.warmupEvals < 0)
            return fail(err, "degenerate portfolio parameters (checkEvals "
                             ">= 1, warmupEvals >= 0)");
    }
    return true;
}

bool
prepareRun(const SearchSpec &spec, RunEnv *env, std::string *err)
{
    if (spec.workloadSet.enabled()) {
        env->graphs.resize(spec.workloadSet.size());
        for (int t = 0; t < spec.workloadSet.size(); ++t) {
            if (!resolveWorkload(spec.workloadSet.tenants[t].workload,
                                 &env->graphs[t], err))
                return false;
            env->model += (t ? "+" : "") + env->graphs[t].name();
        }
    } else {
        env->graphs.resize(1);
        if (!resolveWorkload(spec.workload, &env->graphs[0], err))
            return false;
        env->model = env->graphs[0].name();
    }

    AcceleratorConfig accel;
    if (!resolvePlatform(spec.platform, &accel, err))
        return false;
    // An explicit workload batch (including 1) overrides the
    // platform's: batching is a property of the run, accounted on the
    // platform side, and applies to every core. 0 (the default)
    // inherits the platform's.
    const int batch = spec.workload.params.batch;
    if (batch > 0)
        accel.batch = batch;

    // A disabled deployment resolves to the plain platform as one
    // core: what a workload set runs on, and what a solo run skips.
    DeploymentConfig dep;
    if (!resolveDeployment(spec.deployment, accel, &dep, err))
        return false;
    if (batch > 0)
        for (AcceleratorConfig &core : dep.coreConfigs)
            core.batch = batch;

    if (spec.workloadSet.enabled())
        env->scheduler = std::make_unique<CoScheduler>(
            env->graphs, spec.workloadSet, dep);
    else if (spec.deployment.enabled)
        env->framework =
            std::make_unique<CoccoFramework>(env->graphs[0], dep);
    else
        env->framework =
            std::make_unique<CoccoFramework>(env->graphs[0], accel);
    return true;
}

RunOutcome
executeRun(RunEnv &env, SearchSpec spec)
{
    spec.eval.cacheEnabled = spec.eval.cache != nullptr;

    RunOutcome out;
    out.model = env.model;
    out.threads = ThreadPool::resolveThreads(spec.eval.threads);
    out.seed = spec.eval.seed;
    out.cacheEnabled = spec.eval.cacheEnabled;
    out.paretoMode = spec.paretoMode;

    auto t0 = std::chrono::steady_clock::now();
    if (env.scheduler)
        out.schedule = env.scheduler->explore(spec);
    else
        out.result = env.framework->explore(spec);
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    if (env.scheduler) {
        out.isSchedule = true;
        out.resultJson =
            scheduleResultToJson(env.scheduler->model(), out.schedule);
        out.workloadSet = spec.workloadSet;
        out.samples = out.schedule.samples;
        out.objective = out.schedule.objective;
        out.stop = out.schedule.stop;
        out.cacheStats = out.schedule.cacheStats;
    } else {
        out.resultJson = resultToJson(env.graphs[0], out.result);
        out.samples = out.result.samples;
        out.objective = out.result.objective;
        out.stop = out.result.stop;
        out.cacheStats = out.result.cacheStats;
    }
    return out;
}

RunMetrics
runMetrics(const RunOutcome &out, const std::string &name)
{
    RunMetrics m;
    m.name = name;
    m.model = out.model;
    m.threads = out.threads;
    m.seed = out.seed;
    m.samples = out.samples;
    m.bestCost = out.objective;
    m.wallSeconds = out.wallSeconds;
    m.cacheEnabled = out.cacheEnabled;
    m.cache = out.cacheStats;
    if (out.isSchedule) {
        fillTenantMetrics(out.workloadSet, out.schedule, &m);
    } else {
        m.hasDeployment = true;
        m.deployment = out.result.deployment;
        fillResultMetrics(out.result, out.paretoMode, &m);
    }
    return m;
}

} // namespace cocco
