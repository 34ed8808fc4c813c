/**
 * @file
 * The one spec runner: every front end (`cocco partition` /
 * `coexplore` / `run` / `coschedule`, and the JobManager behind
 * `cocco serve` / `cocco batch`) runs a SearchSpec through these
 * steps, so a served job and a solo run of the same document
 * are bit-identical by construction:
 *
 *   checkRunSpec   structural admission (anything a driver would
 *                  abort on is rejected with a reason);
 *   prepareRun     resolve the workload (or tenants), the platform,
 *                  the workload batch override and the deployment
 *                  into a RunEnv: a CoccoFramework for a solo run, a
 *                  CoScheduler for a "workload_set" run;
 *   executeRun     run the search and package a RunOutcome (model
 *                  name, result document, wall time, scalar outcome);
 *   runMetrics     the schema-v1 metrics record of an outcome.
 *
 * The caller owns what differs per front end: the evaluation cache
 * (spec.eval.cache; none given means caching off), the observer,
 * checkpoint hooks, printing and the metrics record's name.
 *
 * @code
 *   std::string err;
 *   RunEnv env;
 *   if (!checkRunSpec(spec, &err) || !prepareRun(spec, &env, &err))
 *       return fail(err);
 *   RunOutcome out = executeRun(env, spec);
 *   RunMetrics m = runMetrics(out, "spec-" + spec.algo);
 * @endcode
 */

#ifndef COCCO_CORE_RUNNER_H
#define COCCO_CORE_RUNNER_H

#include <memory>
#include <string>
#include <vector>

#include "core/cocco.h"
#include "schedule/co_scheduler.h"

namespace cocco {

/**
 * Structural admission check: unknown algorithm, budget < 1,
 * degenerate GA/SA/two-step/portfolio knobs, unknown, duplicate or
 * self racers, no workload, or an invalid workload set.
 * @return false with *err set to the reason.
 */
bool checkRunSpec(const SearchSpec &spec, std::string *err);

/** A spec's resolved evaluation environment. Not copyable or
 *  movable: the framework and co-scheduler keep references into
 *  `graphs`. */
struct RunEnv
{
    RunEnv() = default;
    RunEnv(const RunEnv &) = delete;
    RunEnv &operator=(const RunEnv &) = delete;

    std::string model; ///< graph name; tenant graph names joined by '+'
    std::vector<Graph> graphs; ///< the workload, or one per tenant
    std::unique_ptr<CoccoFramework> framework; ///< solo runs
    std::unique_ptr<CoScheduler> scheduler;    ///< workload_set runs
};

/**
 * Resolve @p spec into @p env (which must be fresh). A plain
 * platform is a 1-core deployment for a workload set; an explicit
 * workload batch overrides the platform's and every core's.
 * @return false with *err set on any resolution problem.
 */
bool prepareRun(const SearchSpec &spec, RunEnv *env, std::string *err);

/** What one run produced, detached from its RunEnv. */
struct RunOutcome
{
    std::string model;      ///< RunEnv::model
    std::string resultJson; ///< resultToJson / scheduleResultToJson
    double wallSeconds = 0.0;

    /** The run as configured: what the metrics record reports. */
    int threads = 1;           ///< resolved evaluation threads
    uint64_t seed = 0;
    bool cacheEnabled = false; ///< ran over a cache
    bool paretoMode = false;

    /** The scalar outcome, for both kinds of run. */
    int64_t samples = 0;
    double objective = 0.0;
    StopReason stop = StopReason::BudgetExhausted;
    EvalCacheStats cacheStats;

    bool isSchedule = false; ///< which of the two below is set
    CoccoResult result;      ///< solo runs
    ScheduleResult schedule; ///< workload_set runs
    WorkloadSet workloadSet; ///< workload_set runs: the tenants
};

/** Run @p spec over @p env (prepared from the same spec). The cache
 *  is spec.eval.cache; without one the run does not cache. */
RunOutcome executeRun(RunEnv &env, SearchSpec spec);

/** The metrics record of @p out, labeled @p name: the deployment
 *  block for a solo run (plus portfolio/pareto when present), the
 *  tenants block for a workload set. */
RunMetrics runMetrics(const RunOutcome &out, const std::string &name);

} // namespace cocco

#endif // COCCO_CORE_RUNNER_H
