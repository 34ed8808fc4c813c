/**
 * @file
 * Multi-tenant co-scheduling over one deployment.
 *
 * A Schedule pins each tenant of a WorkloadSet to one core of a
 * resolved DeploymentConfig, gives it its own graph partition, and
 * shares one buffer configuration across all cores (the buffer is a
 * property of the silicon, not of a tenant). ScheduleCostModel
 * composes per-tenant CostModel evaluations — one model per (tenant,
 * distinct core configuration), so a big-little deployment costs each
 * graph on both core kinds but never twice on identical cores — into
 * per-tenant latency/energy, per-core utilization, and an
 * SLA-violation count.
 *
 * Contention model: tenants pinned to the same core time-share it.
 * With steady arrival rate r_t (Hz) and uncontended service time s_t
 * (seconds) per request, core c's utilization is U_c = sum r_t * s_t
 * over its tenants, and each request's effective latency is
 * s_t / (1 - U_c) (processor sharing). U_c >= 1 means the core is
 * saturated: its tenants' latencies are unbounded and every one of
 * them violates its SLA. The model is deterministic and monotone in
 * load — exactly what a search objective needs.
 *
 * Cache salting: a schedule evaluation decomposes into plain
 * (graph, core accelerator, buffer, partition) evaluations, which
 * deliberately share process-wide EvalCache entries with solo runs —
 * arrival rates and SLAs only enter the schedule-level aggregation
 * above, never a cached value. Anything that *does* change cached
 * values must go through CostModel::contextHash as usual;
 * ScheduleCostModel::contextHash additionally fingerprints the
 * schedule-level inputs (tenant graphs, rates, SLAs, core configs)
 * for callers that memoize whole-schedule results.
 */

#ifndef COCCO_SCHEDULE_CO_SCHEDULER_H
#define COCCO_SCHEDULE_CO_SCHEDULER_H

#include <memory>
#include <string>
#include <vector>

#include "schedule/workload_set.h"
#include "search/driver.h"
#include "sim/deployment.h"

namespace cocco {

/** Core saturated / tenant infeasible latency sentinel (finite so
 *  schedules still rank: fewer saturated tenants wins). */
constexpr double kSaturatedLatencyMs = 1e9;

/** One joint placement decision for a WorkloadSet. */
struct Schedule
{
    BufferConfig buffer;        ///< shared by every core
    std::vector<int> coreOf;    ///< tenant -> core index
    std::vector<Partition> parts; ///< tenant -> its graph's partition
};

/** Evaluated serving behavior of one tenant under a Schedule. */
struct TenantCost
{
    bool feasible = false;   ///< partition fits its assigned core
    double serviceMs = 0.0;  ///< uncontended per-request latency
    double latencyMs = 0.0;  ///< contention-scaled effective latency
    double energyPj = 0.0;   ///< per-request energy
    bool slaViolation = true;
    GraphCost graph;         ///< full per-tenant breakdown
};

/** Evaluated behavior of a whole Schedule. */
struct ScheduleCost
{
    std::vector<TenantCost> tenants;
    std::vector<double> coreUtilization; ///< U_c per deployment core
    int slaViolations = 0;
    double meanLatencyMs = 0.0;   ///< mean effective latency
    double energyPjPerSec = 0.0;  ///< sum r_t * energy_t (power)
    bool feasible = false;        ///< every tenant feasible
};

/**
 * Scalar schedule objective: SLA violations dominate (each one costs
 * kSlaViolationPenalty), mean effective latency breaks ties, and an
 * infeasible schedule lands at kInfeasiblePenalty (+violations so
 * even those rank). Lower is better.
 */
constexpr double kSlaViolationPenalty = 1e6;
double scheduleObjective(const ScheduleCost &c);

/**
 * Per-tenant cost-model composer (see file comment). Keeps references
 * to @p graphs — the caller owns them and must keep them alive — and
 * copies the set and deployment.
 */
class ScheduleCostModel
{
  public:
    /** @p graphs must parallel @p set.tenants; @p dep must be
     *  resolved (>= 1 core). */
    ScheduleCostModel(const std::vector<Graph> &graphs,
                      const WorkloadSet &set,
                      const DeploymentConfig &dep);

    int tenants() const { return set_.size(); }
    int cores() const { return dep_.cores(); }
    const WorkloadSet &set() const { return set_; }
    const DeploymentConfig &deployment() const { return dep_; }
    const Graph &graph(int tenant) const { return graphs_[tenant]; }

    /** The model of @p tenant's graph on @p core (deduped: cores with
     *  identical configurations share one model per tenant). */
    CostModel &model(int tenant, int core);

    /** Representative core index of @p core's configuration class
     *  (the lowest core index with an identical configuration). */
    int coreClass(int core) const { return classOf_[core]; }

    /** Evaluate a full placement (see the contention model above). */
    ScheduleCost evaluate(const Schedule &s);

    /** Schedule-level fingerprint: deployment cores + interconnect +
     *  every tenant's graph, arrival rate and SLA, in order. */
    uint64_t contextHash(uint64_t h) const;

  private:
    const std::vector<Graph> &graphs_;
    WorkloadSet set_;
    DeploymentConfig dep_;
    std::vector<int> classOf_; ///< core -> representative core index
    /** models_[tenant * cores + representative]; built lazily. */
    std::vector<std::unique_ptr<CostModel>> models_;
};

/** The outcome of a co-scheduling exploration. */
struct ScheduleResult
{
    Schedule schedule;
    ScheduleCost cost;
    double objective = kInfeasiblePenalty;
    int64_t samples = 0;    ///< inner per-tenant search evaluations
    int64_t placements = 0; ///< (buffer, placement) combinations scored
    StopReason stop = StopReason::BudgetExhausted;
    EvalCacheStats cacheStats;
};

/**
 * The joint search driver. `explore` dispatches on spec.algo:
 * "greedy-place" runs the myopic baseline (heaviest tenant first onto
 * the fastest feasible core, contention-blind, buffer frozen by the
 * first tenant); every other registered strategy runs per
 * (tenant, core-class), and the winners' buffers and partitions feed
 * an exhaustive (or, past kMaxEnumPlacements, hill-climbed) placement
 * enumeration scored by ScheduleCostModel.
 */
class CoScheduler
{
  public:
    /** Caps full placement enumeration (cores^tenants combinations);
     *  larger spaces fall back to greedy-seeded hill climbing. */
    static constexpr int64_t kMaxEnumPlacements = 4096;

    CoScheduler(const std::vector<Graph> &graphs, const WorkloadSet &set,
                const DeploymentConfig &dep);

    ScheduleCostModel &model() { return model_; }

    /** Run the strategy named by @p spec.algo (see class comment). */
    ScheduleResult explore(const SearchSpec &spec);

    /** The myopic baseline, directly (what "greedy-place" runs). */
    ScheduleResult greedy(const SearchSpec &spec);

  private:
    ScheduleResult searched(const SearchSpec &spec);

    ScheduleCostModel model_;
};

/** Result document (the co-schedule analogue of resultToJson). */
std::string scheduleResultToJson(ScheduleCostModel &model,
                                 const ScheduleResult &r);

struct RunMetrics;

/** Fill @p m's "tenants" metrics block from a result over @p set
 *  (no-op when the result carries no evaluated schedule). */
void fillTenantMetrics(const WorkloadSet &set, const ScheduleResult &r,
                       RunMetrics *m);

/**
 * Render the schedule: one utilization lane per core with its
 * tenants' lanes indented beneath (1-second horizon), then each
 * tenant's per-subgraph Gantt chart.
 */
std::string scheduleGantt(ScheduleCostModel &model,
                          const ScheduleResult &r, int width = 60);

} // namespace cocco

#endif // COCCO_SCHEDULE_CO_SCHEDULER_H
