/**
 * @file
 * Layer replays: the per-layer kernels a search reaches only
 * internally (operators, structural and capacity repair,
 * canonicalize, tile-flow derivation and profiling, cost assembly,
 * evaluation-cache lookups, bound screening, schedule evaluation),
 * timed by calling the same public functions on inputs drawn from the
 * workload's own graph and a seeded genome stream.
 *
 * Every figure is a per-call mean in microseconds: the median over a
 * few rounds of the round's mean, so one slow call does not move it.
 */

#ifndef COBENCH_REPLAY_H
#define COBENCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "counting_model.h"
#include "schedule/workload_set.h"
#include "search/genome.h"
#include "sim/accelerator.h"
#include "sim/deployment.h"

namespace cobench {

struct LayerTimes
{
    double crossoverUs = 0.0;     ///< crossover incl. closing repair
    double mutateUs = 0.0;        ///< one partition mutation incl. repair
    double repairStructureUs = 0.0;
    double canonicalizeUs = 0.0;
    double repairToCapacityUs = 0.0;
    double repairToCapacitySelfUs = 0.0; ///< minus its fits() time
    double deriveUs = 0.0;        ///< tile-flow best-scheme derivation
    double profileColdUs = 0.0;   ///< CostModel::profile, first call
    double profileWarmUs = 0.0;   ///< CostModel::profile, memo hit
    double partitionCostUs = 0.0; ///< warm CostModel::partitionCost
    double evalHitUs = 0.0;       ///< EvalEngine::evaluate, cache hit
    double evalMissUs = 0.0;      ///< EvalEngine::evaluate, cache miss
    double boundUs = 0.0;         ///< EvalEngine::objectiveBound
    double lookupUs = 0.0;        ///< EvalCache::lookup (genome, hit)
    double blockLookupUs = 0.0;   ///< EvalCache::lookupBlock (hit)
};

/**
 * Replay every single-graph layer on @p g. The genome stream is drawn
 * (seeded by @p seed) from @p population — repaired candidates the
 * workload's own searches evaluated (CountingCostModel::samples) —
 * each varied by one partition mutation under its own buffer, the way
 * a search derives most children. An empty population falls back to
 * random genomes.
 */
LayerTimes replayLayers(const cocco::Graph &g,
                        const cocco::AcceleratorConfig &accel,
                        const cocco::DseSpace &space,
                        const std::vector<CountingCostModel::Sample> &population,
                        uint64_t seed);

/** Replay ScheduleCostModel::evaluate on a workload set's graphs;
 *  @return microseconds per evaluation. */
double replaySchedule(const std::vector<cocco::Graph> &graphs,
                      const cocco::WorkloadSet &set,
                      const cocco::DeploymentConfig &dep, uint64_t seed);

} // namespace cobench

#endif // COBENCH_REPLAY_H
