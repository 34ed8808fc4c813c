/**
 * @file
 * The per-layer figures of a traced run (--trace 1), one struct so
 * every workload reports the same names and units. A layer a
 * workload never reaches (the portfolio outside race-resnet50, serve
 * outside serve-mix, ...) reports 0.
 */

#ifndef COBENCH_LAYERS_H
#define COBENCH_LAYERS_H

#include "common.h"
#include "counting_model.h"
#include "replay.h"
#include "search/eval_cache.h"
#include "search/eval_engine.h"
#include "search/ga.h"

namespace cobench {

struct LayerFigures
{
    // search (observer batch boundaries) and the trace's accounting
    double batchMs = 0.0;
    double selfShare = 0.0;
    double unattributedShare = 0.0;
    double traceOverheadShare = 0.0;

    LayerTimes replay; ///< operators, partition, tileflow, lookups

    // real-run counters (means over the traced explore calls)
    double children = 0.0;
    double evals = 0.0;
    double boundRejections = 0.0;
    double hitRatio = 0.0;
    double lookups = 0.0;
    double blockHitRatio = 0.0;
    double blockLookups = 0.0;
    double insertions = 0.0;
    double evictions = 0.0;
    double entries = 0.0;

    // sim.cost_model (CountingCostModel) and tileflow memo growth
    double partitionCostCalls = 0.0;
    double partitionCostUs = 0.0;
    double fitsCalls = 0.0;
    double fitsUs = 0.0;
    double boundCalls = 0.0;
    double boundUs = 0.0;
    double costModelShare = 0.0;
    double profilesDerived = 0.0;

    // search.portfolio
    double culled = 0.0;
    double regrants = 0.0;
    double loserEvalsShare = 0.0;
    double winnerWallS = 0.0;

    double cpuShare = 0.0; ///< util.thread_pool

    // schedule
    double scheduleEvaluateUs = 0.0;
    double scheduleJobs = 0.0;

    // serve
    double submitMs = 0.0;
    double queueWaitMs = 0.0;
    double runMs = 0.0;
    double overheadMs = 0.0;
    double rejections = 0.0;
    double threadsGranted = 0.0;
    double serveCacheHitRatio = 0.0;

    /** Accumulates one traced search's cache, operator and cost-model
     *  counters (call finish() once after the last run). */
    void addRun(const cocco::EvalCacheStats &cache,
                const cocco::DeltaStats &delta,
                const CountingCostModel::Totals &cm, size_t profiles,
                double wallSec, int threads);

    /** Accumulates one traced portfolio race's racer stats. */
    void addRacers(const std::vector<cocco::RacerStats> &racers);

    /** Turns the accumulated sums into per-run means and derives the
     *  shares, including the unattributed batch wall (which needs the
     *  replay times, so replay must be filled first). */
    void finish();

    /** Adds every per-layer metric to @p report. */
    void emit(Report *report) const;

  private:
    int runs_ = 0;
    double wallSum_ = 0.0;     ///< batch wall x threads, summed
    double costSecSum_ = 0.0;  ///< cost-model time, summed
    double rewriteSum_ = 0.0;  ///< crossover children, summed
    double hwOnlySum_ = 0.0;   ///< hardware-only children, summed
    double missSum_ = 0.0;
};

} // namespace cobench

#endif // COBENCH_LAYERS_H
