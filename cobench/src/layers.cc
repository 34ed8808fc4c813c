#include "layers.h"

#include <algorithm>

namespace cobench {

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerFigures::addRun(const cocco::EvalCacheStats &cache,
                     const cocco::DeltaStats &delta,
                     const CountingCostModel::Totals &cm, size_t profiles,
                     double wallSec, int threads)
{
    ++runs_;
    children += static_cast<double>(delta.reports);
    rewriteSum_ += static_cast<double>(delta.rewrites);
    hwOnlySum_ += static_cast<double>(delta.hwOnly);
    evals += static_cast<double>(cache.hits + cache.misses);
    boundRejections += static_cast<double>(cache.boundRejections);
    hitRatio += static_cast<double>(cache.hits);
    missSum_ += static_cast<double>(cache.misses);
    lookups += static_cast<double>(cache.hits + cache.misses);
    blockHitRatio += static_cast<double>(cache.blockHits);
    blockLookups += static_cast<double>(cache.blockHits + cache.blockMisses);
    insertions += static_cast<double>(cache.insertions);
    evictions += static_cast<double>(cache.evictions);
    entries += static_cast<double>(cache.entries);

    using E = CountingCostModel;
    partitionCostCalls += static_cast<double>(cm.calls[E::PartitionCost]);
    partitionCostUs += cm.seconds[E::PartitionCost];
    fitsCalls += static_cast<double>(cm.calls[E::Fits]);
    fitsUs += cm.seconds[E::Fits];
    boundCalls += static_cast<double>(cm.calls[E::Bound]);
    boundUs += cm.seconds[E::Bound];
    costSecSum_ += cm.totalSeconds();
    profilesDerived += static_cast<double>(profiles);
    wallSum_ += wallSec * std::max(1, threads);
}

void
LayerFigures::addRacers(const std::vector<cocco::RacerStats> &racers)
{
    int64_t all = 0, losers = 0;
    for (const cocco::RacerStats &rs : racers) {
        all += rs.samples;
        culled += rs.culled;
        regrants += rs.regrants;
        if (rs.winner)
            winnerWallS += rs.wallSeconds;
        else
            losers += rs.samples;
    }
    if (all > 0)
        loserEvalsShare += static_cast<double>(losers) / all;
}

void
LayerFigures::finish()
{
    if (runs_ == 0)
        return;
    const double n = runs_;
    hitRatio = ratio(hitRatio, lookups);
    blockHitRatio = ratio(blockHitRatio, blockLookups);
    partitionCostUs = 1e6 * ratio(partitionCostUs, partitionCostCalls);
    fitsUs = 1e6 * ratio(fitsUs, fitsCalls);
    boundUs = 1e6 * ratio(boundUs, boundCalls);
    costModelShare = ratio(costSecSum_, wallSum_);
    selfShare = 1.0 - costModelShare;

    // Replay-derived estimates of the layers the search reaches only
    // internally: a crossover per rewrite, a partition mutation per
    // other child that changed its partition, in-situ repair (minus
    // its fits(), already in the cost-model time) per cache miss, and
    // the cache probes per lookup.
    const LayerTimes &r = replay;
    double mutated = std::max(0.0, children - rewriteSum_ - hwOnlySum_);
    double estUs = rewriteSum_ * r.crossoverUs + mutated * r.mutateUs +
                   missSum_ * r.repairToCapacitySelfUs +
                   lookups * r.lookupUs + blockLookups * r.blockLookupUs;
    unattributedShare = 1.0 - ratio(costSecSum_ + 1e-6 * estUs, wallSum_);

    for (double *sum : {&children, &evals, &boundRejections, &lookups,
                        &blockLookups, &insertions, &evictions, &entries,
                        &partitionCostCalls, &fitsCalls, &boundCalls,
                        &profilesDerived, &culled, &regrants, &winnerWallS,
                        &loserEvalsShare})
        *sum /= n;
}

void
LayerFigures::emit(Report *report) const
{
    Report &m = *report;
    m.add("search.batch_ms", batchMs, "ms");
    m.add("search.self_share", selfShare, "ratio");
    m.add("search.unattributed_share", unattributedShare, "ratio");
    m.add("trace.overhead_share", traceOverheadShare, "ratio");
    m.add("operators.crossover_us", replay.crossoverUs, "us");
    m.add("operators.mutate_us", replay.mutateUs, "us");
    m.add("operators.children", children, "count");
    m.add("partition.repair_structure_us", replay.repairStructureUs, "us");
    m.add("partition.canonicalize_us", replay.canonicalizeUs, "us");
    m.add("partition.repair_to_capacity_us", replay.repairToCapacityUs,
          "us");
    m.add("eval_engine.evals", evals, "count");
    m.add("eval_engine.bound_rejections", boundRejections, "count");
    m.add("eval_engine.hit_us", replay.evalHitUs, "us");
    m.add("eval_engine.miss_us", replay.evalMissUs, "us");
    m.add("eval_engine.bound_us", replay.boundUs, "us");
    m.add("eval_cache.hit_ratio", hitRatio, "ratio");
    m.add("eval_cache.lookups", lookups, "count");
    m.add("eval_cache.block_hit_ratio", blockHitRatio, "ratio");
    m.add("eval_cache.block_lookups", blockLookups, "count");
    m.add("eval_cache.insertions", insertions, "count");
    m.add("eval_cache.evictions", evictions, "count");
    m.add("eval_cache.entries", entries, "count");
    m.add("eval_cache.lookup_us", replay.lookupUs, "us");
    m.add("eval_cache.block_lookup_us", replay.blockLookupUs, "us");
    m.add("cost_model.partition_cost_calls", partitionCostCalls, "count");
    m.add("cost_model.partition_cost_us", partitionCostUs, "us");
    m.add("cost_model.fits_calls", fitsCalls, "count");
    m.add("cost_model.fits_us", fitsUs, "us");
    m.add("cost_model.bound_calls", boundCalls, "count");
    m.add("cost_model.bound_us", boundUs, "us");
    m.add("cost_model.share", costModelShare, "ratio");
    m.add("cost_model.partition_cost_warm_us", replay.partitionCostUs, "us");
    m.add("tileflow.profiles_derived", profilesDerived, "count");
    m.add("tileflow.derive_us", replay.deriveUs, "us");
    m.add("tileflow.profile_cold_us", replay.profileColdUs, "us");
    m.add("tileflow.profile_warm_us", replay.profileWarmUs, "us");
    m.add("portfolio.culled", culled, "count");
    m.add("portfolio.regrants", regrants, "count");
    m.add("portfolio.loser_evals_share", loserEvalsShare, "ratio");
    m.add("portfolio.winner_wall_s", winnerWallS, "s");
    m.add("thread_pool.cpu_share", cpuShare, "ratio");
    m.add("schedule.evaluate_us", scheduleEvaluateUs, "us");
    m.add("schedule.jobs", scheduleJobs, "count");
    m.add("serve.submit_ms", submitMs, "ms");
    m.add("serve.queue_wait_ms", queueWaitMs, "ms");
    m.add("serve.run_ms", runMs, "ms");
    m.add("serve.overhead_ms", overheadMs, "ms");
    m.add("serve.rejections", rejections, "count");
    m.add("serve.threads_granted", threadsGranted, "count");
    m.add("serve.cache_hit_ratio", serveCacheHitRatio, "ratio");
}

} // namespace cobench
