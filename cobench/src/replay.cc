#include "replay.h"

#include <algorithm>
#include <set>

#include "common.h"
#include "counting_model.h"
#include "partition/repair.h"
#include "schedule/co_scheduler.h"
#include "search/eval_engine.h"
#include "search/operators.h"
#include "tileflow/footprint.h"
#include "trace.h"
#include "util/hash.h"

namespace cobench {

using namespace cocco;

namespace {

constexpr int kRounds = 5;
constexpr int kGenomes = 24; ///< size of the seeded genome stream

volatile double g_sink = 0.0; ///< keeps replayed results observable

/**
 * Median over kRounds of the per-call mean of @p call(i), i < n, in
 * microseconds. @p prepare(round) runs untimed before each round (to
 * build inputs a call consumes).
 */
template <typename Prepare, typename Call>
double
perCallUs(const char *span, int n, Prepare &&prepare, Call &&call)
{
    Tracer::Scope scope(span);
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
        prepare(r);
        double t0 = nowSec();
        for (int i = 0; i < n; ++i)
            call(i);
        rounds.push_back((nowSec() - t0) * 1e6 / n);
    }
    return median(rounds);
}

template <typename Call>
double
perCallUs(const char *span, int n, Call &&call)
{
    return perCallUs(span, n, [](int) {}, call);
}

/** A pre-repair partition: @p p with ~3% of nodes reassigned to
 *  random existing blocks (what an operator hands to repair). */
Partition
scramble(const Partition &p, Rng &rng)
{
    Partition out = p;
    int blocks = std::max(1, p.numBlocks);
    for (size_t v = 0; v < out.block.size(); ++v)
        if (rng.bernoulli(0.03))
            out.block[v] = static_cast<int>(rng.index(blocks));
    return out;
}

/** The same partition with its block ids randomly permuted (a valid
 *  canonicalize() input: the quotient stays acyclic). */
Partition
relabel(const Partition &p, Rng &rng)
{
    std::vector<int> perm(std::max(1, p.numBlocks));
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<int>(i);
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.index(i)]);
    Partition out = p;
    for (int &b : out.block)
        b = perm[b];
    return out;
}

/** A genome carrying a sampled candidate's partition and buffer. */
Genome
genomeOf(const CountingCostModel::Sample &s, const DseSpace &space)
{
    Genome gn;
    gn.part = s.part;
    gn.actIdx = space.actGrid.indexOf(s.buf.actBytes);
    gn.weightIdx = space.weightGrid.indexOf(s.buf.weightBytes);
    gn.sharedIdx = space.sharedGrid.indexOf(s.buf.sharedBytes);
    return gn;
}

} // namespace

LayerTimes
replayLayers(const Graph &g, const AcceleratorConfig &accel,
             const DseSpace &space,
             const std::vector<CountingCostModel::Sample> &population,
             uint64_t seed)
{
    Tracer::Scope scope("replay");
    LayerTimes t;
    Rng rng(seed);

    // The seeded genome stream every kernel draws from.
    std::vector<Genome> genomes;
    for (int i = 0; i < kGenomes; ++i) {
        if (population.empty()) {
            genomes.push_back(randomGenome(g, space, rng));
            continue;
        }
        Genome gn = genomeOf(population[(i * 7) % population.size()], space);
        switch (i % 3) {
          case 0: mutateModifyNode(g, gn, rng); break;
          case 1: mutateSplitSubgraph(g, gn, rng); break;
          default: mutateMergeSubgraph(g, gn, rng); break;
        }
        genomes.push_back(std::move(gn));
    }
    std::vector<BufferConfig> bufs;
    for (const Genome &gn : genomes)
        bufs.push_back(gn.buffer(space));

    // --- search.operators ---
    const int nOps = 4 * kGenomes;
    t.crossoverUs = perCallUs("replay.crossover", nOps, [&](int i) {
        Genome c = crossover(g, space, genomes[i % kGenomes],
                             genomes[(i + 1) % kGenomes], rng);
        g_sink = g_sink + c.part.numBlocks;
    });
    std::vector<Genome> work;
    t.mutateUs = perCallUs(
        "replay.mutate", nOps,
        [&](int) {
            work.clear();
            for (int i = 0; i < nOps; ++i)
                work.push_back(genomes[i % kGenomes]);
        },
        [&](int i) {
            Genome &c = work[i];
            switch (i % 3) {
              case 0: mutateModifyNode(g, c, rng); break;
              case 1: mutateSplitSubgraph(g, c, rng); break;
              default: mutateMergeSubgraph(g, c, rng); break;
            }
            g_sink = g_sink + c.part.numBlocks;
        });

    // --- partition ---
    std::vector<Partition> parts;
    t.repairStructureUs = perCallUs(
        "replay.repair_structure", nOps,
        [&](int) {
            parts.clear();
            for (int i = 0; i < nOps; ++i)
                parts.push_back(scramble(genomes[i % kGenomes].part, rng));
        },
        [&](int i) {
            Partition p = repairStructure(g, std::move(parts[i]));
            g_sink = g_sink + p.numBlocks;
        });
    t.canonicalizeUs = perCallUs(
        "replay.canonicalize", nOps,
        [&](int) {
            parts.clear();
            for (int i = 0; i < nOps; ++i)
                parts.push_back(relabel(genomes[i % kGenomes].part, rng));
        },
        [&](int i) {
            parts[i].canonicalize(g);
            g_sink = g_sink + parts[i].numBlocks;
        });

    CountingCostModel warm(g, accel);
    warm.setPruning(true);
    std::vector<Partition> repaired;
    for (int i = 0; i < kGenomes; ++i) // warms the profile memo
        repaired.push_back(
            repairToCapacity(g, genomes[i].part, warm, bufs[i]));
    double fitsBefore = warm.totals().seconds[CountingCostModel::Fits];
    double r0 = nowSec();
    t.repairToCapacityUs = perCallUs(
        "replay.repair_to_capacity", kGenomes, [&](int i) {
            Partition p = repairToCapacity(g, genomes[i].part, warm, bufs[i]);
            g_sink = g_sink + p.numBlocks;
        });
    double repairWall = nowSec() - r0;
    double fitsShare =
        repairWall > 0.0
            ? (warm.totals().seconds[CountingCostModel::Fits] - fitsBefore) /
                  repairWall
            : 0.0;
    t.repairToCapacitySelfUs =
        t.repairToCapacityUs * std::max(0.0, 1.0 - fitsShare);

    // --- tileflow and sim.cost_model ---
    std::set<std::vector<NodeId>> distinct;
    for (const Partition &p : repaired)
        for (auto &blk : p.blocks())
            if (blk.size() > 1)
                distinct.insert(std::move(blk));
    std::vector<std::vector<NodeId>> blocks(distinct.begin(), distinct.end());
    if (blocks.size() > 96)
        blocks.resize(96);
    if (blocks.empty())
        blocks.push_back({0});
    const int nBlocks = static_cast<int>(blocks.size());
    t.deriveUs = perCallUs("replay.tileflow_derive", nBlocks, [&](int i) {
        ExecutionScheme s = bestScheme(g, blocks[i]);
        g_sink = g_sink + static_cast<double>(s.actFootprintBytes);
    });
    std::unique_ptr<CostModel> fresh;
    t.profileColdUs = perCallUs(
        "replay.profile_cold", nBlocks,
        [&](int) { fresh = std::make_unique<CostModel>(g, accel); },
        [&](int i) {
            g_sink = g_sink +
                     static_cast<double>(fresh->profile(blocks[i]).macs);
        });
    t.profileWarmUs = perCallUs("replay.profile_warm", nBlocks, [&](int i) {
        g_sink = g_sink + static_cast<double>(fresh->profile(blocks[i]).macs);
    });
    t.partitionCostUs =
        perCallUs("replay.partition_cost", kGenomes, [&](int i) {
            GraphCost c = warm.CostModel::partitionCost(repaired[i], bufs[i]);
            g_sink = g_sink + c.energyPj;
        });

    // --- search.eval_engine: evaluate split by cache outcome ---
    {
        Tracer::Scope span("replay.evaluate");
        std::vector<double> hitUs, missUs;
        EvalOptions opts;
        opts.threads = 1;
        opts.seed = seed;
        for (int r = 0; r < kRounds; ++r) {
            CostModel model(g, accel);
            EvalEngine engine(model, space, opts);
            double hit = 0.0, miss = 0.0;
            int hits = 0, misses = 0;
            for (int pass = 0; pass < 2; ++pass) {
                for (const Genome &gn : genomes) {
                    Genome c = gn;
                    uint64_t before = engine.cache()->stats().hits;
                    double t0 = nowSec();
                    g_sink = g_sink + engine.evaluate(c);
                    double dt = nowSec() - t0;
                    if (engine.cache()->stats().hits > before) {
                        hit += dt;
                        ++hits;
                    } else {
                        miss += dt;
                        ++misses;
                    }
                }
            }
            if (hits)
                hitUs.push_back(hit * 1e6 / hits);
            if (misses)
                missUs.push_back(miss * 1e6 / misses);
        }
        t.evalHitUs = median(hitUs);
        t.evalMissUs = median(missUs);

        CostModel model(g, accel);
        EvalEngine engine(model, space, opts);
        t.boundUs = perCallUs("replay.bound", nOps, [&](int i) {
            g_sink = g_sink + engine.objectiveBound(genomes[i % kGenomes]);
        });
    }

    // --- search.eval_cache: lookups that hit, at both levels ---
    {
        EvalCache cache;
        std::vector<uint64_t> hashes;
        for (int i = 0; i < kGenomes; ++i) {
            const Genome &gn = genomes[i];
            hashes.push_back(hashPartition(kHashSeed + i, gn.part));
            EvalCache::KeyView key{hashes.back(), 1, gn.part.block,
                                   gn.actIdx,     gn.weightIdx,
                                   gn.sharedIdx};
            cache.insert(key, repaired[i], 1.0 + i);
        }
        Partition out;
        t.lookupUs = perCallUs("replay.cache_lookup", nOps, [&](int i) {
            const Genome &gn = genomes[i % kGenomes];
            EvalCache::KeyView key{hashes[i % kGenomes], 1, gn.part.block,
                                   gn.actIdx, gn.weightIdx, gn.sharedIdx};
            double cost = 0.0;
            cache.lookup(key, &out, &cost);
            g_sink = g_sink + cost;
        });
        SubgraphCost cost;
        cost.feasible = true;
        for (int i = 0; i < nBlocks; ++i)
            cache.insertBlock(1, blocks[i], bufs[i % kGenomes], cost);
        t.blockLookupUs =
            perCallUs("replay.block_lookup", nBlocks, [&](int i) {
                SubgraphCost c;
                cache.lookupBlock(1, blocks[i], bufs[i % kGenomes], &c);
                g_sink = g_sink + c.energyPj;
            });
    }
    return t;
}

double
replaySchedule(const std::vector<Graph> &graphs, const WorkloadSet &set,
               const DeploymentConfig &dep, uint64_t seed)
{
    Tracer::Scope scope("replay.schedule_evaluate");
    Rng rng(seed);
    ScheduleCostModel model(graphs, set, dep);
    DseSpace space = DseSpace::paperSpace(BufferStyle::Shared);
    std::vector<Schedule> schedules;
    for (int i = 0; i < kGenomes; ++i) {
        Schedule s;
        Genome hw = randomGenome(graphs[0], space, rng);
        s.buffer = hw.buffer(space);
        for (int t = 0; t < set.size(); ++t) {
            int core = static_cast<int>(rng.index(dep.cores()));
            Genome gn = randomGenome(graphs[t], space, rng);
            s.coreOf.push_back(core);
            s.parts.push_back(repairToCapacity(graphs[t], gn.part,
                                               model.model(t, core),
                                               s.buffer));
        }
        schedules.push_back(std::move(s));
    }
    for (const Schedule &s : schedules) // warm the per-tenant memos
        g_sink = g_sink + model.evaluate(s).meanLatencyMs;
    return perCallUs("replay.schedule", kGenomes, [&](int i) {
        g_sink = g_sink + model.evaluate(schedules[i]).meanLatencyMs;
    });
}

} // namespace cobench
