/**
 * @file
 * A CostModel that times its own virtual entry points.
 *
 * CountingCostModel forwards partitionCost, fits and subgraphBound to
 * the base class and accumulates call counts and wall time per
 * calling thread (no shared counters on the hot path). Only the
 * outermost timed call on a thread adds time, so nested entry points
 * are never counted twice. It also keeps a sample of the (partition,
 * buffer) pairs partitionCost was asked about — the search's own
 * repaired candidates — as replay inputs. Values are bit-identical to
 * the base model: it changes no argument and no result.
 */

#ifndef COBENCH_COUNTING_MODEL_H
#define COBENCH_COUNTING_MODEL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/cost_model.h"

namespace cobench {

class CountingCostModel : public cocco::CostModel
{
  public:
    CountingCostModel(const cocco::Graph &g,
                      const cocco::AcceleratorConfig &accel);

    enum Entry
    {
        PartitionCost,
        Fits,
        Bound,
        kEntries
    };

    struct Totals
    {
        uint64_t calls[kEntries] = {};
        double seconds[kEntries] = {};

        double totalSeconds() const
        {
            return seconds[PartitionCost] + seconds[Fits] + seconds[Bound];
        }
    };

    /** Sum over every thread that called in so far. */
    Totals totals() const;

    /** Every kSampleStride-th partitionCost input, up to kSamples. */
    struct Sample
    {
        cocco::Partition part;
        cocco::BufferConfig buf;
    };
    std::vector<Sample> samples() const;

    static constexpr uint64_t kSampleStride = 16;
    static constexpr size_t kSamples = 64;

    cocco::GraphCost partitionCost(const cocco::Partition &p,
                                   const cocco::BufferConfig &buf,
                                   cocco::SubgraphCostCache *block_cache,
                                   CostScope scope) override;
    bool fits(const std::vector<cocco::NodeId> &nodes,
              const cocco::BufferConfig &buf) override;
    cocco::SubgraphBound subgraphBound(const std::vector<cocco::NodeId> &nodes,
                                       const cocco::BufferConfig &buf) override;

  private:
    struct Slot
    {
        Totals totals;
        int depth = 0;
    };
    class Timed;

    Slot &slot();

    const uint64_t id_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::atomic<uint64_t> costCalls_{0};
    std::vector<Sample> samples_; ///< guarded by mu_
};

} // namespace cobench

#endif // COBENCH_COUNTING_MODEL_H
