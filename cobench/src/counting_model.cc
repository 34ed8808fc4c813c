#include "counting_model.h"

#include <atomic>
#include <chrono>

namespace cobench {

using namespace cocco;

namespace {

uint64_t
nextModelId()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

CountingCostModel::CountingCostModel(const Graph &g,
                                     const AcceleratorConfig &accel)
    : CostModel(g, accel), id_(nextModelId())
{
}

/** Times one entry-point call into its thread's slot. */
class CountingCostModel::Timed
{
  public:
    Timed(CountingCostModel &model, Entry entry)
        : slot_(model.slot()), entry_(entry)
    {
        ++slot_.totals.calls[entry_];
        if (slot_.depth++ == 0)
            start_ = std::chrono::steady_clock::now();
    }

    ~Timed()
    {
        if (--slot_.depth == 0)
            slot_.totals.seconds[entry_] +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }

  private:
    Slot &slot_;
    Entry entry_;
    std::chrono::steady_clock::time_point start_;
};

CountingCostModel::Slot &
CountingCostModel::slot()
{
    // One slot per (thread, model); the thread-local cache makes the
    // common case a compare. Keyed by a process-unique id, not the
    // address: a later model may reuse a destroyed one's storage.
    thread_local uint64_t owner = 0;
    thread_local Slot *cached = nullptr;
    if (owner != id_) {
        std::lock_guard<std::mutex> lk(mu_);
        slots_.push_back(std::make_unique<Slot>());
        cached = slots_.back().get();
        owner = id_;
    }
    return *cached;
}

CountingCostModel::Totals
CountingCostModel::totals() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Totals out;
    for (const auto &s : slots_) {
        for (int e = 0; e < kEntries; ++e) {
            out.calls[e] += s->totals.calls[e];
            out.seconds[e] += s->totals.seconds[e];
        }
    }
    return out;
}

std::vector<CountingCostModel::Sample>
CountingCostModel::samples() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return samples_;
}

GraphCost
CountingCostModel::partitionCost(const Partition &p, const BufferConfig &buf,
                                 SubgraphCostCache *block_cache,
                                 CostScope scope)
{
    Timed t(*this, PartitionCost);
    if (costCalls_.fetch_add(1, std::memory_order_relaxed) % kSampleStride ==
        0) {
        std::lock_guard<std::mutex> lk(mu_);
        if (samples_.size() < kSamples)
            samples_.push_back({p, buf});
    }
    return CostModel::partitionCost(p, buf, block_cache, scope);
}

bool
CountingCostModel::fits(const std::vector<NodeId> &nodes,
                        const BufferConfig &buf)
{
    Timed t(*this, Fits);
    return CostModel::fits(nodes, buf);
}

SubgraphBound
CountingCostModel::subgraphBound(const std::vector<NodeId> &nodes,
                                 const BufferConfig &buf)
{
    Timed t(*this, Bound);
    return CostModel::subgraphBound(nodes, buf);
}

} // namespace cobench
