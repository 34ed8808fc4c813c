/**
 * @file
 * The two single-run workloads, explore-irregular and race-resnet50:
 * repeated co-explorations through the library's public entry points,
 * each compared with a slow reference run of the same spec.
 *
 * A run derives its inputs (search seeds) from --seed. Each input is
 * set up (spec parse, workload and platform resolve, framework
 * construction) kSetupWarmup times untimed. The window then cycles
 * through the inputs, one explore call each through
 * CoccoFramework::explore on a fresh framework, until --seconds pass
 * (at least one round). Before each call its input is set up again
 * kSetupPerCall times, timed, so that setup_s samples the host across
 * the whole window rather than in one burst at its start. After
 * the window each input runs once the slow, independent way — cache
 * off, pruning off, threads 1 — and every call's objective, buffer
 * and partition must equal its input's reference.
 *
 * Traced runs make half of the calls traced, in a checkerboard over
 * rounds and inputs: a traced call goes through SearcherRegistry on a
 * CountingCostModel with a batch observer. The layer replays then run
 * on the workload's graph, fed with the traced calls' candidates.
 */

#include <malloc.h>

#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/cocco.h"
#include "core/serialize.h"
#include "counting_model.h"
#include "layers.h"
#include "replay.h"
#include "serve/service.h"
#include "trace.h"
#include "util/logging.h"
#include "workloads.h"

namespace cobench {

using namespace cocco;

namespace {

constexpr int kSetupWarmup = 2;  ///< untimed set-ups per input
constexpr int kSetupPerCall = 8; ///< timed set-ups before each call

/** Improvement times and batch boundaries of one explore call. The
 *  portfolio forwards racer progress from several threads, hence the
 *  lock. */
class RunLog final : public SearchObserver
{
  public:
    /** @p spans: also record each batch as a trace span. */
    explicit RunLog(bool spans) : spans_(spans) {}

    void
    start(double t0)
    {
        t0_ = t0;
        lastBatch_ = t0;
    }

    void
    onImprove(const TracePoint &tp) override
    {
        std::lock_guard<std::mutex> lk(mu_);
        improves_.emplace_back(nowSec() - t0_, tp.bestCost);
    }

    void
    onBatchDone(int64_t samples, double bestCost) override
    {
        (void)samples;
        (void)bestCost;
        double now = nowSec();
        std::lock_guard<std::mutex> lk(mu_);
        batchSec_.push_back(now - lastBatch_);
        if (spans_)
            Tracer::instance().add("batch", lastBatch_, now);
        lastBatch_ = now;
    }

    /** Seconds until the first improvement reaching @p target; -1
     *  when none was observed. */
    double
    timeToTarget(double target) const
    {
        double best = -1.0;
        for (const auto &[t, cost] : improves_)
            if (cost <= target && (best < 0.0 || t < best))
                best = t;
        return best;
    }

    const std::vector<double> &batchSec() const { return batchSec_; }

  private:
    const bool spans_;
    std::mutex mu_;
    double t0_ = 0.0;
    double lastBatch_ = 0.0;
    std::vector<std::pair<double, double>> improves_;
    std::vector<double> batchSec_;
};

/** One search seed's spec, resolved environment and figures. */
struct Input
{
    std::string text; ///< the run spec
    SearchSpec spec;
    Graph graph;
    AcceleratorConfig accel;
    CoccoResult ref;

    std::vector<double> wall, rate, ttt, latency, rss; ///< untraced calls
    std::vector<double> tracedWall;
};

/** Spec parse + workload/platform resolve, as `cocco run` does. */
bool
resolve(const std::string &text, Input *in, std::string *err)
{
    if (!parseRunSpecText(text, &in->spec, err) ||
        !resolveWorkload(in->spec.workload, &in->graph, err) ||
        !resolvePlatform(in->spec.platform, &in->accel, err))
        return false;
    if (in->spec.workload.params.batch > 0)
        in->accel.batch = in->spec.workload.params.batch;
    return true;
}

/**
 * One set-up as a user pays it: resolve() plus framework
 * construction, into @p in. The framework is destroyed outside the
 * timer. @return seconds, or -1 with @p err set on failure.
 */
double
timedSetup(const std::string &text, Input *in, std::string *err)
{
    double t0 = nowSec();
    if (!resolve(text, in, err))
        return -1.0;
    auto fw = std::make_unique<CoccoFramework>(in->graph, in->accel);
    double dt = nowSec() - t0;
    fw.reset(); // before anything it refers to
    return dt;
}

bool
sameBuffer(const BufferConfig &a, const BufferConfig &b)
{
    return a.style == b.style && a.actBytes == b.actBytes &&
           a.weightBytes == b.weightBytes && a.sharedBytes == b.sharedBytes;
}

/** Mean over inputs of the per-input median of @p field: the inputs'
 *  figures differ by seed, and a median over their mixture would jump
 *  between them. */
double
meanOfMedians(const std::vector<Input> &inputs,
              std::vector<double> Input::*field)
{
    std::vector<double> m;
    for (const Input &in : inputs)
        m.push_back(median(in.*field));
    return mean(m);
}

/** One explore call's outcome. */
struct Call
{
    CoccoResult result;
    double wall = 0.0;    ///< the explore call alone
    double latency = 0.0; ///< framework construction to result
    double cpu = 0.0;     ///< process CPU during the call
    double ttt = 0.0;
    CountingCostModel::Totals costModel; ///< traced calls only
    size_t profiles = 0;                 ///< traced calls only
    std::vector<double> batchSec;
    std::vector<CountingCostModel::Sample> samples; ///< traced calls only
};

/** What the check and the tail keep of a call (a full result holds
 *  the whole trace, which would weigh on peak_rss_mb). */
struct Outcome
{
    int input = 0;
    bool traced = false;
    double latency = 0.0;
    double objective = 0.0;
    BufferConfig buffer;
    Partition partition;
};

Call
exploreOnce(const Input &in, bool traced)
{
    Call c;
    RunLog log(traced);
    SearchSpec spec = in.spec;
    spec.eval.observer = &log;
    double l0 = nowSec();
    if (!traced) {
        CoccoFramework fw(in.graph, in.accel);
        double c0 = cpuSec();
        double t0 = nowSec();
        log.start(t0);
        c.result = fw.explore(spec);
        c.wall = nowSec() - t0;
        c.cpu = cpuSec() - c0;
    } else {
        Tracer::Scope span("explore");
        CountingCostModel model(in.graph, in.accel);
        DseSpace space = DseSpace::paperSpace(spec.style);
        std::unique_ptr<Searcher> searcher =
            SearcherRegistry::instance().make(spec.algo, model, space, spec);
        double t0 = nowSec();
        log.start(t0);
        SearchResult r = searcher->run();
        c.wall = nowSec() - t0;
        c.result.objective = r.bestCost;
        c.result.buffer = r.bestBuffer;
        c.result.partition = r.best.part;
        c.result.samples = r.samples;
        c.result.cacheStats = r.cacheStats;
        c.result.deltaStats = r.deltaStats;
        c.result.racers = r.racers;
        c.samples = model.samples();
        c.costModel = model.totals();
        c.profiles = model.cacheSize();
    }
    c.latency = nowSec() - l0;
    c.ttt = log.timeToTarget(c.result.objective);
    if (c.ttt < 0.0)
        c.ttt = c.wall;
    c.batchSec = log.batchSec();
    return c;
}

struct ExploreWorkload
{
    std::string (*spec)(uint64_t seed);
    int threads; ///< thread budget of one call
    int inputs;  ///< search seeds per run
};

void
runExplore(const Args &args, const ExploreWorkload &w, Report *report)
{
    Report &rep = *report;
    Tracer::Scope runSpan("run");

    // --- set-up: kSetupWarmup untimed reps per input, the first of
    //     which resolves the input the window runs ---
    std::vector<Input> inputs(w.inputs);
    std::vector<double> setup;
    {
        Tracer::Scope span("setup");
        for (int i = 0; i < w.inputs; ++i) {
            inputs[i].text = w.spec(subSeed(args.seed, i));
            for (int r = 0; r < kSetupWarmup; ++r) {
                Input scratch;
                std::string err;
                if (timedSetup(inputs[i].text, r ? &scratch : &inputs[i],
                               &err) < 0.0) {
                    rep.fail("set-up of input %d: %s", i, err.c_str());
                    return;
                }
            }
        }
    }

    // --- the measured window ---
    LayerFigures layers;
    std::vector<double> cpuShare, batchSec;
    std::vector<Outcome> results;
    std::vector<CountingCostModel::Sample> population; ///< replay inputs
    double start = nowSec();
    {
        Tracer::Scope span("window");
        // Traced runs interleave traced and untraced calls in a
        // checkerboard over (round, input), so both halves see the
        // same inputs and the same drift of the host.
        const int minCalls = args.trace ? 2 * w.inputs : w.inputs;
        for (int it = 0; it < minCalls || nowSec() - start < args.seconds;
             ++it) {
            const int i = it % w.inputs;
            Input &in = inputs[i];
            bool traced = args.trace && (it / w.inputs + i) % 2 == 1;
            for (int r = 0; r < kSetupPerCall; ++r) {
                Input scratch;
                std::string err;
                double dt = timedSetup(in.text, &scratch, &err);
                if (dt < 0.0)
                    rep.fail("set-up of input %d: %s", i, err.c_str());
                else
                    setup.push_back(dt);
            }
            // Each call starts from a trimmed heap, as in a fresh
            // `cocco run` process, so its peak RSS does not depend on
            // what earlier calls left in the allocator's arenas.
            malloc_trim(0);
            const bool rss = !traced && resetPeakRss();
            Call c = exploreOnce(in, traced);
            if (rss)
                in.rss.push_back(peakRssMb());
            const CoccoResult &r = c.result;
            results.push_back({i, traced, c.latency, r.objective, r.buffer,
                               r.partition});
            if (!traced) {
                in.wall.push_back(c.wall);
                in.rate.push_back(static_cast<double>(r.samples) / c.wall);
                in.ttt.push_back(c.ttt);
                in.latency.push_back(c.latency);
                cpuShare.push_back(c.cpu / (w.threads * c.wall));
            } else {
                in.tracedWall.push_back(c.wall);
                population.insert(population.end(), c.samples.begin(),
                                  c.samples.end());
                batchSec.insert(batchSec.end(), c.batchSec.begin(),
                                c.batchSec.end());
                layers.addRun(r.cacheStats, r.deltaStats, c.costModel,
                              c.profiles, c.wall, w.threads);
                layers.addRacers(r.racers);
            }
        }
    }
    const double window = nowSec() - start;
    // Per call, since a process peak over the window would depend on
    // how many calls the host's speed let it hold; before the
    // references run either way.
    const double peakRss = inputs[0].rss.empty()
                               ? peakRssMb()
                               : meanOfMedians(inputs, &Input::rss);

    // --- references: the slow, independent path, one thread each ---
    {
        Tracer::Scope span("reference");
        std::vector<std::thread> refs;
        for (Input &in : inputs)
            refs.emplace_back([&in] {
                SearchSpec spec = in.spec;
                spec.eval.cacheEnabled = false;
                spec.eval.pruning = false;
                spec.eval.threads = 1;
                CoccoFramework fw(in.graph, in.accel);
                in.ref = fw.explore(spec);
            });
        for (std::thread &t : refs)
            t.join();
    }
    rep.attempted = static_cast<int64_t>(results.size());
    for (const Outcome &o : results) {
        const CoccoResult &ref = inputs[o.input].ref;
        if (o.objective != ref.objective || !sameBuffer(o.buffer, ref.buffer) ||
            !(o.partition == ref.partition))
            rep.fail("input %d: objective %.17g / buffer %s differ from "
                     "the reference (%.17g / %s)",
                     o.input, o.objective, o.buffer.str().c_str(),
                     ref.objective, ref.buffer.str().c_str());
    }

    double objective = 0.0, samples = 0.0;
    for (const Input &in : inputs) {
        objective += in.ref.objective / w.inputs;
        samples += static_cast<double>(in.ref.samples) / w.inputs;
    }

    if (!args.trace) {
        // The tail of each call's latency relative to its input's
        // median, scaled to the p50: the spread between inputs is the
        // seeds', not the host's, and is already in the p50.
        std::vector<double> relative;
        for (const Outcome &o : results)
            if (!o.traced)
                relative.push_back(o.latency /
                                   median(inputs[o.input].latency));
        const double p50 = meanOfMedians(inputs, &Input::latency);
        double q = 0.0;
        double tail = p50 * tailQuantile(relative, &q);
        rep.add("setup_s", median(setup), "s");
        rep.add("search_s", meanOfMedians(inputs, &Input::wall), "s");
        rep.add("evals_per_s", meanOfMedians(inputs, &Input::rate), "1/s");
        rep.add("time_to_target_s", meanOfMedians(inputs, &Input::ttt), "s");
        rep.add("objective", objective, "objective");
        rep.add("jobs_per_s", static_cast<double>(results.size()) / window,
                "1/s");
        rep.add("job_latency_p50_s", p50, "s");
        rep.add("job_latency_tail_s", tail, "s");
        rep.add("peak_rss_mb", peakRss, "MB");
        rep.note("tail_percentile", 100.0 * q);
        rep.note("tail_samples", static_cast<double>(relative.size()));
    } else {
        layers.batchMs = 1e3 * median(batchSec);
        layers.traceOverheadShare = meanOfMedians(inputs, &Input::tracedWall) /
                                    meanOfMedians(inputs, &Input::wall);
        layers.cpuShare = mean(cpuShare);
        layers.replay =
            replayLayers(inputs[0].graph, inputs[0].accel,
                         DseSpace::paperSpace(inputs[0].spec.style), population,
                         subSeed(args.seed, 100));
        layers.finish();
        layers.emit(&rep);
    }
    for (int i = 0; i < w.inputs; ++i)
        rep.note(strprintf("objective_%d", i), inputs[i].ref.objective);
    rep.note("samples_per_call", samples);
}

std::string
irregularSpec(uint64_t seed)
{
    return strprintf("{\"algo\":\"ga\",\"model\":\"RandWire-A\","
                     "\"platform\":\"simba\",\"style\":\"shared\","
                     "\"samples\":1200,\"seed\":%llu,\"threads\":1}",
                     static_cast<unsigned long long>(seed));
}

std::string
raceSpec(uint64_t seed)
{
    return strprintf("{\"algo\":\"portfolio\",\"model\":\"ResNet50\","
                     "\"platform\":\"simba\",\"style\":\"shared\","
                     "\"samples\":20000,\"seed\":%llu,\"threads\":4,"
                     "\"portfolio\":{\"racers\":[\"ga\",\"sa\","
                     "\"ts-random\",\"ts-grid\"],\"deterministicRace\":"
                     "true,\"checkEvals\":250,\"warmupEvals\":500}}",
                     static_cast<unsigned long long>(seed));
}

} // namespace

void
runExploreIrregular(const Args &args, Report *report, std::string *budgets)
{
    *budgets = "explore threads 1; reference threads 1";
    runExplore(args, {irregularSpec, 1, 8}, report);
}

void
runRaceResnet50(const Args &args, Report *report, std::string *budgets)
{
    *budgets = "race thread budget 4 over 4 racers; reference threads 1";
    runExplore(args, {raceSpec, 4, 8}, report);
}

} // namespace cobench
