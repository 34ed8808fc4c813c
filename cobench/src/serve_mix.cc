/**
 * @file
 * The serve-mix workload: a closed loop of kClients HTTP clients in
 * this process against an in-process HttpServer over a JobManager
 * (kWorkers workers, thread budget kThreadBudget). Each client
 * submits a job (POST /jobs), waits on its event stream (GET
 * /jobs/N/events, time-stamping improvements as they arrive), fetches
 * the result (GET /jobs/N/result), and submits the next, until
 * --seconds pass.
 *
 * The seeded mix (makeMix): every 8th job is a 2-tenant workload_set
 * on big-little (the co-scheduler); the rest are 300-sample GA/SA
 * co-explorations cycling over ResNet50, GoogleNet and MobileNetV2.
 * Jobs alternate in blocks between a small pool of repeated specs
 * (shared-cache reads) and fresh seeds (cache writes).
 *
 * Correctness: every job must end "done", and its result document
 * must equal, byte for byte, a solo run of the same spec (cache off,
 * pruning off), computed after the window.
 */

#include <sys/socket.h>
#include <sys/time.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "core/cocco.h"
#include "core/serialize.h"
#include "counting_model.h"
#include "layers.h"
#include "replay.h"
#include "schedule/co_scheduler.h"
#include "serve/http_server.h"
#include "serve/job_manager.h"
#include "serve/service.h"
#include "trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "workloads.h"

namespace cobench {

using namespace cocco;

namespace {

constexpr int kClients = 3;
constexpr int kWorkers = 2;
constexpr int kThreadBudget = 2;
constexpr int kSetupWarmup = 2;     ///< untimed set-ups before the window
constexpr double kSetupEvery = 0.25; ///< seconds between timed set-ups
constexpr int kMixLength = 20000; ///< more jobs than any window runs
constexpr size_t kProfiledSpecs = 24; ///< solo specs re-run traced
constexpr size_t kObjectiveJobs = 48; ///< plain jobs in `objective`

const char *const kModels[] = {"ResNet50", "GoogleNet", "MobileNetV2"};

struct MixJob
{
    std::string text;
    bool schedule = false;
    int cls = 0; ///< model × algo × repeated, or co-schedule × repeated
};

std::string
plainSpec(const char *algo, const char *model, uint64_t seed)
{
    return strprintf("{\"algo\":\"%s\",\"model\":\"%s\",\"samples\":300,"
                     "\"seed\":%llu,\"threads\":1,\"ga\":{\"population\":"
                     "25}}",
                     algo, model, static_cast<unsigned long long>(seed));
}

std::string
scheduleSpec(uint64_t seed)
{
    return strprintf(
        "{\"algo\":\"ga\",\"samples\":300,\"seed\":%llu,\"threads\":1,"
        "\"ga\":{\"population\":12},\"deployment\":\"big-little\","
        "\"workload_set\":[{\"name\":\"vision\",\"model\":\"GoogleNet\","
        "\"arrival_rate_hz\":40,\"sla_latency_ms\":18},{\"name\":"
        "\"mobile\",\"model\":\"MobileNetV2\",\"arrival_rate_hz\":25,"
        "\"sla_latency_ms\":30}]}",
        static_cast<unsigned long long>(seed));
}

/** The seeded job mix (see file comment); the repeated pool is one
 *  spec per (model, algo). */
std::vector<MixJob>
makeMix(uint64_t seed)
{
    std::vector<MixJob> mix;
    int plain = 0, sched = 0;
    for (int i = 0; i < kMixLength; ++i) {
        if (i % 8 == 7) {
            // Alternate a repeated co-schedule spec with fresh ones.
            bool repeat = sched++ % 2 == 0;
            uint64_t s = repeat ? subSeed(seed, 50) : subSeed(seed, 5000 + i);
            mix.push_back({scheduleSpec(s), true, 12 + repeat});
            continue;
        }
        int j = plain++;
        int model = j % 3;
        int algo = (j / 3) % 2;
        bool repeat = (j / 6) % 2 == 0;
        uint64_t s = repeat ? subSeed(seed, 10 + model * 2 + algo)
                            : subSeed(seed, 5000 + i);
        mix.push_back({plainSpec(algo ? "sa" : "ga", kModels[model], s),
                       false, model * 4 + algo * 2 + repeat});
    }
    return mix;
}

/**
 * Count-weighted mean over the mix's job classes (MixJob::cls) of each
 * class's median of @p v, where v[k] belongs to class cls[k]. The
 * classes differ several-fold in cost (a repeated spec is served
 * mostly from the shared cache), so a median over the whole mixture
 * would jump between them from run to run.
 */
double
classMedianMean(const std::vector<int> &cls, const std::vector<double> &v)
{
    std::map<int, std::vector<double>> byClass;
    for (size_t k = 0; k < v.size(); ++k)
        byClass[cls[k]].push_back(v[k]);
    double sum = 0.0;
    for (const auto &[c, xs] : byClass)
        sum += median(xs) * static_cast<double>(xs.size());
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** The mix indices of the first kObjectiveJobs plain jobs. */
std::vector<int>
objectiveJobs(const std::vector<MixJob> &mix)
{
    std::vector<int> out;
    for (int i = 0; out.size() < kObjectiveJobs; ++i)
        if (!mix[i].schedule)
            out.push_back(i);
    return out;
}

/** What one client observed of one job. */
struct JobRecord
{
    size_t mixIndex = 0;
    bool traced = false;
    bool accepted = false;
    int64_t id = 0;
    double submit = 0.0;  ///< POST round trip
    double latency = 0.0; ///< submit until the result is fetched
    double ttt = 0.0;     ///< submit until the final objective arrived
    int64_t samples = 0;
    std::string terminal; ///< last event kind
    std::string result;
    JobStatus status;
};

/**
 * Read GET /jobs/N/events to its end, time-stamping every event as
 * it arrives. Fills @p rec's time to target (relative to @p t0),
 * samples and terminal kind. @return false on socket failure.
 */
bool
streamEvents(int port, double t0, JobRecord *rec)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string req = strprintf("GET /jobs/%lld/events HTTP/1.1\r\n"
                                "Host: 127.0.0.1\r\nConnection: close\r\n\r\n",
                                static_cast<long long>(rec->id));
    timeval timeout{60, 0}; // a stalled server fails the job, not the run
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0 ||
        ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(req.size())) {
        ::close(fd);
        return false;
    }

    std::vector<std::pair<double, double>> improves; // (arrival, best)
    double done = -1.0, doneBest = 0.0;
    std::string buf;
    bool inBody = false;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        double now = nowSec();
        buf.append(chunk, static_cast<size_t>(n));
        if (!inBody) {
            size_t end = buf.find("\r\n\r\n");
            if (end == std::string::npos)
                continue;
            buf.erase(0, end + 4);
            inBody = true;
        }
        size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            JsonValue ev;
            std::string err;
            if (parseJson(buf.substr(0, nl), &ev, &err) && ev.isObject() &&
                ev.find("event")) {
                const std::string &kind = ev.find("event")->str();
                const JsonValue *best = ev.find("best");
                if (kind == "improve" && best)
                    improves.emplace_back(now, best->number());
                if (kind == "done" || kind == "cancelled" ||
                    kind == "failed") {
                    rec->terminal = kind;
                    done = now;
                    doneBest = best ? best->number() : 0.0;
                    if (const JsonValue *s = ev.find("sample"))
                        rec->samples = s->integer();
                }
            }
            buf.erase(0, nl + 1);
        }
    }
    ::close(fd);
    if (done < 0.0)
        return false;
    rec->ttt = done - t0;
    for (const auto &[at, best] : improves)
        if (best <= doneBest) {
            rec->ttt = at - t0;
            break;
        }
    return true;
}

/** One client: submit, wait, fetch, repeat until @p deadline. */
void
clientLoop(int port, JobManager &manager, const std::vector<MixJob> &mix,
           std::atomic<size_t> &next, double deadline, bool trace,
           std::vector<JobRecord> *out)
{
    while (nowSec() < deadline) {
        size_t i = next.fetch_add(1);
        if (i >= mix.size())
            return;
        JobRecord rec;
        rec.mixIndex = i;
        // Half the jobs, in alternate blocks of one mix period, so
        // both halves see the same mix.
        rec.traced = trace && (i / 8) % 2 == 1;
        std::optional<Tracer::Scope> jobSpan, phase;
        if (rec.traced) {
            jobSpan.emplace("serve.job");
            phase.emplace("serve.submit");
        }
        double t0 = nowSec();
        int status = 0;
        std::string body, err;
        bool sent = httpFetch("127.0.0.1", port, "POST", "/jobs",
                              mix[i].text, &status, &body, &err);
        rec.submit = nowSec() - t0;
        JsonValue doc;
        if (sent && status == 202 && parseJson(body, &doc, &err) &&
            doc.isObject() && doc.find("job")) {
            rec.accepted = true;
            rec.id = doc.find("job")->integer();
            if (rec.traced)
                phase.emplace("serve.wait");
            streamEvents(port, t0, &rec);
            if (rec.traced)
                phase.emplace("serve.fetch");
            httpFetch("127.0.0.1", port, "GET",
                      strprintf("/jobs/%lld/result",
                                static_cast<long long>(rec.id)),
                      "", &status, &rec.result, &err);
            rec.status = manager.status(rec.id);
        }
        rec.latency = nowSec() - t0;
        out->push_back(std::move(rec));
    }
}

/** Counts a search's evaluation batches. */
struct BatchCount final : SearchObserver
{
    int n = 0;
    void
    onBatchDone(int64_t, double) override
    {
        ++n;
    }
};

/** The solo reference: the spec run alone, cache off, pruning off. */
struct Solo
{
    std::string doc;
    double objective = 0.0;
    bool ok = false;
};

Solo
soloRun(const std::string &text)
{
    Solo out;
    SearchSpec spec;
    std::string err;
    if (!parseRunSpecText(text, &spec, &err))
        return out;
    spec.eval.cacheEnabled = false;
    spec.eval.pruning = false;
    AcceleratorConfig accel;
    if (!resolvePlatform(spec.platform, &accel, &err))
        return out;
    if (spec.workloadSet.enabled()) {
        std::vector<Graph> graphs(spec.workloadSet.size());
        for (int t = 0; t < spec.workloadSet.size(); ++t)
            if (!resolveWorkload(spec.workloadSet.tenants[t].workload,
                                 &graphs[t], &err))
                return out;
        DeploymentConfig dep;
        if (!resolveDeployment(spec.deployment, accel, &dep, &err))
            return out;
        CoScheduler sched(graphs, spec.workloadSet, dep);
        ScheduleResult r = sched.explore(spec);
        out.doc = scheduleResultToJson(sched.model(), r);
        out.objective = r.objective;
    } else {
        Graph g;
        if (!resolveWorkload(spec.workload, &g, &err))
            return out;
        CoccoFramework fw(g, accel);
        CoccoResult r = fw.explore(spec);
        out.doc = resultToJson(g, r);
        out.objective = r.objective;
    }
    out.ok = true;
    return out;
}

/** Run @p fn(i) for i < n on up to 4 threads. */
template <typename Fn>
void
parallelRun(size_t n, Fn &&fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([&] {
            for (size_t i; (i = next.fetch_add(1)) < n;)
                fn(i);
        });
    for (std::thread &t : pool)
        t.join();
}

/** A running server over a fresh manager. */
struct Service
{
    std::unique_ptr<JobManager> manager;
    std::unique_ptr<HttpServer> server; ///< calls into manager

    Service() = default;
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Stop the server before the manager it calls into goes. */
    void
    reset()
    {
        server.reset();
        manager.reset();
    }

    ~Service() { reset(); }
};

bool
startService(Service *svc, std::string *err)
{
    JobManagerOptions opts;
    opts.workers = kWorkers;
    opts.threadBudget = kThreadBudget;
    svc->manager = std::make_unique<JobManager>(opts);
    JobManager *m = svc->manager.get();
    svc->server = std::make_unique<HttpServer>(
        [m](const HttpRequest &req) { return serveHttpRequest(*m, req, nullptr); });
    return svc->server->start(0, err);
}

/**
 * One set-up as the service pays it: the client-side parse and
 * resolve of one mix period (the first three resolve their models
 * into @p graphs), then manager and server construction and start,
 * into @p svc. Whatever @p svc held is torn down first, outside the
 * timer. @return seconds, or -1 with @p err set on failure.
 */
double
timedSetup(const std::vector<MixJob> &mix, std::vector<Graph> *graphs,
           AcceleratorConfig *accel, Service *svc, std::string *err)
{
    svc->reset();
    double t0 = nowSec();
    for (int j = 0; j < 8; ++j) {
        SearchSpec spec;
        if (!parseRunSpecText(mix[j].text, &spec, err) ||
            !resolvePlatform(spec.platform, accel, err) ||
            (j < 3 && !resolveWorkload(spec.workload, &(*graphs)[j], err)))
            return -1.0;
    }
    if (!startService(svc, err))
        return -1.0;
    return nowSec() - t0;
}

} // namespace

void
runServeMix(const Args &args, Report *report, std::string *budgets)
{
    Report &rep = *report;
    *budgets = strprintf("serve: %d workers, thread budget %d, %d clients; "
                         "references 4 threads",
                         kWorkers, kThreadBudget, kClients);
    Tracer::Scope runSpan("run");
    std::vector<MixJob> mix = makeMix(args.seed);

    // --- set-up: kSetupWarmup untimed reps; the last one serves.
    //     The timed reps run during the window (below), so that
    //     setup_s samples the host across the whole window rather than
    //     in one burst at its start. ---
    Service svc;
    std::vector<double> setup;
    std::vector<Graph> graphs(3);
    AcceleratorConfig accel;
    {
        Tracer::Scope span("setup");
        for (int r = 0; r < kSetupWarmup; ++r) {
            std::string err;
            if (timedSetup(mix, &graphs, &accel, &svc, &err) < 0.0) {
                rep.fail("set-up: %s", err.c_str());
                return;
            }
        }
    }
    int port = svc.server->port();

    // --- the measured window ---
    std::vector<std::vector<JobRecord>> perClient(kClients);
    std::atomic<size_t> next{0};
    double start = nowSec();
    {
        Tracer::Scope span("window");
        const double deadline = start + args.seconds;
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(clientLoop, port, std::ref(*svc.manager),
                                 std::cref(mix), std::ref(next), deadline,
                                 args.trace, &perClient[c]);
        // Meanwhile, a timed set-up of a scratch service every
        // kSetupEvery seconds, torn down outside the timer.
        std::vector<Graph> scratchGraphs(3);
        AcceleratorConfig scratchAccel;
        for (double t = start + kSetupEvery; t < deadline; t += kSetupEvery) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(t - nowSec()));
            Service scratch;
            std::string err;
            double dt = timedSetup(mix, &scratchGraphs, &scratchAccel,
                                   &scratch, &err);
            if (dt < 0.0)
                rep.fail("set-up: %s", err.c_str());
            else
                setup.push_back(dt);
        }
        for (std::thread &t : clients)
            t.join();
    }
    const double window = nowSec() - start;
    const double peakRss = peakRssMb(); // before the references run
    svc.manager->drain();
    svc.server->stop();
    EvalCacheStats shared = svc.manager->cacheStats();

    std::vector<JobRecord> jobs;
    for (auto &c : perClient)
        for (JobRecord &r : c)
            jobs.push_back(std::move(r));
    rep.attempted = static_cast<int64_t>(jobs.size());

    // --- solo references for every distinct spec that ran, plus the
    //     specs `objective` averages ---
    std::map<std::string, Solo> solo;
    for (int j : objectiveJobs(mix))
        solo[mix[j].text];
    for (const JobRecord &r : jobs)
        solo[mix[r.mixIndex].text];
    {
        Tracer::Scope span("reference");
        std::vector<std::pair<const std::string, Solo> *> todo;
        for (auto &kv : solo)
            todo.push_back(&kv);
        parallelRun(todo.size(), [&](size_t i) {
            todo[i]->second = soloRun(todo[i]->first);
        });
    }

    std::vector<double> latency, run, ttt, submit, queue, overhead, threads,
        untracedLatency, tracedLatency;
    std::vector<int> cls, tracedCls, untracedCls; ///< of the entries above
    int64_t samples = 0, done = 0, rejected = 0, scheduleJobs = 0;
    for (const JobRecord &r : jobs) {
        const Solo &ref = solo[mix[r.mixIndex].text];
        if (!r.accepted) {
            ++rejected;
            rep.fail("job %zu refused at submit", r.mixIndex);
            continue;
        }
        if (r.status.state != JobState::Done || r.terminal != "done") {
            rep.fail("job %lld ended %s (%s)", static_cast<long long>(r.id),
                     jobStateName(r.status.state), r.status.error.c_str());
            continue;
        }
        if (!ref.ok || r.result != ref.doc) {
            rep.fail("job %lld: result differs from its solo run",
                     static_cast<long long>(r.id));
            continue;
        }
        ++done;
        samples += r.samples;
        scheduleJobs += mix[r.mixIndex].schedule;
        (r.traced ? tracedLatency : untracedLatency).push_back(r.latency);
        (r.traced ? tracedCls : untracedCls).push_back(mix[r.mixIndex].cls);
        cls.push_back(mix[r.mixIndex].cls);
        latency.push_back(r.latency);
        run.push_back(r.status.runSeconds);
        ttt.push_back(r.ttt);
        submit.push_back(r.submit);
        queue.push_back(r.status.queuedSeconds);
        overhead.push_back(r.latency - r.status.queuedSeconds -
                           r.status.runSeconds);
        threads.push_back(r.status.threads);
    }

    // Objective: geometric mean (the models' objectives differ in
    // scale) over the first kObjectiveJobs plain jobs of the mix, the
    // same specs in every run of a seed.
    double logSum = 0.0;
    for (int j : objectiveJobs(mix))
        logSum += std::log(std::max(1e-300, solo[mix[j].text].objective));
    double objective = std::exp(logSum / kObjectiveJobs);

    if (!args.trace) {
        double q = 0.0;
        double tail = tailQuantile(latency, &q);
        rep.add("setup_s", median(setup), "s");
        rep.add("search_s", classMedianMean(cls, run), "s");
        rep.add("evals_per_s", static_cast<double>(samples) / window, "1/s");
        rep.add("time_to_target_s", classMedianMean(cls, ttt), "s");
        rep.add("objective", objective, "objective");
        rep.add("jobs_per_s", static_cast<double>(done) / window, "1/s");
        rep.add("job_latency_p50_s", classMedianMean(cls, latency), "s");
        rep.add("job_latency_tail_s", tail, "s");
        rep.add("peak_rss_mb", peakRss, "MB");
        rep.note("tail_percentile", 100.0 * q);
        rep.note("tail_samples", static_cast<double>(latency.size()));
    } else {
        // Cost-model and search attribution: re-run distinct plain
        // specs solo through a CountingCostModel (own cache, default
        // knobs) — the server builds its models internally.
        LayerFigures layers;
        std::vector<double> batchSec;
        std::vector<CountingCostModel::Sample> population; ///< replay inputs
        BufferStyle style = BufferStyle::Shared; ///< of those samples
        {
            Tracer::Scope span("profile");
            // The first distinct plain specs in mix order, so every
            // (model, algo) pair is represented.
            std::vector<const std::string *> picked;
            for (const MixJob &job : mix) {
                if (picked.size() == kProfiledSpecs)
                    break;
                if (!job.schedule && solo.count(job.text) &&
                    std::find_if(picked.begin(), picked.end(),
                                 [&](const std::string *t) {
                                     return *t == job.text;
                                 }) == picked.end())
                    picked.push_back(&job.text);
            }
            for (const std::string *textp : picked) {
                const std::string &text = *textp;
                const Solo &ref = solo[text];
                SearchSpec spec;
                std::string err;
                Graph g;
                if (!parseRunSpecText(text, &spec, &err) ||
                    !resolveWorkload(spec.workload, &g, &err)) {
                    rep.fail("profiled spec does not resolve: %s",
                             err.c_str());
                    continue;
                }
                CountingCostModel model(g, accel);
                DseSpace space = DseSpace::paperSpace(spec.style);
                BatchCount batches;
                spec.eval.observer = &batches;
                double t0 = nowSec();
                SearchResult r = SearcherRegistry::instance()
                                     .make(spec.algo, model, space, spec)
                                     ->run();
                double wall = nowSec() - t0;
                if (r.bestCost != ref.objective)
                    rep.fail("profiled solo run differs: %s", text.c_str());
                if (g.name() == graphs[0].name()) {
                    style = spec.style;
                    auto more = model.samples();
                    population.insert(population.end(), more.begin(),
                                      more.end());
                }
                layers.addRun(r.cacheStats, r.deltaStats, model.totals(),
                              model.cacheSize(), wall, 1);
                batchSec.push_back(wall / std::max(1, batches.n));
            }
        }
        layers.replay = replayLayers(graphs[0], accel,
                                     DseSpace::paperSpace(style), population,
                                     subSeed(args.seed, 100));
        layers.finish();
        layers.batchMs = 1e3 * median(batchSec);

        // The server's shared cache, not the solo replays', for the
        // cache layer.
        layers.evals = static_cast<double>(shared.hits + shared.misses);
        layers.lookups = layers.evals;
        layers.hitRatio = shared.hitRate();
        layers.blockLookups =
            static_cast<double>(shared.blockHits + shared.blockMisses);
        layers.blockHitRatio = shared.blockHitRate();
        layers.insertions = static_cast<double>(shared.insertions);
        layers.evictions = static_cast<double>(shared.evictions);
        layers.entries = static_cast<double>(shared.entries);
        layers.boundRejections = static_cast<double>(shared.boundRejections);
        layers.serveCacheHitRatio = shared.hitRate();

        layers.traceOverheadShare =
            classMedianMean(tracedCls, tracedLatency) /
            classMedianMean(untracedCls, untracedLatency);
        layers.submitMs = 1e3 * median(submit);
        layers.queueWaitMs = 1e3 * median(queue);
        layers.runMs = 1e3 * median(run);
        layers.overheadMs = 1e3 * median(overhead);
        layers.rejections = static_cast<double>(rejected);
        layers.threadsGranted = mean(threads);
        layers.scheduleJobs = static_cast<double>(scheduleJobs);

        SearchSpec sspec;
        std::string err;
        parseRunSpecText(scheduleSpec(1), &sspec, &err);
        std::vector<Graph> tenants(2);
        DeploymentConfig dep;
        for (int t = 0; t < 2; ++t)
            resolveWorkload(sspec.workloadSet.tenants[t].workload,
                            &tenants[t], &err);
        resolveDeployment(sspec.deployment, accel, &dep, &err);
        layers.scheduleEvaluateUs = replaySchedule(
            tenants, sspec.workloadSet, dep, subSeed(args.seed, 101));
        layers.emit(&rep);
    }
    rep.note("jobs_done", static_cast<double>(done));
    rep.note("schedule_jobs", static_cast<double>(scheduleJobs));
    rep.note("distinct_specs", static_cast<double>(solo.size()));
    rep.note("shared_cache_hit_ratio", shared.hitRate());
}

} // namespace cobench
