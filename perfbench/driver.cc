/**
 * @file
 * perfbench_driver: the repository benchmark's measurement process.
 *
 * One invocation runs one named workload as a sequence of closed
 * batches for `--seconds` seconds (at least one). A batch is one complete
 * artifact regeneration in-process: program generation, machine
 * construction, warm-up and checkpoint (the set-up), a fan-out of
 * independent arms over sim::JobRunner (the measured phase), and a
 * dlsim-metrics-v1 document written to disk (the report). The driver
 * calls the simulator's public API only and times each layer from
 * outside those calls.
 *
 * Output: one JSON line on stdout with the per-batch host
 * timings, simulated-work totals, the output digest and the result
 * of every correctness check. perfbench/run.py turns these into the
 * benchmark's named metrics. With --trace 1 every other batch also
 * records spans (name, start, end, parent, arm) into memory; they
 * are written to --out-dir when the run ends and reduced by
 * perfbench/reduce_trace.py.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/server.hh"
#include "sim/job_runner.hh"
#include "sim/sampled.hh"
#include "snapshot/format.hh"
#include "stats/cdf.hh"
#include "stats/json_writer.hh"
#include "stats/metrics.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"
#include "workload/program.hh"

using namespace dlsim;

namespace
{

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - processStart)
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

// ------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.
// ------------------------------------------------------------------

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root.
    const char *name = "";
    std::uint32_t thread = 0;
    std::uint32_t iter = 0;
    std::int32_t arm = -1; ///< -1 = batch-level (main thread).
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
};

class Tracer
{
  public:
    bool on() const { return on_.load(std::memory_order_relaxed); }
    void setOn(bool on) { on_.store(on, std::memory_order_relaxed); }
    void setIter(std::uint32_t i) { iter_.store(i); }
    std::uint32_t iter() const { return iter_.load(); }

    std::uint64_t nextId() { return ++lastId_; }

    void
    record(const Span &s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(s);
    }

    /** Hand over every recorded span; call between batches. */
    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return std::move(spans_);
    }

    static std::uint32_t
    threadIndex()
    {
        static std::atomic<std::uint32_t> next{0};
        thread_local const std::uint32_t index = next++;
        return index;
    }

  private:
    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> lastId_{0};
    std::atomic<std::uint32_t> iter_{0};
    std::mutex mu_;
    std::vector<Span> spans_; ///< Guarded by mu_.
};

Tracer tracer;

/** Per-thread span context: the open span and the arm it serves. */
thread_local std::uint64_t curSpan = 0;
thread_local std::int32_t curArm = -1;

/** RAII span around one call into a layer; free when tracing is off. */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (!tracer.on())
            return;
        active_ = true;
        span_.id = tracer.nextId();
        span_.parent = curSpan;
        span_.name = name;
        span_.thread = Tracer::threadIndex();
        span_.iter = tracer.iter();
        span_.arm = curArm;
        saved_ = curSpan;
        curSpan = span_.id;
        span_.t0 = nowNs();
    }

    ~Scope()
    {
        if (!active_)
            return;
        span_.t1 = nowNs();
        curSpan = saved_;
        tracer.record(span_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    bool active_ = false;
    Span span_;
    std::uint64_t saved_ = 0;
};

/**
 * Root context of one fan-out task on a JobRunner thread: its spans
 * hang under the batch's fan-out span and share the arm id.
 */
class TaskContext
{
  public:
    TaskContext(std::uint64_t fanout_span, std::int32_t arm)
        : savedSpan_(curSpan), savedArm_(curArm)
    {
        curSpan = fanout_span;
        curArm = arm;
    }
    ~TaskContext()
    {
        curSpan = savedSpan_;
        curArm = savedArm_;
    }
    TaskContext(const TaskContext &) = delete;
    TaskContext &operator=(const TaskContext &) = delete;

  private:
    std::uint64_t savedSpan_;
    std::int32_t savedArm_;
};

// ------------------------------------------------------------------
// Output digest and checks.
// ------------------------------------------------------------------

/**
 * Host-side keys: timing of the simulator process, and counters of
 * simulator-internal accelerators (block translation cache, page-
 * translation cache) that a simulator-only speed change may move.
 * Everything else is simulated output and goes into the digest.
 */
bool
hostKey(const std::string &k)
{
    return k.rfind("dlsim.jobs.", 0) == 0 ||
           k.rfind("dlsim.linker.blockcache.", 0) == 0 ||
           k.rfind("dlsim.mem.ptc.", 0) == 0;
}

std::uint64_t
digestRegistry(const stats::MetricsRegistry &reg)
{
    snapshot::Fingerprint fp;
    for (const auto &[key, m] : reg.metrics()) {
        if (hostKey(key))
            continue;
        fp.mix(key);
        switch (m.kind) {
          case stats::MetricKind::Counter:
            fp.mix(m.counter);
            break;
          case stats::MetricKind::Gauge:
            fp.mix(m.gauge);
            break;
          case stats::MetricKind::Histogram:
            fp.mix(m.histogram.count);
            fp.mix(m.histogram.mean);
            fp.mix(m.histogram.min);
            fp.mix(m.histogram.max);
            for (const auto &[p, v] : m.histogram.percentiles) {
                fp.mix(p);
                fp.mix(v);
            }
            break;
        }
    }
    return fp.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
metricValue(const stats::MetricsRegistry &reg, const std::string &k)
{
    const stats::Metric *m = reg.find(k);
    if (m == nullptr)
        return 0.0;
    return m->kind == stats::MetricKind::Counter
               ? static_cast<double>(m->counter)
               : m->gauge;
}

/**
 * The flush-accounting invariant, checked from outside on every
 * reported skip unit: abtb.flushes == store + coherence + ctxswitch
 * + explicit. Returns an empty string when it holds.
 */
std::string
checkFlushAccounting(const stats::MetricsRegistry &reg)
{
    const std::string suffix = ".abtb.flushes";
    for (const auto &[key, m] : reg.metrics()) {
        if (key.size() < suffix.size() ||
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) != 0)
            continue;
        const std::string p =
            key.substr(0, key.size() - suffix.size()) + ".skip.";
        const double causes =
            metricValue(reg, p + "store_flushes") +
            metricValue(reg, p + "coherence_flushes") +
            metricValue(reg, p + "context_switch_flushes") +
            metricValue(reg, p + "explicit_flushes");
        if (metricValue(reg, key) != causes)
            return "flush accounting broken at " + key + ": " +
                   std::to_string(metricValue(reg, key)) + " != " +
                   std::to_string(causes);
    }
    return {};
}

/**
 * Canonical layer key of a registry entry: drop the "dlsim." root
 * and a per-core "c<N>." qualifier, so the sweep's single core and
 * the server's four cores sum under one name.
 */
std::string
canonicalKey(const std::string &key)
{
    std::string k = key.rfind("dlsim.", 0) == 0 ? key.substr(6) : key;
    if (k.size() > 2 && k[0] == 'c' &&
        std::isdigit(static_cast<unsigned char>(k[1]))) {
        const std::size_t dot = k.find('.');
        if (dot != std::string::npos)
            k = k.substr(dot + 1);
    }
    return k;
}

// ------------------------------------------------------------------
// Workloads.
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string outDir = ".";
};

/** One fan-out operation (sweep arm or server shard). */
struct ArmOutcome
{
    std::string name;
    std::string machine;
    bool ok = false;
    std::string error;
    stats::MetricsRegistry reg;
    /** Per-request (sweep) or per-client-request (server)
     *  latency in virtual cycles. */
    stats::SampleSet latency;
};

/** What one closed batch produced. */
struct Batch
{
    std::vector<ArmOutcome> arms;
    double setupS = 0;
    double fanoutS = 0;
    double jobsEfficiency = 0;
    /** Checkpoint bytes every arm restores from. */
    std::uint64_t snapshotBytes = 0;
};

/** Workload definition: set-up + fan-out over one JobRunner. */
struct Workload
{
    const char *name;
    std::function<Batch(const Options &)> run;
};

/** One fan-out operation to run. */
struct ArmSpec
{
    std::string name;
    std::string machine;
    std::function<void(ArmOutcome &)> run;
};

/** Run the arms on one JobRunner; an arm that throws or breaks the
 *  flush accounting is a failed operation. */
Batch
fanOut(const std::vector<ArmSpec> &arms)
{
    Batch batch;
    batch.arms.resize(arms.size());
    std::vector<std::function<int()>> tasks;
    std::optional<Scope> fan;
    fan.emplace("sim.fanout");
    const std::uint64_t fanout_span = fan->id();
    for (std::size_t i = 0; i < arms.size(); ++i) {
        batch.arms[i].name = arms[i].name;
        batch.arms[i].machine = arms[i].machine;
        tasks.push_back([&, i] {
            TaskContext ctx(fanout_span, static_cast<std::int32_t>(i));
            Scope task("sim.task");
            ArmOutcome &out = batch.arms[i];
            try {
                arms[i].run(out);
                std::string err = checkFlushAccounting(out.reg);
                if (!err.empty())
                    throw std::runtime_error(err);
                out.ok = true;
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            return 0;
        });
    }
    // At most one thread per CPU the process may run on.
    const unsigned jobs = std::min<unsigned>(
        sim::JobRunner::defaultJobs(), static_cast<unsigned>(tasks.size()));
    sim::JobRunner runner(jobs);
    const std::int64_t t0 = nowNs();
    runner.run(std::move(tasks));
    batch.fanoutS = secondsSince(t0);
    fan.reset();
    stats::MetricsRegistry host;
    runner.reportMetrics(host, "dlsim");
    batch.jobsEfficiency = metricValue(host, "dlsim.jobs.efficiency");
    return batch;
}

/**
 * The image's block-translation-cache counters. Workbench::
 * reportMetrics leaves them out (they describe the simulator, not
 * the machine); the benchmark reads them as linker-layer work.
 */
void
reportBlockCache(stats::MetricsRegistry &reg, const linker::Image &img)
{
    reg.counter("dlsim.linker.blockcache.hits", img.blockCacheHits());
    reg.counter("dlsim.linker.blockcache.builds", img.blockCacheBuilds());
    reg.counter("dlsim.linker.blockcache.flushes",
                img.blockCacheFlushes());
}

// ---- sweep_exact --------------------------------------------------

struct SweepProfile
{
    const char *name;
    std::uint32_t warmup;
    int requests;
};

/**
 * Four paper workloads spanning small (memcached) to large (firefox,
 * mysql) code working sets. apache, firefox and memcached take
 * fig5_abtb_sweep's warm-up and request counts, so firefox's lazy-
 * binding tail is amortised as in that bench. mysql, absent from
 * fig5, takes table4_microarch_counters' counts. Ordered by fan-out
 * arm cost, heaviest first, so the pool's tail is short.
 */
const SweepProfile sweepProfiles[] = {
    {"mysql", 150, 700},
    {"apache", 300, 400},
    {"memcached", 150, 350},
    {"firefox", 1200, 250},
};

struct SweepArm
{
    const char *name;
    bool enhanced;
    std::uint32_t abtbEntries;
};

const SweepArm sweepArms[] = {
    {"base", false, 256},
    {"abtb16", true, 16},
    {"abtb256", true, 256},
};

Batch
runSweepExact(const Options &opt)
{
    const int div = opt.quick ? 8 : 1;
    const workload::MachineConfig ref_mc{}; // Warm on the base machine.

    struct Warm
    {
        workload::WorkloadParams wl;
        std::shared_ptr<const workload::BuiltProgram> prog;
        std::vector<std::uint8_t> state;
        int requests = 0;
    };
    std::vector<Warm> warm;
    const std::int64_t setup0 = nowNs();
    for (const SweepProfile &p : sweepProfiles) {
        Warm w;
        w.wl = workload::profileByName(p.name, opt.seed);
        w.requests = std::max(1, p.requests / div);
        {
            Scope s("workload.build");
            w.prog = std::make_shared<const workload::BuiltProgram>(
                workload::buildProgram(w.wl));
        }
        std::optional<workload::Workbench> wb;
        {
            Scope s("workload.load");
            wb.emplace(w.wl, ref_mc, w.prog);
        }
        {
            Scope s("workload.warmup");
            wb->warmup(std::max<std::uint32_t>(1, p.warmup / div));
        }
        {
            Scope s("snapshot.save");
            w.state = workload::snapshotWorkbench(*wb);
        }
        warm.push_back(std::move(w));
    }
    const double setup_s = secondsSince(setup0);

    std::vector<ArmSpec> arms;
    for (const Warm &w : warm) {
        for (const SweepArm &a : sweepArms) {
            workload::MachineConfig mc;
            mc.enhanced = a.enhanced;
            mc.abtbEntries = a.abtbEntries;
            mc.abtbAssoc = std::min(a.abtbEntries, 4u);
            const auto run = [&w, mc, &ref_mc](ArmOutcome &out) {
                std::optional<workload::Workbench> wb;
                {
                    Scope s("workload.load");
                    wb.emplace(w.wl, ref_mc, w.prog,
                               /*for_restore=*/true);
                }
                {
                    Scope s("snapshot.restore");
                    workload::restoreWorkbench(*wb, w.state.data(),
                                               w.state.size(),
                                               /*trusted=*/true);
                }
                {
                    Scope s("cpu.reconfigure");
                    wb->reconfigure(mc);
                }
                // Every request asked for must be served, and the
                // per-request results must add up to the core's own
                // counters for the measured phase.
                const std::size_t kinds = w.wl.requests.size();
                std::uint64_t insts = 0, cycles = 0;
                int served = 0;
                for (int i = 0; i < w.requests; ++i) {
                    Scope s("cpu.request");
                    const workload::RequestResult r = wb->runRequest();
                    if (r.kind < kinds && r.instructions > 0)
                        ++served;
                    insts += r.instructions;
                    cycles += r.cycles;
                    out.latency.add(static_cast<double>(r.cycles));
                }
                if (served != w.requests)
                    throw std::runtime_error(
                        "served " + std::to_string(served) + " of " +
                        std::to_string(w.requests) + " requests");
                Scope s("stats.collect");
                wb->reportMetrics(out.reg, "dlsim");
                if (metricValue(out.reg, "dlsim.cpu.instructions") !=
                        static_cast<double>(insts) ||
                    metricValue(out.reg, "dlsim.cpu.cycles") !=
                        static_cast<double>(cycles))
                    throw std::runtime_error(
                        "request results (" + std::to_string(insts) +
                        " instructions, " + std::to_string(cycles) +
                        " cycles) disagree with the core's counters");
                out.reg.histogram("dlsim.workload.latency", out.latency);
                reportBlockCache(out.reg, wb->image());
            };
            arms.push_back({w.wl.name + "." + a.name, a.name, run});
        }
    }
    Batch b = fanOut(arms);
    b.setupS = setup_s;
    for (const Warm &w : warm)
        b.snapshotBytes += w.state.size();
    return b;
}

// ---- serve_churn / serve_sampled ---------------------------------

/**
 * The serve_* sizes are bench/server_traffic's defaults divided by 40
 * in every dimension: 10^6 requests per machine become 25000, the
 * 20000-request warm-up 500, a churn every 50000 requests one every
 * 1250, and the sampled run's 10^7 requests per machine 250000. Warm-
 * up share (2%), churns per shard (10) and the sampled run's 10x
 * request budget are therefore those of server_traffic as run by
 * default, and the shard count is its default too.
 */
constexpr std::uint64_t serveScale = 40;
/** Fan-out shards per machine: 2 machines x 2 = one per host CPU. */
constexpr std::uint32_t serveShards = 2;
constexpr std::uint64_t serveRequests = 1000000 / serveScale / serveShards;
constexpr std::uint64_t serveSampledRequests =
    10000000 / serveScale / serveShards;
constexpr std::uint64_t serveWarm = 20000 / serveScale;
constexpr std::uint64_t serveChurn = 50000 / serveScale;
/** Scheduler rounds per os.rounds span. */
constexpr std::uint64_t serveRoundsChunk = 4096;

sim::MultiCoreParams
serveMultiCore(const workload::MachineConfig &mc)
{
    sim::MultiCoreParams mp;
    mp.numCores = 4;
    mp.core = workload::makeCoreParams(mc);
    return mp;
}

/**
 * The server_traffic topology at benchmark size: memcached tenants
 * behind a dispatch module, 4 simulated cores, 6 workers, 12
 * clients, 4 tenants, a tenant dlclose/dlopen every `churn` served
 * requests. Warmed once on the base machine; every machine x shard
 * restores the whole OS from that one checkpoint, then serves
 * `requests` requests, sampled when `sample` is enabled.
 */
Batch
runServe(const Options &opt, std::uint64_t requests,
         const sim::SampleParams &sample)
{
    std::uint64_t warm = serveWarm, churn = serveChurn;
    if (opt.quick) {
        warm = std::max<std::uint64_t>(120, warm / 16);
        requests = std::max<std::uint64_t>(120, requests / 16);
        churn = std::max<std::uint64_t>(40, churn / 16);
    }
    const std::int64_t setup0 = nowNs();
    // The server application is the memcached profile at its
    // calibrated default seed; the benchmark seed drives the client
    // traffic and the tenant modules. Varying the application's code
    // layout too would change the work per batch by up to 13%.
    const workload::WorkloadParams wl = workload::memcachedProfile();
    const workload::MachineConfig mc_base{};
    workload::MachineConfig mc_enh;
    mc_enh.enhanced = true;
    mc_enh.asidRetention = true;

    os::ServerParams sp;
    sp.workers = 6;
    sp.clients = 12;
    sp.tenants = 4;
    sp.requests = (warm + 1) * sp.clients;
    sp.churnPeriod = churn;
    sp.seed = opt.seed;

    std::shared_ptr<const workload::BuiltProgram> prog;
    {
        Scope s("workload.build");
        prog = std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    }
    std::vector<std::uint8_t> state;
    {
        std::optional<workload::Workbench> wb;
        {
            Scope s("workload.load");
            wb.emplace(wl, mc_base, prog);
        }
        std::optional<os::Server> server;
        {
            Scope s("os.boot");
            server.emplace(*wb, serveMultiCore(mc_base), sp);
        }
        {
            Scope s("workload.warmup");
            while (server->stats().requestsServed < warm) {
                if (server->runRounds(64))
                    throw std::runtime_error(
                        "server ran dry during warm-up");
            }
        }
        Scope s("snapshot.save");
        state = server->snapshot();
    }
    const double setup_s = secondsSince(setup0);

    std::vector<ArmSpec> arms;
    const std::pair<const char *, workload::MachineConfig> machines[] = {
        {"base", mc_base}, {"enhanced", mc_enh}};
    for (const auto &[machine, arm_mc] : machines) {
        for (std::uint32_t sh = 0; sh < serveShards; ++sh) {
            const auto run = [&, arm_mc = arm_mc, sh](ArmOutcome &out) {
                std::optional<workload::Workbench> wb;
                {
                    Scope s("workload.load");
                    wb.emplace(wl, mc_base, prog, /*for_restore=*/true);
                }
                std::optional<os::Server> server;
                {
                    Scope s("snapshot.restore");
                    server.emplace(*wb, serveMultiCore(mc_base), sp,
                                   state.data(), state.size(),
                                   /*trusted=*/true);
                }
                {
                    Scope s("cpu.reconfigure");
                    server->reconfigure(arm_mc);
                }
                {
                    // Rebase the clients onto this shard's traffic.
                    Scope s("os.reset");
                    server->resetMeasurement(sh, requests);
                    if (sample.enabled)
                        server->setSampling(sample);
                }
                for (bool done = false; !done;) {
                    Scope s("os.rounds");
                    done = server->runRounds(serveRoundsChunk);
                }
                if (server->latency().count() != requests)
                    throw std::runtime_error(
                        "clients completed " +
                        std::to_string(server->latency().count()) +
                        " of " + std::to_string(requests) +
                        " requests");
                Scope s("stats.collect");
                server->reportMetrics(out.reg, "dlsim.os");
                server->system().reportMetrics(out.reg, "dlsim");
                for (std::uint32_t c = 0; c < server->system().numCores();
                     ++c)
                    server->system().core(c).reportMetrics(
                        out.reg, "dlsim.c" + std::to_string(c));
                out.reg.histogram("dlsim.os.server.latency",
                                  server->latency());
                out.latency = server->latency();
                const auto &as = wb->image().addressSpace();
                out.reg.counter("dlsim.mem.ptc.hits", as.ptcHits());
                out.reg.counter("dlsim.mem.ptc.misses", as.ptcMisses());
                reportBlockCache(out.reg, wb->image());
            };
            arms.push_back({std::string("server.") + machine + ".shard" +
                                std::to_string(sh),
                            machine, run});
        }
    }
    Batch b = fanOut(arms);
    b.setupS = setup_s;
    b.snapshotBytes = state.size();
    return b;
}

/** W:D:F = 2000:10000:200000, docs/performance.md §8.3's spec. */
sim::SampleParams
serveSampling()
{
    sim::SampleParams p;
    p.enabled = true;
    p.warmup = 2000;
    p.detail = 10000;
    p.fastforward = 200000;
    return p;
}

const Workload workloads[] = {
    {"sweep_exact", runSweepExact},
    {"serve_churn",
     [](const Options &o) { return runServe(o, serveRequests, {}); }},
    {"serve_sampled",
     [](const Options &o) {
         return runServe(o, serveSampledRequests, serveSampling());
     }},
};

// ------------------------------------------------------------------
// Batches, report, run summary.
// ------------------------------------------------------------------

struct BatchRecord
{
    bool traced = false;
    double wallS = 0, setupS = 0, fanoutS = 0, reportS = 0;
    double simInsts = 0, detailInsts = 0, jobsEfficiency = 0;
    std::uint64_t digest = 0;
};

/** Sum every counter and gauge over all arms under its canonical key. */
std::map<std::string, double>
totals(const Batch &b)
{
    std::map<std::string, double> t;
    for (const ArmOutcome &a : b.arms)
        for (const auto &[key, m] : a.reg.metrics())
            if (m.kind != stats::MetricKind::Histogram)
                t[canonicalKey(key)] += metricValue(a.reg, key);
    return t;
}

/** Simulated view of one machine, merged over its arms or shards. */
struct MachineView
{
    double cycles = 0;
    stats::SampleSet latency;
};

/**
 * Cycles per machine (CPI-extrapolated under sampling) and the
 * merged latency samples, in submission order.
 */
std::map<std::string, MachineView>
perMachine(const Batch &b)
{
    std::map<std::string, MachineView> out;
    for (const ArmOutcome &a : b.arms) {
        MachineView &m = out[a.machine];
        double cycles = 0, extrapolated = 0;
        bool sampled = false;
        for (const auto &[key, metric] : a.reg.metrics()) {
            const std::string k = canonicalKey(key);
            if (k == "cpu.cycles")
                cycles += metricValue(a.reg, key);
            if (k == "os.sampled.extrapolated_cycles") {
                sampled = true;
                extrapolated += metricValue(a.reg, key);
            }
        }
        m.cycles += sampled ? extrapolated : cycles;
        for (const double v : a.latency.samples())
            m.latency.add(v);
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t v =
                line.find_first_not_of(" \t", line.find(':') + 1);
            if (line.find(':') != std::string::npos &&
                v != std::string::npos)
                return line.substr(v);
        }
    }
    return "unknown";
}

/** Run one workload for opt.seconds and print its summary line. */
bool
runWorkload(const Workload &w, const Options &opt)
{
    std::vector<BatchRecord> batches;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    Batch first;
    const std::string doc_path =
        opt.outDir + "/" + w.name + ".metrics.json";

    const std::int64_t run0 = nowNs();
    for (std::uint32_t i = 0;; ++i) {
        const double elapsed = secondsSince(run0);
        const std::uint32_t min_batches = opt.trace ? 2 : 1;
        if (i >= min_batches && elapsed >= opt.seconds)
            break;
        BatchRecord rec;
        rec.traced = opt.trace && (i % 2 == 1);
        tracer.setIter(i);
        tracer.setOn(rec.traced);

        const std::int64_t b0 = nowNs();
        Batch b;
        {
            Scope root("sim.batch");
            b = w.run(opt);
            const std::int64_t r0 = nowNs();
            {
                Scope s("stats.report");
                stats::MetricsDocument doc(std::string("perfbench.") +
                                           w.name);
                for (const ArmOutcome &a : b.arms) {
                    stats::MetricsRun &run = doc.addRun(a.name);
                    run.with("workload", w.name)
                        .with("machine", a.machine)
                        .with("seed", std::to_string(opt.seed));
                    run.registry = a.reg;
                }
                std::string err;
                if (!doc.writeFile(doc_path, &err))
                    errors.push_back("metrics document: " + err);
            }
            rec.reportS = secondsSince(r0);
        }
        rec.wallS = secondsSince(b0);
        tracer.setOn(false);

        rec.setupS = b.setupS;
        rec.fanoutS = b.fanoutS;
        rec.jobsEfficiency = b.jobsEfficiency;
        const auto t = totals(b);
        const auto at = [&t](const char *k) {
            const auto it = t.find(k);
            return it == t.end() ? 0.0 : it->second;
        };
        rec.detailInsts = at("cpu.instructions");
        rec.simInsts = rec.detailInsts + at("os.sampled.ff_instructions") +
                       at("sampled.ff_instructions");

        snapshot::Fingerprint fp;
        for (const ArmOutcome &a : b.arms) {
            ++attempted;
            if (!a.ok) {
                ++failed;
                errors.push_back(a.name + ": " + a.error);
            }
            fp.mix(a.name);
            fp.mix(digestRegistry(a.reg));
        }
        rec.digest = fp.value();
        if (readFile(doc_path).find("\"schema\": \"dlsim-metrics-v1\"") ==
            std::string::npos)
            errors.push_back("metrics document lacks schema "
                             "dlsim-metrics-v1");
        if (!batches.empty() && rec.digest != batches.front().digest)
            errors.push_back("batch " + std::to_string(i) +
                             " digest differs from batch 0");
        if (batches.empty())
            first = std::move(b);
        batches.push_back(rec);
    }

    // Summary line.
    std::ostringstream os;
    stats::JsonWriter jw(os, 0);
    jw.beginObject();
    jw.field("workload", w.name);
    jw.field("seed", opt.seed);
    jw.key("context");
    jw.beginObject();
    jw.field("nproc",
             static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    jw.field("cpu_model", cpuModel());
    jw.field("compiler", PERFBENCH_COMPILER);
    jw.field("build_type", PERFBENCH_BUILD_TYPE);
    jw.field("lto", static_cast<bool>(PERFBENCH_LTO));
    jw.field("jobs",
             static_cast<std::uint64_t>(sim::JobRunner::defaultJobs()));
    jw.field("seed", opt.seed);
    jw.field("quick", opt.quick);
    jw.endObject();
    jw.field("attempted", attempted);
    jw.field("failed", failed);
    jw.field("correct", errors.empty() && failed == 0);
    jw.key("errors");
    jw.beginArray();
    for (const std::string &e : errors)
        jw.value(e);
    jw.endArray();
    jw.field("digest", hex(batches.front().digest));
    jw.field("peak_rss_mb", peakRssMiB());
    jw.field("arms", static_cast<std::uint64_t>(first.arms.size()));
    jw.field("snapshot_bytes", first.snapshotBytes);
    jw.key("batches");
    jw.beginArray();
    for (const BatchRecord &r : batches) {
        jw.beginObject();
        jw.field("traced", r.traced);
        jw.field("wall_s", r.wallS);
        jw.field("setup_s", r.setupS);
        jw.field("fanout_s", r.fanoutS);
        jw.field("report_s", r.reportS);
        jw.field("sim_insts", r.simInsts);
        jw.field("detail_insts", r.detailInsts);
        jw.field("jobs_efficiency", r.jobsEfficiency);
        jw.endObject();
    }
    jw.endArray();
    jw.key("totals");
    jw.beginObject();
    for (const auto &[k, v] : totals(first))
        jw.field(k, v);
    jw.endObject();
    jw.key("machines");
    jw.beginObject();
    for (const auto &[machine, m] : perMachine(first)) {
        jw.key(machine);
        jw.beginObject();
        jw.field("cycles", m.cycles);
        const bool any = m.latency.count() > 0;
        jw.field("latency_p50", any ? m.latency.percentile(50.0) : 0.0);
        jw.field("latency_p99", any ? m.latency.percentile(99.0) : 0.0);
        jw.endObject();
    }
    jw.endObject();
    if (opt.trace) {
        const std::string spans = opt.outDir + "/" + w.name + ".spans.json";
        jw.field("spans", spans);
    }
    jw.endObject();
    std::string line = os.str();
    line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());

    if (opt.trace) {
        // Spans are kept in memory during the run and written here.
        std::ofstream out(opt.outDir + "/" + w.name + ".spans.json");
        out.precision(17);
        out << "{\"workload\": \"" << w.name << "\", \"spans\": [\n";
        bool first_span = true;
        for (const Span &s : tracer.take()) {
            out << (first_span ? "" : ",\n") << "[" << s.id << ","
                << s.parent << ",\"" << s.name << "\"," << s.thread
                << "," << s.iter << "," << s.arm << "," << s.t0 << ","
                << s.t1 << "]";
            first_span = false;
        }
        out << "\n], \"batches\": [\n";
        for (std::size_t i = 0; i < batches.size(); ++i)
            out << (i ? ",\n" : "") << "{\"traced\": "
                << (batches[i].traced ? "true" : "false")
                << ", \"wall_s\": " << batches[i].wallS
                << ", \"detail_insts\": " << batches[i].detailInsts
                << "}";
        out << "\n]}\n";
        if (!out)
            return false;
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return true;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--quick] "
                 "[--out-dir DIR]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage((a + " requires a value").c_str());
                return argv[++i];
            };
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = value() == "1";
            else if (a == "--quick")
                opt.quick = true;
            else if (a == "--out-dir")
                opt.outDir = value();
            else
                usage(("unknown argument '" + a + "'").c_str());
        }
    } catch (const std::logic_error &) { // stoull/stod parse errors.
        usage("malformed number");
    }
    for (const Workload &w : workloads)
        if (opt.workload == w.name)
            return runWorkload(w, opt) ? 0 : 1;
    usage(("unknown workload '" + opt.workload + "'").c_str());
}
