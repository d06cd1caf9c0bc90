/**
 * @file
 * Wall-clock comparison of the simulator's execution strategies on
 * the same Figure-5-style measurement grid:
 *
 *   serial    --jobs 1, exact simulation, block dispatch on
 *   noblocks  --jobs 1, exact simulation, block dispatch off
 *             (byte-identical to serial: blocks are a pure
 *             execution-strategy change, not a model change)
 *   parallel  --jobs N, exact simulation (byte-identical to serial)
 *   cold      snapshot sweep paying warm-up + serialization
 *   warm      the same sweep fanned out from the serialized bytes
 *   sampled   --jobs N with sampled execution (detailed windows +
 *             functional fast-forward; see docs/performance.md)
 *   server    the OS-layer stack (os::Kernel scheduler + sockets +
 *             tenant churn, docs/server.md) serving requests end to
 *             end, base and enhanced arms: requests/sec wall-clock
 *             throughput plus p50/p99 latency in virtual cycles.
 *             Three strategies are A/B'd on the same host: cold
 *             (one full serve per arm), fanout (warm once on the
 *             base machine, Server::snapshot, fan both arms out of
 *             the bytes over the JobRunner), and sampled (the
 *             fan-out path serving a 10x request budget under
 *             W:D:F sampling, with measured p50/p99 error against
 *             the exact rows — docs/performance.md section 8)
 *
 * Every row records its wall-clock seconds and the job count it
 * actually ran with. Exact rows must be byte-identical across job
 * counts; cold and warm must be byte-identical to each other. The
 * sampled row is an estimator, so instead of byte-identity it
 * reports measured-vs-extrapolated error against the exact grid
 * (per-cell IPC relative error and ABTB skip-rate absolute error,
 * mean and max).
 *
 * The speedups are a property of the host (cores, load); the
 * byte-identical checks and the error bands are properties of dlsim
 * and must hold everywhere. The serial-vs-noblocks pair makes the
 * block-dispatch speedup claim reproducible from the JSON alone,
 * alongside the block-cache hit/build/flush gauges
 * (dlsim.linker.blockcache.*) aggregated over the serial grid.
 *
 * Usage: bench_wallclock [--jobs N] [--quick] [--sample W:D:F]
 *                        [--json-out FILE]
 * FILE defaults to BENCH_wallclock.json in the working directory.
 * Without --sample the sampled row uses a default spec chosen for
 * this grid's request sizes.
 */

#include <chrono>
#include <cmath>

#include "common.hh"

#include "os/server.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

const char *Profiles[] = {"apache", "firefox", "memcached"};
const int Warmups[] = {40, 80, 30};
const int Requests[] = {40, 30, 40};
const std::uint32_t Sizes[] = {4u, 16u, 64u, 256u};

struct Cell
{
    std::uint32_t entries;
    int profile;
};

std::vector<Cell>
gridCells()
{
    std::vector<Cell> cells;
    for (const std::uint32_t entries : Sizes)
        for (int i = 0; i < 3; ++i)
            cells.push_back({entries, i});
    return cells;
}

struct GridRun
{
    std::string json;
    double seconds = 0;
    std::vector<ArmResult> arms;
    sim::JobRunnerStats jobs;
};

GridRun
collectGrid(const char *doc_name,
            const std::vector<Cell> &cells, unsigned jobs,
            std::vector<std::function<ArmResult()>> work)
{
    const auto start = std::chrono::steady_clock::now();
    sim::JobRunner runner(jobs);
    auto arms = runner.run(std::move(work));
    const auto stop = std::chrono::steady_clock::now();
    const sim::JobRunnerStats jobStats = runner.stats();

    stats::MetricsDocument doc(doc_name);
    for (std::size_t c = 0; c < cells.size(); ++c) {
        auto &run = doc.addRun(
            std::string(Profiles[cells[c].profile]) + ".entries" +
            std::to_string(cells[c].entries));
        run.with("workload", Profiles[cells[c].profile])
            .with("machine", "enhanced")
            .with("abtb_entries",
                  std::to_string(cells[c].entries));
        run.registry = arms[c].registry;
    }

    GridRun result;
    result.json = doc.toJson();
    result.seconds =
        std::chrono::duration<double>(stop - start).count();
    result.arms = std::move(arms);
    result.jobs = jobStats;
    return result;
}

/** One pre-built program per profile, shared by every grid cell of
 *  that profile (program generation is deterministic in the
 *  WorkloadParams, so arms differing only in machine config can
 *  reuse it instead of regenerating it per task). */
struct SharedPrograms
{
    workload::WorkloadParams wls[3];
    std::shared_ptr<const workload::BuiltProgram> programs[3];
};

SharedPrograms
buildShared(const BenchArgs &args)
{
    SharedPrograms sp;
    for (int i = 0; i < 3; ++i) {
        sp.wls[i] = workload::profileByName(Profiles[i]);
        sp.wls[i].seed = args.seed();
        sp.programs[i] =
            std::make_shared<const workload::BuiltProgram>(
                workload::buildProgram(sp.wls[i]));
    }
    return sp;
}

/** Run the whole grid on `jobs` threads; serialise the document.
 *  `sample` enables sampled execution for every cell; `blocks`
 *  selects the dispatch engine (block-level vs per-instruction),
 *  which must not change any metric byte. */
GridRun
runGrid(const BenchArgs &args, unsigned jobs,
        const SharedPrograms &shared,
        const sim::SampleParams &sample = {}, bool blocks = true)
{
    const auto cells = gridCells();
    std::vector<std::function<ArmResult()>> work;
    work.reserve(cells.size());
    for (const Cell &cell : cells) {
        work.push_back([cell, &args, &shared, &sample, blocks] {
            auto mc = enhancedMachine();
            mc.core.blockDispatch = blocks;
            mc.abtbEntries = cell.entries;
            mc.abtbAssoc = std::min(cell.entries, 4u);
            return runArm(shared.wls[cell.profile], mc,
                          args.scaled(Warmups[cell.profile]),
                          args.scaled(Requests[cell.profile]),
                          sample, shared.programs[cell.profile]);
        });
    }
    return collectGrid(sample.enabled
                           ? "bench_wallclock sampled grid"
                           : "bench_wallclock grid",
                       cells, jobs, std::move(work));
}

/** The same grid fanned out from shared warm snapshot bytes. */
GridRun
runSnapshotGrid(const BenchArgs &args, unsigned jobs,
                const SharedPrograms &shared,
                const workload::MachineConfig &ref_mc,
                const std::vector<std::uint8_t> (&states)[3])
{
    const auto cells = gridCells();
    std::vector<std::function<ArmResult()>> work;
    work.reserve(cells.size());
    for (const Cell &cell : cells) {
        work.push_back([cell, &args, &shared, &ref_mc, &states] {
            auto mc = enhancedMachine();
            mc.abtbEntries = cell.entries;
            mc.abtbAssoc = std::min(cell.entries, 4u);
            return runArmFromState(
                states[cell.profile], shared.wls[cell.profile],
                ref_mc, mc,
                args.scaled(Requests[cell.profile]),
                sim::SampleParams{},
                shared.programs[cell.profile]);
        });
    }
    return collectGrid("bench_wallclock snapshot grid", cells,
                       jobs, std::move(work));
}

double
skipRate(const cpu::PerfCounters &c)
{
    const double den = static_cast<double>(c.trampolineJmps +
                                           c.skippedTrampolines);
    return den == 0.0 ? 0.0 : c.skippedTrampolines / den;
}

/** Per-cell sampled-vs-exact error summary. */
struct ErrorReport
{
    double ipcErrMean = 0, ipcErrMax = 0;
    double skipErrMean = 0, skipErrMax = 0;
};

ErrorReport
compareGrids(const GridRun &exact, const GridRun &sampled)
{
    ErrorReport rep;
    const std::size_t n = exact.arms.size();
    for (std::size_t c = 0; c < n; ++c) {
        const double exact_ipc = exact.arms[c].counters.ipc();
        const auto *g = sampled.arms[c].registry.find(
            "dlsim.sampled.extrapolated_ipc");
        const double sampled_ipc = g ? g->gauge : 0.0;
        const double ipc_err =
            exact_ipc > 0
                ? std::abs(sampled_ipc - exact_ipc) / exact_ipc
                : 0.0;
        const double skip_err =
            std::abs(skipRate(sampled.arms[c].counters) -
                     skipRate(exact.arms[c].counters));
        rep.ipcErrMean += ipc_err;
        rep.skipErrMean += skip_err;
        rep.ipcErrMax = std::max(rep.ipcErrMax, ipc_err);
        rep.skipErrMax = std::max(rep.skipErrMax, skip_err);
    }
    if (n > 0) {
        rep.ipcErrMean /= static_cast<double>(n);
        rep.skipErrMean /= static_cast<double>(n);
    }
    return rep;
}

/** One OS-layer server arm, timed end to end (workbench build +
 *  kernel run). The full experiment lives in bench/server_traffic;
 *  this row only measures simulator throughput on that stack. The
 *  latency percentiles are client-observed virtual cycles, so they
 *  are host-independent; requests/sec is the host-dependent number
 *  this benchmark exists to record. */
struct ServerRow
{
    double seconds = 0;
    std::uint64_t requests = 0;
    double reqPerSec = 0;
    double p50 = 0, p99 = 0;
};

sim::MultiCoreParams
serverCores(const workload::MachineConfig &mc)
{
    sim::MultiCoreParams mp;
    mp.numCores = 2;
    mp.core = workload::makeCoreParams(mc);
    return mp;
}

os::ServerParams
serverConfig(const BenchArgs &args, std::uint64_t requests)
{
    os::ServerParams sp;
    sp.workers = 3;
    sp.clients = 6;
    sp.tenants = 3;
    sp.requests = requests;
    sp.churnPeriod = std::max<std::uint64_t>(1, requests / 6);
    sp.seed = args.seed();
    return sp;
}

ServerRow
rowFromServer(const os::Server &server, double seconds)
{
    ServerRow row;
    row.seconds = seconds;
    row.requests = server.stats().requestsServed;
    row.reqPerSec =
        row.seconds > 0
            ? static_cast<double>(row.requests) / row.seconds
            : 0.0;
    row.p50 = server.latency().percentile(50.0);
    row.p99 = server.latency().percentile(99.0);
    return row;
}

ServerRow
runServerRow(const BenchArgs &args,
             const workload::WorkloadParams &wl,
             const workload::MachineConfig &mc,
             std::uint64_t requests,
             const sim::SampleParams &sample = {})
{
    const auto start = std::chrono::steady_clock::now();
    workload::Workbench wb(wl, mc);
    os::Server server(wb, serverCores(mc),
                      serverConfig(args, requests));
    if (sample.enabled)
        server.setSampling(sample);
    server.run();
    const auto stop = std::chrono::steady_clock::now();
    return rowFromServer(
        server,
        std::chrono::duration<double>(stop - start).count());
}

/**
 * The PR-9 serving path: warm once on the base machine, checkpoint
 * (Server::snapshot), and fan both arms out of the bytes over the
 * JobRunner — each restored arm serving the full request budget.
 * Wall-clock covers everything the cold pair would have to redo:
 * program build, warm-up, serialization, and both serves.
 */
struct FanoutResult
{
    double seconds = 0; ///< Warm + snapshot + both arms.
    ServerRow base, enhanced;
};

FanoutResult
runServerFanout(const BenchArgs &args,
                const workload::WorkloadParams &wl,
                std::uint64_t requests, std::uint64_t warm,
                unsigned jobs, const sim::SampleParams &sample = {})
{
    const auto start = std::chrono::steady_clock::now();
    auto mc_base = baseMachine();
    auto mc_enh = enhancedMachine();
    mc_enh.asidRetention = true;

    // Same topology and churn cadence as the cold rows; the warm
    // budget gets the usual headroom so no client runs dry before
    // the checkpoint.
    os::ServerParams sp = serverConfig(args, requests);
    sp.requests = (warm + 1) * sp.clients;

    const auto prog =
        std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wl));
    workload::Workbench warm_wb(wl, mc_base, prog);
    os::Server warm_server(warm_wb, serverCores(mc_base), sp);
    if (sample.enabled)
        warm_server.setSampling(sample);
    while (warm_server.stats().requestsServed < warm) {
        if (warm_server.runRounds(64))
            break;
    }
    const auto state = warm_server.snapshot();

    const workload::MachineConfig arms[2] = {mc_base, mc_enh};
    std::vector<std::function<ServerRow()>> work;
    for (const auto &arm : arms) {
        work.push_back([&, arm] {
            const auto arm_start = std::chrono::steady_clock::now();
            workload::Workbench wb(wl, mc_base, prog,
                                   /*for_restore=*/true);
            os::Server server(wb, serverCores(mc_base), sp,
                              state.data(), state.size(),
                              /*trusted=*/true);
            server.reconfigure(arm);
            server.resetMeasurement(0, requests);
            if (sample.enabled)
                server.setSampling(sample);
            server.run();
            const auto arm_stop = std::chrono::steady_clock::now();
            return rowFromServer(
                server, std::chrono::duration<double>(arm_stop -
                                                      arm_start)
                            .count());
        });
    }
    auto rows = sim::JobRunner(jobs).run(std::move(work));
    const auto stop = std::chrono::steady_clock::now();

    FanoutResult res;
    res.seconds =
        std::chrono::duration<double>(stop - start).count();
    res.base = rows[0];
    res.enhanced = rows[1];
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args("bench_wallclock", argc, argv);
    banner("Runner wall-clock — serial vs --jobs N vs sampled",
           "dlsim infrastructure (docs/performance.md)");

    const unsigned jobs = args.jobs();
    std::printf("grid: 12 arms; host threads for parallel run: "
                "%u\n\n",
                jobs);

    const SharedPrograms shared = buildShared(args);

    const auto serial = runGrid(args, 1, shared);
    std::printf("serial   (--jobs 1): %.3f s\n", serial.seconds);
    const auto parallel = runGrid(args, jobs, shared);
    std::printf("parallel (--jobs %u): %.3f s\n", jobs,
                parallel.seconds);

    if (serial.json != parallel.json) {
        std::fprintf(stderr,
                     "FAIL: serial and parallel runs produced "
                     "different metric documents\n");
        return 1;
    }
    std::printf("documents byte-identical: yes (%zu bytes)\n",
                serial.json.size());
    const double speedup =
        parallel.seconds > 0 ? serial.seconds / parallel.seconds
                             : 0.0;
    std::printf("speedup: %.2fx\n\n", speedup);

    // Block dispatch off, same grid, one thread: the dispatch
    // engine is a pure execution strategy, so the document must be
    // byte-identical to the serial (blocks-on) run; the seconds
    // ratio is the block-dispatch speedup this JSON records.
    const auto noblocks = runGrid(args, 1, shared, {}, false);
    std::printf("noblocks (--jobs 1, per-instruction dispatch): "
                "%.3f s\n",
                noblocks.seconds);
    if (serial.json != noblocks.json) {
        std::fprintf(stderr,
                     "FAIL: block and per-instruction dispatch "
                     "produced different metric documents\n");
        return 1;
    }
    std::printf("documents byte-identical: yes (%zu bytes)\n",
                noblocks.json.size());
    const double blockSpeedup =
        serial.seconds > 0 ? noblocks.seconds / serial.seconds
                           : 0.0;
    std::printf("block dispatch speedup: %.2fx\n", blockSpeedup);

    // Block-cache effectiveness over the serial (blocks-on) grid.
    std::uint64_t blockHits = 0, blockBuilds = 0, blockFlushes = 0;
    for (const ArmResult &arm : serial.arms) {
        blockHits += arm.blockHits;
        blockBuilds += arm.blockBuilds;
        blockFlushes += arm.blockFlushes;
    }
    const double blockHitRate =
        blockHits + blockBuilds > 0
            ? static_cast<double>(blockHits) /
                  static_cast<double>(blockHits + blockBuilds)
            : 0.0;
    std::printf("block cache: %llu hits, %llu builds, %llu "
                "flushes (hit rate %.4f)\n\n",
                static_cast<unsigned long long>(blockHits),
                static_cast<unsigned long long>(blockBuilds),
                static_cast<unsigned long long>(blockFlushes),
                blockHitRate);

    // Cold vs warm snapshot sweep. The cold pass pays for the
    // warm-up simulations (once per workload) plus serialization;
    // the warm pass starts from the bytes the cold pass produced —
    // the cross-process --from-snapshot flow, minus the disk.
    const workload::MachineConfig refMc = enhancedMachine();
    std::vector<std::uint8_t> states[3];
    const auto coldStart = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
        workload::Workbench wb(shared.wls[i], refMc,
                               shared.programs[i]);
        wb.warmup(
            static_cast<std::uint32_t>(args.scaled(Warmups[i])));
        states[i] = workload::snapshotWorkbench(wb);
    }
    const auto coldWarmupStop = std::chrono::steady_clock::now();
    const auto cold =
        runSnapshotGrid(args, jobs, shared, refMc, states);
    const double coldSeconds =
        std::chrono::duration<double>(coldWarmupStop - coldStart)
            .count() +
        cold.seconds;
    std::printf("cold  (warm-up + snapshot + grid): %.3f s\n",
                coldSeconds);
    const auto warm =
        runSnapshotGrid(args, jobs, shared, refMc, states);
    std::printf("warm  (grid from snapshot bytes):  %.3f s\n",
                warm.seconds);

    if (cold.json != warm.json) {
        std::fprintf(stderr,
                     "FAIL: cold and warm snapshot sweeps "
                     "produced different metric documents\n");
        return 1;
    }
    std::printf("documents byte-identical: yes (%zu bytes)\n",
                cold.json.size());
    const double warmSpeedup =
        warm.seconds > 0 ? coldSeconds / warm.seconds : 0.0;
    std::printf("warm speedup: %.2fx\n\n", warmSpeedup);

    // Sampled grid: same cells, sampled execution. Default spec
    // sized for this grid's request lengths; --sample overrides.
    sim::SampleParams sample = args.sample();
    if (!sample.enabled) {
        // Per-window warmup (W) dominates the accuracy of this
        // grid's short arms: it retrains caches and the ABTB after
        // each fast-forward gap before CPI is measured. This spec
        // measured ~2.5x over serial exact with ~0.1 mean IPC
        // error on the reference host; docs/performance.md tables
        // the trade-off.
        sim::SampleParams::parse("20000:20000:300000", sample);
    }
    const auto sampled = runGrid(args, jobs, shared, sample);
    std::printf("sampled  (--jobs %u, %s): %.3f s\n", jobs,
                sample.spec().c_str(), sampled.seconds);
    const double sampledSpeedup =
        sampled.seconds > 0 ? serial.seconds / sampled.seconds
                            : 0.0;
    std::printf("sampled speedup vs serial exact: %.2fx\n",
                sampledSpeedup);
    const ErrorReport err = compareGrids(serial, sampled);
    std::printf("sampled ipc error:  mean %.3f  max %.3f\n",
                err.ipcErrMean, err.ipcErrMax);
    std::printf("sampled skip error: mean %.3f  max %.3f\n",
                err.skipErrMean, err.skipErrMax);

    // OS-layer server throughput: the kernel scheduler + sockets +
    // tenant-churn stack serving requests end to end, base vs
    // enhanced (ASID-retention) machine. Three strategies, A/B'd
    // back to back on the same host:
    //   cold     one full serve per arm from a cold start (the
    //            pre-checkpoint methodology)
    //   fanout   warm once on the base machine, checkpoint, fan
    //            both arms out of the bytes over the JobRunner
    //   sampled  the fan-out path serving a 10x budget under
    //            W:D:F sampling (kernel decisions exact, timing
    //            extrapolated)
    const std::uint64_t serverRequests =
        args.quick() ? 240 : 20000;
    const std::uint64_t serverWarm =
        std::max<std::uint64_t>(60, serverRequests / 20);
    auto serverWl = workload::memcachedProfile(args.seed());
    serverWl.seed = args.seed();
    auto serverMc = enhancedMachine();
    serverMc.asidRetention = true;

    const ServerRow serverBase =
        runServerRow(args, serverWl, baseMachine(),
                     serverRequests);
    const ServerRow serverEnh =
        runServerRow(args, serverWl, serverMc, serverRequests);
    const double serverColdSeconds =
        serverBase.seconds + serverEnh.seconds;
    const FanoutResult fanout = runServerFanout(
        args, serverWl, serverRequests, serverWarm, jobs);
    const double fanoutSpeedup =
        fanout.seconds > 0 ? serverColdSeconds / fanout.seconds
                           : 0.0;

    // Sampled serve: 10x the exact budget out of the same warm
    // checkpoint path. Percentiles are scale-stable, so the exact
    // rows above are the error reference (docs/performance.md
    // section 8 tables the methodology).
    sim::SampleParams serverSample = args.sample();
    if (!serverSample.enabled)
        sim::SampleParams::parse(args.quick() ? "300:1500:6000"
                                              : "2000:10000:200000",
                                 serverSample);
    const std::uint64_t sampledRequests = serverRequests * 10;
    const FanoutResult sampledSrv =
        runServerFanout(args, serverWl, sampledRequests,
                        serverWarm, jobs, serverSample);
    // Error reference: the exact *fanout* rows — same warm
    // checkpoint, same measured phase — so the gauges isolate the
    // sampling estimator instead of folding in cold-start
    // transients the cold rows keep. p50 tracks closely; p99 is
    // biased low under sampling because rare long stalls (churn
    // rebind storms) mostly land in fast-forward phases where
    // cycle cost is CPI-extrapolated (docs/performance.md
    // section 8 discusses the bound).
    const auto relErr = [](double ref, double got) {
        return ref > 0 ? std::abs(got - ref) / ref : 0.0;
    };
    const double p50Err =
        std::max(relErr(fanout.base.p50, sampledSrv.base.p50),
                 relErr(fanout.enhanced.p50,
                        sampledSrv.enhanced.p50));
    const double p99Err =
        std::max(relErr(fanout.base.p99, sampledSrv.base.p99),
                 relErr(fanout.enhanced.p99,
                        sampledSrv.enhanced.p99));

    std::printf("\nserver   (os layer, %llu requests/arm exact, "
                "%llu sampled):\n",
                static_cast<unsigned long long>(serverRequests),
                static_cast<unsigned long long>(sampledRequests));
    const auto printServer = [](const char *name,
                                const ServerRow &r) {
        std::printf("  %-14s %.3f s, %8.0f req/s, p50 %.0f, "
                    "p99 %.0f virt cycles\n",
                    name, r.seconds, r.reqPerSec, r.p50, r.p99);
    };
    printServer("cold base", serverBase);
    printServer("cold enhanced", serverEnh);
    printServer("fanout base", fanout.base);
    printServer("fanout enh", fanout.enhanced);
    std::printf("  fanout total   %.3f s vs cold %.3f s "
                "(speedup %.2fx, warm %llu)\n",
                fanout.seconds, serverColdSeconds, fanoutSpeedup,
                static_cast<unsigned long long>(serverWarm));
    printServer("sampled base", sampledSrv.base);
    printServer("sampled enh", sampledSrv.enhanced);
    std::printf("  sampled (%s): %.3f s for a 10x budget; "
                "p50 err %.3f, p99 err %.3f vs exact\n",
                serverSample.spec().c_str(), sampledSrv.seconds,
                p50Err, p99Err);

    stats::MetricsDocument doc("bench_wallclock");
    const char *grid_desc = "fig5-style, 12 arms";

    auto &serialRun = doc.addRun("serial");
    serialRun.with("grid", grid_desc)
        .with("jobs", "1")
        .with("blocks", "1");
    serialRun.registry.gauge("dlsim.wallclock.seconds",
                             serial.seconds);
    serialRun.registry.counter("dlsim.linker.blockcache.hits",
                               blockHits);
    serialRun.registry.counter("dlsim.linker.blockcache.builds",
                               blockBuilds);
    serialRun.registry.counter("dlsim.linker.blockcache.flushes",
                               blockFlushes);
    serialRun.registry.gauge("dlsim.linker.blockcache.hit_rate",
                             blockHitRate);

    auto &noblocksRun = doc.addRun("serial.noblocks");
    noblocksRun.with("grid", grid_desc)
        .with("jobs", "1")
        .with("blocks", "0")
        .with("byte_identical", "1");
    noblocksRun.registry.gauge("dlsim.wallclock.seconds",
                               noblocks.seconds);
    noblocksRun.registry.gauge("dlsim.wallclock.block_speedup",
                               blockSpeedup);

    auto &parallelRun = doc.addRun("parallel");
    parallelRun.with("grid", grid_desc)
        .with("jobs", std::to_string(jobs))
        .with("byte_identical", "1");
    parallelRun.registry.gauge("dlsim.wallclock.seconds",
                               parallel.seconds);
    // With one job the "parallel" run is the serial path measured
    // again; its ratio to serial is timing noise, not a speedup —
    // recording it would teach bench_guard a meaningless baseline.
    if (jobs > 1)
        parallelRun.registry.gauge("dlsim.wallclock.speedup",
                                   speedup);
    // Host-side pool counters for the parallel grid (tasks claimed
    // under contention, worker busy/idle split).
    sim::JobRunner::reportStats(parallel.jobs,
                                parallelRun.registry, "dlsim");

    auto &coldRun = doc.addRun("snapshot.cold");
    coldRun.with("grid", grid_desc)
        .with("jobs", std::to_string(jobs));
    coldRun.registry.gauge("dlsim.wallclock.seconds", coldSeconds);

    auto &warmRun = doc.addRun("snapshot.warm");
    warmRun.with("grid", grid_desc)
        .with("jobs", std::to_string(jobs))
        .with("byte_identical", "1");
    warmRun.registry.gauge("dlsim.wallclock.seconds",
                           warm.seconds);
    warmRun.registry.gauge("dlsim.wallclock.speedup", warmSpeedup);

    auto &sampledRun = doc.addRun("sampled");
    sampledRun.with("grid", grid_desc)
        .with("jobs", std::to_string(jobs))
        .with("sampled", "1")
        .with("sample", sample.spec());
    sampledRun.registry.gauge("dlsim.wallclock.seconds",
                              sampled.seconds);
    sampledRun.registry.gauge("dlsim.wallclock.speedup",
                              sampledSpeedup);
    sampledRun.registry.gauge("dlsim.sampled.ipc_err_mean",
                              err.ipcErrMean);
    sampledRun.registry.gauge("dlsim.sampled.ipc_err_max",
                              err.ipcErrMax);
    sampledRun.registry.gauge("dlsim.sampled.skip_err_mean",
                              err.skipErrMean);
    sampledRun.registry.gauge("dlsim.sampled.skip_err_max",
                              err.skipErrMax);

    // addRun references invalidate on the next addRun (vector
    // storage), so each server row is fully filled in one shot.
    const auto addServerRun =
        [&](const std::string &name, const char *machine,
            const ServerRow &r,
            const std::function<void(stats::MetricsRun &)>
                &extras = {}) {
            auto &run = doc.addRun("server." + name);
            run.with("grid", "os-layer server, 2 arms")
                .with("machine", machine)
                .with("requests", std::to_string(r.requests));
            run.registry.gauge("dlsim.wallclock.seconds",
                               r.seconds);
            run.registry.gauge(
                "dlsim.os.server.requests_per_sec", r.reqPerSec);
            run.registry.gauge("dlsim.os.server.latency_p50",
                               r.p50);
            run.registry.gauge("dlsim.os.server.latency_p99",
                               r.p99);
            if (extras)
                extras(run);
        };
    addServerRun("base", "base", serverBase);
    addServerRun("enhanced", "enhanced", serverEnh);

    // Warm fan-out: both arms out of one base-machine checkpoint,
    // A/B'd against the cold pair above on this host.
    const auto fanoutCtx = [&](stats::MetricsRun &run) {
        run.with("jobs", std::to_string(jobs))
            .with("warm", std::to_string(serverWarm));
    };
    addServerRun("fanout.base", "base", fanout.base, fanoutCtx);
    addServerRun(
        "fanout.enhanced", "enhanced", fanout.enhanced,
        [&](stats::MetricsRun &run) {
            fanoutCtx(run);
            run.registry.gauge("dlsim.wallclock.fanout_seconds",
                               fanout.seconds);
            // Speedup of (warm once + fan both arms) over (cold
            // serve per arm). Parallel fan-out is the lever, so
            // the gauge is only a cross-host claim within the same
            // jobs class — and with one job it is the checkpoint
            // path's overhead measured honestly, not a speedup;
            // skip it then (same policy as "parallel").
            if (jobs > 1)
                run.registry.gauge(
                    "dlsim.wallclock.server_fanout_speedup",
                    fanoutSpeedup);
        });

    // Sampled serve at a 10x request budget; error gauges are
    // measured against this document's own exact rows.
    const auto sampledCtx = [&](stats::MetricsRun &run) {
        run.with("jobs", std::to_string(jobs))
            .with("sampled", "1")
            .with("sample", serverSample.spec());
    };
    addServerRun("sampled.base", "base", sampledSrv.base,
                 sampledCtx);
    addServerRun(
        "sampled.enhanced", "enhanced", sampledSrv.enhanced,
        [&](stats::MetricsRun &run) {
            sampledCtx(run);
            run.registry.gauge("dlsim.wallclock.sampled_seconds",
                               sampledSrv.seconds);
            run.registry.gauge("dlsim.sampled.p50_error", p50Err);
            run.registry.gauge("dlsim.sampled.p99_error", p99Err);
        });

    const std::string path = args.jsonOut().empty()
                                 ? "BENCH_wallclock.json"
                                 : args.jsonOut();
    std::string error;
    if (!doc.writeFile(path, &error)) {
        std::fprintf(stderr, "write: %s\n", error.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
