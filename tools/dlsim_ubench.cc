/**
 * @file
 * dlsim_ubench: simulator-throughput micro-benchmark.
 *
 * Reports host-side retired-instructions/second for the four
 * execution engines:
 *
 *   detailed          cpu::Core, per-instruction dispatch
 *   detailed+blocks   cpu::Core, basic-block dispatch
 *   refcore           check::RefCore functional fast-forward,
 *                     per-instruction engine
 *   refcore+blocks    check::RefCore, block-chained engine
 *
 * The RefCore rows run through sim::Sampler with a
 * degenerate 0:1:1000000000 sample spec — one detailed instruction
 * per billion fast-forwarded — so they exercise the exact
 * fast-forward machinery fig5 --sample rows use (including
 * functional resolver servicing), with detailed execution
 * contributing a negligible fraction.
 *
 * This is a tool for eyeballing dispatch-engine speedups on the
 * local host. It measures wall-clock, so it is deliberately NOT a
 * ctest (timing on shared CI hosts is noise); the reproducible
 * speedup record lives in BENCH_wallclock.json (bench_wallclock).
 *
 * Usage: dlsim_ubench [--profile NAME] [--warmup N] [--requests N]
 *                     [--seed N]
 */

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "parse_count.hh"
#include "sim/sampled.hh"
#include "workload/engine.hh"
#include "workload/profiles.hh"

using namespace dlsim;

namespace
{

struct Options
{
    std::string profile = "apache";
    int warmup = 60;
    int requests = 300;
    std::uint64_t seed = 42;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: dlsim_ubench [--profile apache|firefox|memcached|"
        "mysql]\n"
        "                    [--warmup N] [--requests N] "
        "[--seed N]\n"
        "\n"
        "Prints host retired-instructions/second for the detailed\n"
        "core and the RefCore fast-forward engine, each with block\n"
        "dispatch off and on. Wall-clock-based: run on an idle\n"
        "host; not a correctness test.\n");
    std::exit(code);
}

struct ModeResult
{
    std::uint64_t instructions = 0;
    double seconds = 0.0;

    double
    mips() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds /
                         1e6
                   : 0.0;
    }
};

/**
 * Time one engine: warm up (untimed, resolves lazy imports and
 * fills simulator-side caches), then run the measured request loop.
 */
ModeResult
runMode(const Options &opt, bool blocks, bool refcore)
{
    workload::MachineConfig mc;
    mc.enhanced = true;
    mc.core.blockDispatch = blocks;

    workload::Workbench wb(
        workload::profileByName(opt.profile, opt.seed), mc);
    if (refcore) {
        sim::SampleParams sp;
        sp.enabled = true;
        sp.warmup = 0;
        sp.detail = 1;
        sp.fastforward = 1000000000ull;
        wb.setSampling(sp);
    }
    wb.warmup(static_cast<std::uint32_t>(opt.warmup));

    ModeResult r;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < opt.requests; ++i)
        r.instructions += wb.runRequest().instructions;
    const auto t1 = std::chrono::steady_clock::now();
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "dlsim_ubench: %s requires a value\n",
                             arg.c_str());
                usage(2);
            }
            return argv[++i];
        };
        const auto count = [&](std::uint64_t max) {
            try {
                return bench::parseCount(arg, value(), max);
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "dlsim_ubench: %s\n", e.what());
                usage(2);
            }
        };
        if (arg == "--help" || arg == "-h")
            usage(0);
        else if (arg == "--profile")
            opt.profile = value();
        else if (arg == "--warmup")
            opt.warmup = static_cast<int>(count(INT_MAX));
        else if (arg == "--requests")
            opt.requests = static_cast<int>(count(INT_MAX));
        else if (arg == "--seed")
            opt.seed = count(UINT64_MAX);
        else {
            std::fprintf(stderr,
                         "dlsim_ubench: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (opt.requests < 1) {
        std::fprintf(stderr,
                     "dlsim_ubench: --requests must be >= 1\n");
        return 2;
    }

    std::printf("dlsim_ubench: profile=%s warmup=%d requests=%d "
                "seed=%llu\n\n",
                opt.profile.c_str(), opt.warmup, opt.requests,
                static_cast<unsigned long long>(opt.seed));

    struct Mode
    {
        const char *name;
        bool blocks;
        bool refcore;
    };
    static const Mode kModes[] = {
        {"detailed", false, false},
        {"detailed+blocks", true, false},
        {"refcore", false, true},
        {"refcore+blocks", true, true},
    };

    ModeResult results[4];
    for (int m = 0; m < 4; ++m)
        results[m] = runMode(opt, kModes[m].blocks,
                             kModes[m].refcore);

    std::printf("%-18s %14s %9s %12s %9s\n", "mode", "retired",
                "secs", "Minsts/sec", "speedup");
    for (int m = 0; m < 4; ++m) {
        // Speedup of the +blocks engine over its per-instruction
        // sibling (modes are paired: m^1 flips only `blocks`).
        const double base = results[m & ~1].mips();
        const double speedup =
            base > 0.0 ? results[m].mips() / base : 0.0;
        std::printf("%-18s %14llu %9.3f %12.2f %8.2fx\n",
                    kModes[m].name,
                    static_cast<unsigned long long>(
                        results[m].instructions),
                    results[m].seconds, results[m].mips(),
                    speedup);
    }

    // Block dispatch is an execution strategy: within each engine,
    // the +blocks run must retire exactly the instructions its
    // per-instruction sibling did. (Exact vs sampled counts may
    // differ — sampled resolver servicing is costed, not timed.)
    for (const int m : {1, 3}) {
        if (results[m].instructions != results[m - 1].instructions) {
            std::fprintf(stderr,
                         "\ndlsim_ubench: FAIL: %s retired %llu "
                         "instructions, %s retired %llu — "
                         "dispatch engines diverged\n",
                         kModes[m].name,
                         static_cast<unsigned long long>(
                             results[m].instructions),
                         kModes[m - 1].name,
                         static_cast<unsigned long long>(
                             results[m - 1].instructions));
            return 1;
        }
    }
    return 0;
}
