/**
 * @file
 * The grids of the paper's two headline results, each defined once:
 * Figure 5 (trampoline skip rate vs ABTB size) and Table 4 (base vs
 * enhanced counters). fig5_abtb_sweep, table4_microarch_counters and
 * tools/bench_to_json all run their arms through these functions, so
 * a run of a given name holds the same metrics whichever of them
 * wrote it (ctest figure_sources_agree).
 *
 * A grid owns its workloads, warm-up and request calibrations, ABTB
 * sizes, --quick scaling (BenchArgs::scaled) and method; its callers
 * own naming, printing and writing.
 */

#ifndef DLSIM_BENCH_FIGURES_HH
#define DLSIM_BENCH_FIGURES_HH

#include <span>

#include "common.hh"

namespace dlsim::bench
{

/** One workload of a figure grid, with its full-size counts. */
struct GridWorkload
{
    const char *name;
    int warmup;
    int requests;
};

using RunContext = std::vector<std::pair<std::string, std::string>>;

/** Provenance tags of one grid arm, the same in every writer. */
inline RunContext
gridContext(const BenchArgs &args, const GridWorkload &w,
            const workload::MachineConfig &mc)
{
    RunContext context{{"workload", w.name},
                       {"machine", mc.enhanced ? "enhanced" : "base"}};
    if (mc.enhanced)
        context.emplace_back("abtb_entries",
                             std::to_string(mc.abtbEntries));
    if (mc.bindPolicy != linker::BindPolicy::Lazy)
        context.emplace_back("bind_policy",
                             linker::bindPolicyName(mc.bindPolicy));
    context.emplace_back("seed", std::to_string(args.seed()));
    context.emplace_back("warmup",
                         std::to_string(args.scaled(w.warmup)));
    context.emplace_back("requests",
                         std::to_string(args.scaled(w.requests)));
    if (args.sample().enabled) {
        context.emplace_back("sampled", "1");
        context.emplace_back("sample", args.sample().spec());
    }
    return context;
}

// Firefox lazily binds thousands of symbols; each first call ends in
// a GOT store that flushes the ABTB ("once per library call, at the
// start" — §3.2). A long warm-up amortises that startup phase, as
// the paper's 10-minute runs did.
inline constexpr GridWorkload fig5Workloads[] = {
    {"apache", 300, 400},
    {"firefox", 1200, 250},
    {"memcached", 150, 350},
};
inline constexpr std::uint32_t fig5Sizes[] = {
    1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u};

/** The enhanced machine of one fig5 cell (reference: 256 entries). */
inline workload::MachineConfig
fig5Machine(linker::BindPolicy policy, std::uint32_t entries = 256)
{
    workload::MachineConfig mc = enhancedMachine();
    mc.bindPolicy = policy;
    mc.abtbEntries = entries;
    mc.abtbAssoc = std::min(entries, 4u);
    return mc;
}

/**
 * Figure 5 by warm-once fan-out: each workload warms one 256-entry
 * reference machine under `policy`, which is checkpointed (or read
 * back under --from-snapshot); every size in `sizes` then restores
 * those bytes with a fresh cold skip unit of its own geometry. A
 * snapshot does not restore across policies, so each policy pays
 * its own warm-ups. Results are size-major:
 * `[s * std::size(fig5Workloads) + w]`.
 */
inline std::vector<ArmResult>
runFig5(const BenchArgs &args, linker::BindPolicy policy,
        std::span<const std::uint32_t> sizes)
{
    constexpr std::size_t n = std::size(fig5Workloads);
    const workload::MachineConfig refMc = fig5Machine(policy);
    workload::WorkloadParams wls[n];
    std::shared_ptr<const workload::BuiltProgram> progs[n];
    std::vector<std::uint8_t> states[n];
    for (std::size_t i = 0; i < n; ++i) {
        const GridWorkload &w = fig5Workloads[i];
        wls[i] = workload::profileByName(w.name, args.seed());
        progs[i] = std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wls[i]));
        states[i] = warmState(args, w.name, wls[i], refMc,
                              args.scaled(w.warmup), progs[i]);
    }

    // One job per (size, workload) cell, on --jobs threads.
    std::vector<std::function<ArmResult()>> work;
    for (const std::uint32_t entries : sizes) {
        for (std::size_t i = 0; i < n; ++i) {
            work.push_back([&, entries, i] {
                return runArmFromState(
                    states[i], wls[i], refMc,
                    fig5Machine(policy, entries),
                    args.scaled(fig5Workloads[i].requests),
                    args.sample(), progs[i]);
            });
        }
    }
    return runJobs(args, std::move(work));
}

inline constexpr GridWorkload table4Workloads[] = {
    {"apache", 150, 900},
    {"firefox", 150, 450},
    {"memcached", 150, 600},
    {"mysql", 150, 700},
};

/**
 * Table 4: every machine of `machines` on every workload, each arm
 * warmed on its own. Results are workload-major:
 * `[w * machines.size() + m]`.
 */
inline std::vector<ArmResult>
runTable4(const BenchArgs &args,
          const std::vector<workload::MachineConfig> &machines)
{
    std::vector<std::function<ArmResult()>> work;
    for (const GridWorkload &w : table4Workloads) {
        for (const workload::MachineConfig &mc : machines) {
            work.push_back([&args, &w, &mc] {
                return runArm(
                    workload::profileByName(w.name, args.seed()), mc,
                    args.scaled(w.warmup), args.scaled(w.requests),
                    args.sample());
            });
        }
    }
    return runJobs(args, std::move(work));
}

} // namespace dlsim::bench

#endif // DLSIM_BENCH_FIGURES_HH
