/**
 * @file
 * Sampler: SMARTS-style sampled simulation, one core or many.
 *
 * Detailed timing simulation (cpu::Core::step) costs an order of
 * magnitude more host time per instruction than functional
 * execution. The paper's results only need detailed timing in
 * short, periodic windows, so a sampled run alternates three
 * phases over the retired-instruction stream:
 *
 *   warmup (W insts)   detailed execution, *not* counted into the
 *                      CPI estimate — it re-warms caches, TLBs and
 *                      predictors after a functional gap;
 *   detail (D insts)   detailed execution, measured — these windows
 *                      produce the CPI used for extrapolation;
 *   fast-forward (F)   functional execution on a check::RefCore
 *                      bound directly to the process image: no
 *                      timing, no cache/BTB/ABTB probes, but every
 *                      architectural effect is real — GOT writes,
 *                      resolver traps (serviced functionally, with
 *                      the skip unit snooping the GOT store exactly
 *                      as the architectural data path would), and
 *                      stores all land in the live address space.
 *
 * The phase machine persists across requests, so the sample grid is
 * laid over the whole run rather than per request. Cycle counts for
 * fast-forwarded instructions are extrapolated from the measured
 * CPI of completed detail windows; instruction counts are exact up
 * to trampoline elision (the functional engine executes the PLT
 * jumps the enhanced machine's ABTB would skip).
 *
 * Exact mode is untouched: sampling only exists on a Workbench or
 * os::Server that explicitly attached a Sampler (setSampling;
 * BenchArgs --sample=W:D:F, default off), and every
 * golden/determinism contract is stated for exact mode.
 */

#ifndef DLSIM_SIM_SAMPLED_HH
#define DLSIM_SIM_SAMPLED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/ref_core.hh"
#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "sim/multicore.hh"

namespace dlsim::stats
{
class MetricsRegistry;
}

namespace dlsim::sim
{

/** Sample-grid geometry, in retired instructions. */
struct SampleParams
{
    bool enabled = false;
    /** Detailed, unmeasured re-warm phase (may be 0). */
    std::uint64_t warmup = 2000;
    /** Detailed, measured window (>= 1). */
    std::uint64_t detail = 10000;
    /** Functional fast-forward phase (>= 1). */
    std::uint64_t fastforward = 100000;

    /**
     * Parse a "W:D:F" spec (decimal instruction counts; D and F
     * must be >= 1). On success fills `out` with enabled=true and
     * returns true; on failure returns false with a diagnostic in
     * `*error` (if non-null) and leaves `out` untouched.
     */
    static bool parse(const std::string &spec, SampleParams &out,
                      std::string *error = nullptr);

    /** The "W:D:F" form of this geometry. */
    std::string spec() const;
};

/** Work accounting of one sampled run (since the last clear). */
struct SampledStats
{
    /** Completed detail windows. */
    std::uint64_t windows = 0;
    /** Instructions retired in detail windows. */
    std::uint64_t detailInsts = 0;
    /** Cycles accumulated in detail windows. */
    std::uint64_t detailCycles = 0;
    /** Instructions retired in warmup phases (detailed, unmeasured). */
    std::uint64_t warmupInsts = 0;
    /** Cycles accumulated in warmup phases. */
    std::uint64_t warmupCycles = 0;
    /** Instructions executed functionally (incl. the synthetic
     *  resolver cost, mirroring exact mode's accounting). */
    std::uint64_t ffInsts = 0;
    /** Resolver traps serviced functionally. */
    std::uint64_t ffResolverTraps = 0;

    /** Measured CPI of the detail windows (1.0 until one exists). */
    double cpi() const
    {
        return detailInsts == 0
                   ? 1.0
                   : static_cast<double>(detailCycles) /
                         static_cast<double>(detailInsts);
    }

    std::uint64_t totalInsts() const
    {
        return detailInsts + warmupInsts + ffInsts;
    }

    /** Fraction of instructions executed with detailed timing. */
    double coverage() const
    {
        const auto total = totalInsts();
        return total == 0 ? 1.0
                          : static_cast<double>(detailInsts +
                                                warmupInsts) /
                                static_cast<double>(total);
    }

    /** Measured cycles plus CPI-extrapolated fast-forward cycles. */
    double extrapolatedCycles() const
    {
        return static_cast<double>(detailCycles + warmupCycles) +
               static_cast<double>(ffInsts) * cpi();
    }
};

/**
 * The W:D:F phase machine over the cores it drives: a Workbench's
 * one core, or every core of a MultiCoreSystem driven by an
 * OS-like scheduler (os::Kernel). One phase machine is laid over
 * the *combined* retired-instruction stream of those cores, with
 * one direct-memory RefCore per core for the fast-forward phases.
 * The phase machine and stats persist across calls.
 *
 * The caller stays in charge: it asks inFastForward() before each
 * slice and either runs the detailed core (reporting the retired
 * work through noteDetailed(), which advances the phase machine) or
 * calls runFunctionalSlice(), which executes up to the slice budget
 * functionally on that core's RefCore. Workbench::runRequest stops
 * each detailed quantum at the phase boundary (phaseLeft()); the
 * kernel runs its full scheduling budget and noteDetailed() clamps
 * the overshoot. Either way a kernel slice consumes the same number
 * of scheduling-budget instructions for the same architectural
 * work, so on a machine without trampoline elision every
 * scheduling decision — dispatch order, preemptions, blocking,
 * wakeups, churn points — is byte-identical to the exact-mode run;
 * only cycle timing is extrapolated. (With an ABTB, elision makes
 * detailed windows retire fewer instructions than functional
 * execution of the same code, so quantum boundaries shift; logical
 * server counters remain exact, micro-counters are approximate.)
 *
 * Resolver traps inside a fast-forward phase are serviced
 * architecturally: the GOT store lands in the live address space
 * and the executing core's skip unit retires the store. A sampler
 * built over a MultiCoreSystem also snoops the store onto every
 * sibling through MultiCoreSystem::snoopStore, so tenant churn and
 * lazy rebinding behave exactly as in exact mode. Ordinary
 * fast-forwarded data stores are not snooped per-store (they land
 * in the shared address space directly); the only effect lost is
 * timing-side cache invalidations and conservative bloom-filter
 * false-positive flushes, never a stale skip.
 */
class Sampler
{
  public:
    /** Sample one core (a Workbench's); no sibling snoops. */
    Sampler(cpu::Core &core, linker::Image &image,
            linker::DynamicLinker &linker, const SampleParams &params);
    /** Sample every core of `sys`; resolver GOT stores are snooped
     *  onto siblings. */
    Sampler(MultiCoreSystem &sys, linker::Image &image,
            linker::DynamicLinker &linker, const SampleParams &params);

    /** True while the phase machine is in a fast-forward phase —
     *  the caller should run functional slices. */
    bool inFastForward() const
    {
        return phase_ == Phase::FastForward;
    }

    /** Instructions left in the current phase. */
    std::uint64_t phaseLeft() const { return phaseLeft_; }

    /** One functional slice's outcome. */
    struct FfSlice
    {
        /** Instructions executed (incl. synthetic resolver cost) —
         *  the scheduler charges these against its quantum. */
        std::uint64_t insts = 0;
        /** CPI-extrapolated cycle cost of the slice. */
        std::uint64_t cycles = 0;
        /** The in-progress call returned (or the machine halted). */
        bool done = false;
    };

    /**
     * Run core `core`'s in-progress call functionally for at most
     * `max_insts` instructions or until the current fast-forward
     * phase's budget is spent, whichever is smaller. Syncs register
     * state core -> RefCore on entry and back on exit, services
     * resolver traps architecturally, and resyncs every attached
     * retire observer (fast-forwarded stores landed in the shared
     * address space behind their forks' backs).
     */
    FfSlice runFunctionalSlice(std::uint32_t core,
                               std::uint64_t max_insts);

    /**
     * Account a detailed slice (runQuantum on any core) into the
     * phase machine: warmup/detail consumption, CPI measurement,
     * and the Warmup -> Detail -> FastForward transitions. Ignored
     * during fast-forward.
     */
    void noteDetailed(std::uint64_t insts, std::uint64_t cycles);

    const SampleParams &params() const { return params_; }
    const SampledStats &stats() const { return stats_; }

    /** Zero the stats (phase machine keeps its position). */
    void clearStats() { stats_ = SampledStats{}; }

    /**
     * Register `<prefix>.sampled.*`: the sample-grid work split,
     * measured CPI, coverage, and the extrapolated totals. Only
     * sampled runs carry these keys — exact-mode documents (and the
     * metrics golden) are unchanged.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

  private:
    Sampler(std::vector<cpu::Core *> cores, MultiCoreSystem *sys,
            linker::Image &image, linker::DynamicLinker &linker,
            const SampleParams &params);

    /** Enter Warmup, or Detail when the spec has no warmup. */
    void enterDetailedPhase();
    /** Service a resolver trap functionally; returns the synthetic
     *  instruction cost (CoreParams::resolverInsts). */
    std::uint64_t serviceResolverFunctional(std::uint32_t core);

    enum class Phase
    {
        Warmup,
        Detail,
        FastForward
    };

    std::vector<cpu::Core *> cores_;
    /** Snoop target for resolver GOT stores; null on one core. */
    MultiCoreSystem *sys_;
    linker::DynamicLinker &linker_;
    std::vector<std::unique_ptr<check::RefCore>> refs_;
    SampleParams params_;
    SampledStats stats_;
    Phase phase_ = Phase::Warmup;
    std::uint64_t phaseLeft_ = 0;
};

} // namespace dlsim::sim

#endif // DLSIM_SIM_SAMPLED_HH
