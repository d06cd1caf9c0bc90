/**
 * @file
 * Tests for sim::Sampler: spec parsing, the phase machine, pinned
 * single-core sampled figures, the off-by-default guarantee
 * (disabled sampling is the exact path, byte for byte),
 * accuracy of the extrapolated metrics against exact simulation on
 * the paper's steady-state profiles, determinism, and the lockstep
 * oracle across fast-forward/detail boundaries.
 */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "check/lockstep.hh"
#include "common.hh"
#include "sim/sampled.hh"
#include "workload/profiles.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/** Sampled-mode parameters small enough that the short test grids
 *  still cross many window boundaries. */
sim::SampleParams
testSample()
{
    sim::SampleParams sp;
    sp.enabled = true;
    sp.warmup = 500;
    sp.detail = 2500;
    sp.fastforward = 7500;
    return sp;
}

std::string
renderJson(const ArmResult &arm, const char *name)
{
    stats::MetricsDocument doc("test_sampled");
    doc.addRun(name).registry = arm.registry;
    return doc.toJson();
}

double
skipRate(const cpu::PerfCounters &c)
{
    const double den = static_cast<double>(c.trampolineJmps +
                                           c.skippedTrampolines);
    return den == 0.0 ? 0.0 : c.skippedTrampolines / den;
}

double
gauge(const ArmResult &arm, const std::string &name)
{
    const auto *m = arm.registry.find(name);
    return m ? m->gauge : 0.0;
}

} // namespace

TEST(SampleParams, ParsesWellFormedSpecs)
{
    sim::SampleParams sp;
    ASSERT_TRUE(sim::SampleParams::parse("100:2000:30000", sp));
    EXPECT_TRUE(sp.enabled);
    EXPECT_EQ(sp.warmup, 100u);
    EXPECT_EQ(sp.detail, 2000u);
    EXPECT_EQ(sp.fastforward, 30000u);
    EXPECT_EQ(sp.spec(), "100:2000:30000");

    // Zero warmup is legal: the first window starts in detail.
    ASSERT_TRUE(sim::SampleParams::parse("0:1:1", sp));
    EXPECT_EQ(sp.warmup, 0u);
}

TEST(SampleParams, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",          "10",        "10:20",     "10:20:30:40",
        "a:20:30",   "10:b:30",   "10:20:c",   "10::30",
        "-1:20:30",  "10:0:30",   "10:20:0",   " 10:20:30",
    };
    for (const char *spec : bad) {
        sim::SampleParams sp;
        std::string error;
        EXPECT_FALSE(sim::SampleParams::parse(spec, sp, &error))
            << "spec '" << spec << "' should be rejected";
        EXPECT_FALSE(error.empty()) << spec;
        EXPECT_FALSE(sp.enabled) << spec;
    }
}

TEST(Sampled, DisabledSamplingIsTheExactPath)
{
    const auto wl = workload::apacheProfile();
    const auto mc = enhancedMachine();
    const auto exact = runArm(wl, mc, 10, 20);
    // Explicitly-disabled params must take the identical path.
    const auto off = runArm(wl, mc, 10, 20, sim::SampleParams{});
    EXPECT_EQ(renderJson(exact, "arm"), renderJson(off, "arm"));
    EXPECT_EQ(exact.counters.cycles, off.counters.cycles);
    EXPECT_EQ(exact.counters.instructions,
              off.counters.instructions);
    EXPECT_FALSE(off.registry.has("dlsim.sampled.windows"));
}

TEST(Sampled, SampledRunsAreDeterministic)
{
    const auto wl = workload::memcachedProfile();
    const auto a = runArm(wl, enhancedMachine(), 10, 20,
                          testSample());
    const auto b = runArm(wl, enhancedMachine(), 10, 20,
                          testSample());
    EXPECT_EQ(renderJson(a, "arm"), renderJson(b, "arm"));
}

namespace
{

/** A parsed W:D:F spec. */
sim::SampleParams
spec(const char *text)
{
    sim::SampleParams sp;
    EXPECT_TRUE(sim::SampleParams::parse(text, sp)) << text;
    return sp;
}

/** A workbench with a call begun, ready to fast-forward. */
struct PhaseBench
{
    workload::Workbench wb{workload::memcachedProfile(), baseMachine()};

    PhaseBench() { wb.beginRequest(); }

    sim::Sampler
    sampler(const char *text)
    {
        return sim::Sampler(wb.core(), wb.image(), wb.linker(),
                            spec(text));
    }
};

} // namespace

TEST(SamplerPhases, ZeroWarmupStartsInDetail)
{
    PhaseBench pb;
    auto s = pb.sampler("0:5:7");
    EXPECT_FALSE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 5u);

    s.noteDetailed(4, 40);
    EXPECT_EQ(s.stats().detailInsts, 4u);
    EXPECT_EQ(s.stats().warmupInsts, 0u);
    EXPECT_EQ(s.stats().windows, 0u);
    EXPECT_EQ(s.phaseLeft(), 1u);

    s.noteDetailed(1, 10);
    EXPECT_EQ(s.stats().detailCycles, 50u);
    EXPECT_EQ(s.stats().windows, 1u);
    EXPECT_TRUE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 7u);

    // With a warmup, the machine starts there instead.
    auto w = pb.sampler("3:5:7");
    EXPECT_FALSE(w.inFastForward());
    EXPECT_EQ(w.phaseLeft(), 3u);
    w.noteDetailed(3, 30);
    EXPECT_EQ(w.stats().warmupInsts, 3u);
    EXPECT_EQ(w.stats().warmupCycles, 30u);
    EXPECT_EQ(w.stats().detailInsts, 0u);
    EXPECT_EQ(w.phaseLeft(), 5u);
}

TEST(SamplerPhases, OvershootClampsToZeroAndMovesOn)
{
    // A detailed slice that retires past the boundary (a resolver
    // bulk-add, or a scheduler quantum) ends the phase; the excess
    // is accounted to the phase it ran in, not carried over.
    PhaseBench pb;
    auto s = pb.sampler("3:5:7");
    s.noteDetailed(10, 100);
    EXPECT_EQ(s.stats().warmupInsts, 10u);
    EXPECT_EQ(s.stats().warmupCycles, 100u);
    EXPECT_FALSE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 5u);
    s.noteDetailed(9, 90);
    EXPECT_EQ(s.stats().detailInsts, 9u);
    EXPECT_EQ(s.stats().windows, 1u);
    EXPECT_TRUE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 7u);
}

TEST(SamplerPhases, ResolverCostOvershootEndsFastForward)
{
    // Find how many functional steps the cold first call runs
    // before its first lazy-resolver trap...
    std::uint64_t before_trap = 0;
    std::uint64_t cost = 0;
    {
        PhaseBench pb;
        cost = pb.wb.core().params().resolverInsts;
        auto s = pb.sampler("0:1:100000000");
        s.noteDetailed(1, 1);
        ASSERT_TRUE(s.inFastForward());
        for (int i = 0; i < 1000000 && s.stats().ffResolverTraps == 0;
             ++i)
            ASSERT_FALSE(s.runFunctionalSlice(0, 1).done);
        ASSERT_EQ(s.stats().ffResolverTraps, 1u);
        ASSERT_GT(s.stats().ffInsts, cost);
        before_trap = s.stats().ffInsts - cost;
    }
    // ...then end a fast-forward phase one instruction after it:
    // the trap's synthetic cost overshoots, the phase clamps to 0
    // and the machine re-enters its detailed phases.
    PhaseBench pb;
    const std::string text =
        "2:1:" + std::to_string(before_trap + 1);
    auto s = pb.sampler(text.c_str());
    s.noteDetailed(2, 2);
    s.noteDetailed(1, 1);
    ASSERT_TRUE(s.inFastForward());
    const auto sl = s.runFunctionalSlice(0, UINT64_MAX);
    EXPECT_FALSE(sl.done);
    EXPECT_EQ(sl.insts, before_trap + cost);
    EXPECT_EQ(s.stats().ffInsts, before_trap + cost);
    EXPECT_EQ(s.stats().ffResolverTraps, 1u);
    EXPECT_FALSE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 2u);
}

TEST(SamplerPhases, FastForwardWarmupDetailCountsOneWindowEach)
{
    PhaseBench pb;
    auto s = pb.sampler("2:3:4");
    s.noteDetailed(2, 20);
    s.noteDetailed(3, 30);
    ASSERT_EQ(s.stats().windows, 1u);
    ASSERT_TRUE(s.inFastForward());

    // A slice shorter than the phase leaves it in fast-forward.
    auto sl = s.runFunctionalSlice(0, 1);
    EXPECT_EQ(sl.insts, 1u);
    EXPECT_FALSE(sl.done);
    EXPECT_TRUE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 3u);

    // The rest of the phase, however large the slice budget.
    sl = s.runFunctionalSlice(0, UINT64_MAX);
    EXPECT_EQ(sl.insts, 3u);
    EXPECT_EQ(s.stats().ffInsts, 4u);
    EXPECT_FALSE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 2u); // Warmup again.

    s.noteDetailed(2, 20); // Warmup -> Detail.
    EXPECT_EQ(s.stats().windows, 1u);
    s.noteDetailed(1, 10); // Part of a window counts nothing.
    EXPECT_EQ(s.stats().windows, 1u);
    s.noteDetailed(2, 20); // Detail -> FastForward.
    EXPECT_EQ(s.stats().windows, 2u);
    EXPECT_TRUE(s.inFastForward());
    EXPECT_EQ(s.stats().warmupInsts, 4u);
    EXPECT_EQ(s.stats().detailInsts, 6u);
    EXPECT_EQ(s.stats().detailCycles, 60u);
}

TEST(SamplerPhases, NoteDetailedIgnoredInFastForward)
{
    PhaseBench pb;
    auto s = pb.sampler("0:1:5");
    s.noteDetailed(1, 10);
    ASSERT_TRUE(s.inFastForward());
    const auto before = s.stats();
    s.noteDetailed(100, 1000);
    EXPECT_TRUE(s.inFastForward());
    EXPECT_EQ(s.phaseLeft(), 5u);
    EXPECT_EQ(s.stats().detailInsts, before.detailInsts);
    EXPECT_EQ(s.stats().detailCycles, before.detailCycles);
    EXPECT_EQ(s.stats().warmupInsts, before.warmupInsts);
    EXPECT_EQ(s.stats().windows, before.windows);
}

namespace
{

/** Exact single-core sampled figures of one fixed run. */
struct PinnedRun
{
    sim::SampledStats stats;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

PinnedRun
runPinned(bool blocks)
{
    // Cold start, so lazy binding traps in fast-forward as well as
    // in detail windows; 40 requests cross dozens of phases.
    auto mc = enhancedMachine();
    mc.core.blockDispatch = blocks;
    workload::Workbench wb(workload::memcachedProfile(7), mc);
    sim::SampleParams sp;
    EXPECT_TRUE(sim::SampleParams::parse("300:1200:4000", sp));
    wb.setSampling(sp);
    PinnedRun run;
    for (int i = 0; i < 40; ++i) {
        const auto r = wb.runRequest();
        run.cycles += r.cycles;
        run.instructions += r.instructions;
    }
    run.stats = wb.sampler()->stats();
    return run;
}

} // namespace

TEST(Sampled, SingleCoreSampledBytesArePinned)
{
    // Exact figures of one fixed sampled run: any change to the
    // single-core caller (quantum stops at the phase boundary, one
    // CPI read per call) shows up here. Block dispatch is
    // timing-invisible, so both settings give the same figures.
    for (const bool blocks : {true, false}) {
        SCOPED_TRACE(blocks ? "blocks on" : "blocks off");
        const auto run = runPinned(blocks);
        const auto &ss = run.stats;
        EXPECT_EQ(ss.windows, 360u);
        EXPECT_EQ(ss.detailInsts, 433136u);
        EXPECT_EQ(ss.detailCycles, 1375019u);
        EXPECT_EQ(ss.warmupInsts, 108364u);
        EXPECT_EQ(ss.warmupCycles, 387397u);
        EXPECT_EQ(ss.ffInsts, 1440335u);
        EXPECT_EQ(ss.ffResolverTraps, 22u);
        EXPECT_EQ(run.cycles, 8597275u);
        EXPECT_EQ(run.instructions, 1981835u);
    }
}

TEST(Sampled, ExtrapolationTracksExactOnSteadyStateProfiles)
{
    // Tolerances: sampling is an estimator, not an oracle. IPC
    // extrapolates detail-window CPI over fast-forwarded
    // instructions; the instruction streams themselves differ
    // slightly because fast-forward executes the PLT jumps the
    // ABTB elides in exact enhanced mode.
    constexpr double kIpcRelTol = 0.25;
    constexpr double kInstRelTol = 0.10;
    constexpr double kSkipAbsTol = 0.15;

    for (const char *name :
         {"apache", "firefox", "memcached", "mysql"}) {
        SCOPED_TRACE(name);
        const auto wl = workload::profileByName(name);
        const auto mc = enhancedMachine();
        const int warmup = 20, requests = 30;

        const auto exact = runArm(wl, mc, warmup, requests);
        const auto sampled =
            runArm(wl, mc, warmup, requests, testSample());

        // The run actually sampled: several windows, and a
        // non-trivial share of instructions fast-forwarded.
        EXPECT_GE(sampled.registry.counterValue(
                      "dlsim.sampled.windows"),
                  2u);
        EXPECT_GT(sampled.registry.counterValue(
                      "dlsim.sampled.ff_instructions"),
                  0u);

        const double exact_ipc = exact.counters.ipc();
        const double sampled_ipc =
            gauge(sampled, "dlsim.sampled.extrapolated_ipc");
        ASSERT_GT(exact_ipc, 0.0);
        ASSERT_GT(sampled_ipc, 0.0);
        EXPECT_LE(std::abs(sampled_ipc - exact_ipc) / exact_ipc,
                  kIpcRelTol)
            << "exact ipc " << exact_ipc << " sampled ipc "
            << sampled_ipc;

        const auto sampled_insts = sampled.registry.counterValue(
            "dlsim.sampled.total_instructions");
        const double exact_insts =
            static_cast<double>(exact.counters.instructions);
        ASSERT_GT(exact_insts, 0.0);
        EXPECT_LE(std::abs(static_cast<double>(sampled_insts) -
                           exact_insts) /
                      exact_insts,
                  kInstRelTol)
            << "exact insts " << exact.counters.instructions
            << " sampled insts " << sampled_insts;

        // ABTB effectiveness seen in the detail windows tracks the
        // exact run's steady-state skip rate.
        EXPECT_LE(std::abs(skipRate(sampled.counters) -
                           skipRate(exact.counters)),
                  kSkipAbsTol)
            << "exact skip " << skipRate(exact.counters)
            << " sampled skip " << skipRate(sampled.counters);
    }
}

TEST(Sampled, LockstepOracleHoldsAcrossPhaseBoundaries)
{
    const auto wl = workload::apacheProfile();
    workload::MachineConfig mc = enhancedMachine();
    workload::Workbench wb(wl, mc);

    sim::SampleParams sp;
    sp.enabled = true;
    sp.warmup = 200;
    sp.detail = 1000;
    sp.fastforward = 5000;
    wb.setSampling(sp);
    wb.warmup(5);

    check::LockstepChecker checker(wb.core());
    wb.core().setRetireObserver(&checker);
    for (int i = 0; i < 30; ++i)
        wb.runRequest(); // LockstepError on any divergence
    wb.core().setRetireObserver(nullptr);

    const auto &ls = checker.stats();
    EXPECT_GT(ls.checkedRetires, 0u);
    EXPECT_GT(ls.fastForwardSyncs, 0u);

    ASSERT_NE(wb.sampler(), nullptr);
    const auto &ss = wb.sampler()->stats();
    EXPECT_GE(ss.windows, 2u);
    EXPECT_GT(ss.ffInsts, 0u);
    EXPECT_GT(ss.detailInsts, 0u);
}
