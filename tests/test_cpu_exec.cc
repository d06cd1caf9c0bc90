/**
 * @file
 * Functional tests of the CPU core on hand-written programs:
 * instruction semantics, control flow, stack discipline, faults,
 * and performance-counter accounting. Every case runs on each of the
 * core's four run loops — per-instruction or block dispatch, with or
 * without a retire observer attached — and EnginesAgree checks the
 * four against each other counter for counter and retire for retire.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim_fixture.hh"

using namespace dlsim;
using namespace dlsim::isa;
using dlsim::test::Sim;

namespace
{

elf::Module
exeWith(const std::function<void(elf::FunctionBuilder &)> &body)
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(8192);
    body(mb.function("f"));
    return mb.build();
}

/** One of the core's four run loops. */
struct Engine
{
    bool blocks;
    bool observed;
    const char *name;
};

void
PrintTo(const Engine &engine, std::ostream *os)
{
    *os << engine.name;
}

const Engine kEngines[] = {
    {false, false, "PerInst"},
    {false, true, "PerInstObserved"},
    {true, false, "Blocks"},
    {true, true, "BlocksObserved"},
};

/** One retire as the observer saw it, with the post-retire pc. */
struct Retired
{
    cpu::RetireRecord rec;
    Addr postPc = 0;
};

/** Records every retire and resolver trap, in order. */
class RecordingObserver : public cpu::RetireObserver
{
  public:
    void
    onBeginCall(const cpu::MachineState &, Addr, std::uint64_t) override
    {
    }
    void
    onRetire(const cpu::RetireRecord &rec) override
    {
        retires.push_back({rec, rec.state->pc});
    }
    void
    onResolver(const cpu::ResolverRecord &) override
    {
        ++resolverTraps;
    }
    void onExternalWrite(Addr) override {}

    std::vector<Retired> retires;
    std::uint64_t resolverTraps = 0;
};

/** Address of the `index`-th instruction of function `sym`. */
Addr
opVa(Sim &sim, const std::string &sym, int index)
{
    Addr va = sim.image->symbolAddress(sym);
    for (int i = 0; i < index; ++i)
        va += sim.image->decode(va)->inst.size;
    return va;
}

std::string
hex(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** The message of the SimError `fn` throws; fails if none is. */
std::string
simErrorOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const cpu::SimError &e) {
        return e.what();
    }
    ADD_FAILURE() << "no SimError thrown";
    return "";
}

class CpuExec : public ::testing::TestWithParam<Engine>
{
  protected:
    /** Load a program onto a core running this case's engine. */
    Sim &
    load(elf::Module exe)
    {
        cpu::CoreParams params;
        params.blockDispatch = GetParam().blocks;
        sim_ = std::make_unique<Sim>(std::move(exe),
                                     std::vector<elf::Module>{}, params);
        if (GetParam().observed)
            sim_->core->setRetireObserver(&observer_);
        return *sim_;
    }

    void
    TearDown() override
    {
        // Every retire an observed engine published carries the
        // post-retire state: its pc is where execution went next.
        for (const Retired &r : observer_.retires)
            EXPECT_EQ(r.postPc, r.rec.effectivePc) << hex(r.rec.pc);
        if (GetParam().observed && sim_) {
            EXPECT_FALSE(observer_.retires.empty());
        }
    }

    RecordingObserver observer_;
    std::unique_ptr<Sim> sim_;
};

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Engines, CpuExec, ::testing::ValuesIn(kEngines),
    [](const ::testing::TestParamInfo<Engine> &info) {
        return std::string(info.param.name);
    });

TEST_P(CpuExec, AluAndMov)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(1, 20);
        f.movImm(2, 22);
        f.alu(AluKind::Add, RegRet, 1, 2);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f").returnValue, 42u);
}

TEST_P(CpuExec, AluKinds)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(1, 0b1100);
        f.movImm(2, 0b1010);
        f.alu(AluKind::And, 3, 1, 2);   // 0b1000
        f.alu(AluKind::Or, 4, 1, 2);    // 0b1110
        f.alu(AluKind::Xor, 5, 1, 2);   // 0b0110
        f.alu(AluKind::Sub, 6, 1, 2);   // 2
        f.alu(AluKind::Mul, 7, 1, 2);   // 120
        f.aluImm(AluKind::Shr, 8, 1, 2); // 3
        // Pack results: ret = and + or + xor + sub + mul + shr
        f.alu(AluKind::Add, RegRet, 3, 4);
        f.alu(AluKind::Add, RegRet, RegRet, 5);
        f.alu(AluKind::Add, RegRet, RegRet, 6);
        f.alu(AluKind::Add, RegRet, RegRet, 7);
        f.alu(AluKind::Add, RegRet, RegRet, 8);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f").returnValue,
              8u + 14 + 6 + 2 + 120 + 3);
}

TEST_P(CpuExec, LoadStoreRoundTrip)
{
    auto exe = exeWith([](auto &f) {
        f.movDataAddr(4, 0);
        f.movImm(1, 0x1234);
        f.store(1, 4, 64);
        f.load(RegRet, 4, 64);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f").returnValue, 0x1234u);
}

TEST_P(CpuExec, PushPopStackDiscipline)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(1, 7);
        f.movImm(2, 9);
        f.push(1);
        f.push(2);
        f.pop(3); // 9
        f.pop(4); // 7
        f.alu(AluKind::Sub, RegRet, 3, 4);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f").returnValue, 2u);
}

TEST_P(CpuExec, ArgumentsArriveInArgRegs)
{
    auto exe = exeWith([](auto &f) {
        f.alu(AluKind::Add, RegRet, RegArg0, RegArg1);
        f.alu(AluKind::Add, RegRet, RegRet, RegArg2);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f", 1, 2, 3).returnValue, 6u);
}

TEST_P(CpuExec, CondBrTakenAndNot)
{
    auto exe = exeWith([](auto &fb) {
        auto skip = fb.newLabel();
        fb.movImm(RegRet, 1);
        fb.condBr(CondKind::Ne0, RegArg0, skip);
        fb.movImm(RegRet, 2); // only if arg0 == 0
        fb.bind(skip);
        fb.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f", 5).returnValue, 1u);
    EXPECT_EQ(sim.call("f", 0).returnValue, 2u);
}

TEST_P(CpuExec, LoopCountsDown)
{
    auto exe = exeWith([](auto &fb) {
        fb.movImm(RegRet, 0);
        auto top = fb.newLabel();
        fb.bind(top);
        fb.aluImm(AluKind::Add, RegRet, RegRet, 3);
        fb.aluImm(AluKind::Sub, RegArg0, RegArg0, 1);
        fb.condBr(CondKind::Ne0, RegArg0, top);
        fb.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(sim.call("f", 10).returnValue, 30u);
}

TEST_P(CpuExec, LocalCallAndReturn)
{
    elf::ModuleBuilder mb("app");
    auto &leaf = mb.function("leaf");
    leaf.movImm(RegRet, 5);
    leaf.ret();
    auto &f = mb.function("f");
    f.callLocal("leaf");
    f.aluImm(AluKind::Add, RegRet, RegRet, 1);
    f.ret();
    Sim &sim = load(mb.build());
    EXPECT_EQ(sim.call("f").returnValue, 6u);
}

TEST_P(CpuExec, IndirectCallThroughRegister)
{
    elf::ModuleBuilder mb("app");
    auto &leaf = mb.function("leaf");
    leaf.movImm(RegRet, 77);
    leaf.ret();
    auto &f = mb.function("f");
    f.movFuncAddr(5, "leaf");
    f.callReg(5);
    f.ret();
    Sim &sim = load(mb.build());
    EXPECT_EQ(sim.call("f").returnValue, 77u);
}

TEST_P(CpuExec, IndirectCallThroughMemory)
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(4096);
    auto &leaf = mb.function("leaf");
    leaf.movImm(RegRet, 88);
    leaf.ret();
    auto &f = mb.function("f");
    f.movFuncAddr(5, "leaf");
    f.movDataAddr(4, 0);
    f.store(5, 4, 8); // vtable-style slot
    f.callMem(4, 8);
    f.ret();
    Sim &sim = load(mb.build());
    EXPECT_EQ(sim.call("f").returnValue, 88u);
}

TEST_P(CpuExec, HaltStopsRun)
{
    elf::ModuleBuilder mb("app");
    auto &main = mb.function("main");
    main.movImm(RegRet, 3);
    main.halt();
    main.movImm(RegRet, 4); // never executed
    Sim &sim = load(mb.build());
    sim.core->state().pc = sim.image->symbolAddress("main");
    sim.core->run();
    EXPECT_TRUE(sim.core->state().halted);
    EXPECT_EQ(sim.core->state().regs[RegRet], 3u);
}

TEST_P(CpuExec, RunRespectsMaxInsts)
{
    auto exe = exeWith([](auto &fb) {
        auto top = fb.newLabel();
        fb.bind(top);
        fb.jmp(top); // infinite loop
    });
    Sim &sim = load(std::move(exe));
    sim.core->state().pc = sim.image->symbolAddress("f");
    const auto executed = sim.core->run(1000);
    EXPECT_EQ(executed, 1000u);
}

TEST_P(CpuExec, LoadFaultThrows)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(4, 0x900000000);
        f.load(1, 4, 0);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    // The block loop runs the load as a body op mid-block; the
    // message must still name the load, not the block's first op.
    EXPECT_EQ(simErrorOf([&] { sim.call("f"); }),
              "load fault at 0x900000000 (pc " +
                  hex(opVa(sim, "f", 1)) + ")");
}

TEST_P(CpuExec, StoreToTextFaults)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(4, 0x400000);
        f.store(1, 4, 0);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(simErrorOf([&] { sim.call("f"); }),
              "store fault at 0x400000 (pc " +
                  hex(opVa(sim, "f", 1)) + ")");
}

TEST_P(CpuExec, PushFaultNamesThePush)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(1, 5);
        f.movImm(RegSp, 0x900000008);
        f.push(1);
        f.ret();
    });
    Sim &sim = load(std::move(exe));
    EXPECT_EQ(simErrorOf([&] { sim.call("f"); }),
              "store fault at 0x900000000 (pc " +
                  hex(opVa(sim, "f", 2)) + ")");
}

TEST_P(CpuExec, UndecodablePcThrows)
{
    auto exe = exeWith([](auto &f) {
        f.movImm(5, 0x1000); // unmapped/undecodable
        f.jmpReg(5);
    });
    Sim &sim = load(std::move(exe));
    EXPECT_THROW(sim.call("f"), cpu::SimError);
}

TEST_P(CpuExec, CountersCountWhatRan)
{
    auto exe = exeWith([](auto &f) {
        f.movDataAddr(4, 0);
        f.load(1, 4, 0);   // 1 load
        f.store(1, 4, 8);  // 1 store
        f.nop();
        f.ret();           // load (return address)
    });
    Sim &sim = load(std::move(exe));
    sim.core->clearStats();
    const auto r = sim.call("f");
    const auto c = sim.core->counters();
    EXPECT_EQ(r.instructions, 5u);
    EXPECT_EQ(c.instructions, 5u);
    EXPECT_EQ(c.loads, 2u);  // load + ret
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.branches, 1u); // the ret
    EXPECT_GT(c.cycles, 0u);
}

TEST_P(CpuExec, DeterministicAcrossRuns)
{
    auto build = [] {
        return exeWith([](auto &fb) {
            auto top = fb.newLabel();
            fb.bind(top);
            fb.aluImm(AluKind::Add, RegRet, RegRet, 1);
            fb.aluImm(AluKind::Sub, RegArg0, RegArg0, 1);
            fb.condBr(CondKind::Ne0, RegArg0, top);
            fb.ret();
        });
    };
    const auto ra = load(build()).call("f", 100);
    const auto rb = load(build()).call("f", 100);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.returnValue, rb.returnValue);
}

namespace
{

/** Every data opcode, a lazily bound PLT call in a loop (resolver
 *  trap, then ABTB population and substitution), and an explicit
 *  ABTB flush per call. */
elf::Module
mixedExe()
{
    elf::ModuleBuilder mb("app");
    mb.setDataSize(8192);
    auto &f = mb.function("f");
    f.movDataAddr(4, 0);
    f.movImm(5, 0x1234);
    f.nop();
    f.store(5, 4, 64);
    f.load(6, 4, 64);
    f.alu(AluKind::Add, 7, 5, 6); // 0x2468
    f.push(7);
    f.emit(isa::makePushImm(0x55));
    f.pop(8); // 0x55
    f.pop(9); // 0x2468
    f.alu(AluKind::Add, 10, 8, 9);
    f.abtbFlush();
    auto top = f.newLabel();
    f.bind(top);
    f.callExternal("libfn");
    f.aluImm(AluKind::Sub, RegArg2, RegArg2, 1);
    f.condBr(CondKind::Ne0, RegArg2, top);
    f.alu(AluKind::Add, RegRet, RegRet, 10);
    f.ret();
    return mb.build();
}

elf::Module
mixedLib()
{
    elf::ModuleBuilder mb("lib");
    auto &f = mb.function("libfn");
    f.aluImm(AluKind::Add, RegRet, RegArg0, 5);
    f.ret();
    return mb.build();
}

std::vector<std::uint64_t>
flatten(const Retired &r)
{
    const cpu::RetireRecord &c = r.rec;
    return {c.pc,          static_cast<std::uint64_t>(c.op),
            c.isControl,   c.taken,
            c.nextPc,      c.effectivePc,
            c.substituted, c.subTrampoline,
            c.subFunction, c.subGotAddr,
            c.didStore,    c.storeAddr,
            c.storeValue,  c.loadSrc,
            c.cycle,       c.retireIndex,
            r.postPc};
}

/** Everything one engine produced on mixedExe. */
struct Outcome
{
    std::vector<std::uint64_t> calls;    ///< Per call: ret, insts, cycles.
    std::vector<std::uint64_t> counters; ///< Core and skip unit.
    core::SkipUnitStats skip;
    std::vector<std::vector<std::uint64_t>> retires;
    std::uint64_t resolverTraps = 0;
};

Outcome
runMixed(const Engine &engine)
{
    cpu::CoreParams params = dlsim::test::enhancedParams();
    params.blockDispatch = engine.blocks;
    Sim sim(mixedExe(), {mixedLib()}, params);
    RecordingObserver observer;
    if (engine.observed)
        sim.core->setRetireObserver(&observer);
    Outcome out;
    for (int i = 0; i < 4; ++i) {
        const auto r = sim.call("f", 1, 0, 3);
        out.calls.insert(out.calls.end(),
                         {r.returnValue, r.instructions, r.cycles});
    }
    const cpu::PerfCounters c = sim.core->counters();
    const core::SkipUnitStats k = sim.core->skipUnit()->stats();
    out.skip = k;
    out.counters = {c.instructions,     c.cycles,
                    c.trampolineInsts,  c.trampolineJmps,
                    c.skippedTrampolines, c.loads,
                    c.stores,           c.branches,
                    c.mispredicts,      c.condBranches,
                    c.condMispredicts,  c.l1iMisses,
                    c.l1dMisses,        c.btbLookups,
                    c.btbMisses,        c.resolverCalls,
                    k.substitutions,    k.populations,
                    k.storeFlushes,     k.explicitFlushes};
    for (const Retired &r : observer.retires)
        out.retires.push_back(flatten(r));
    out.resolverTraps = observer.resolverTraps;
    return out;
}

} // namespace

TEST(CpuExecEngines, AgreeRetireByRetire)
{
    const Outcome ref = runMixed(kEngines[1]); // per-inst, observed
    ASSERT_EQ(ref.calls[0], 6u + 0x55 + 0x2468);
    ASSERT_EQ(ref.resolverTraps, 1u);
    // The program exercises what the shared retire path must get
    // right: stores, the lazy trap, population, substitution, and
    // the explicit flush.
    ASSERT_GT(ref.skip.substitutions, 0u);
    ASSERT_GT(ref.skip.populations, 0u);
    ASSERT_GT(ref.skip.explicitFlushes, 0u);
    for (const Engine &e : kEngines) {
        SCOPED_TRACE(e.name);
        const Outcome got = runMixed(e);
        EXPECT_EQ(got.calls, ref.calls);
        EXPECT_EQ(got.counters, ref.counters);
        if (e.observed) {
            EXPECT_EQ(got.resolverTraps, ref.resolverTraps);
            ASSERT_EQ(got.retires.size(), ref.retires.size());
            for (std::size_t i = 0; i < ref.retires.size(); ++i)
                ASSERT_EQ(got.retires[i], ref.retires[i])
                    << "retire " << i;
        }
    }
}
