#include "sim/multicore.hh"

#include <cassert>

#include "mem/address_space.hh"
#include "snapshot/serializer.hh"

namespace dlsim::sim
{

MultiCoreSystem::MultiCoreSystem(const MultiCoreParams &params,
                                 linker::Image &image,
                                 linker::DynamicLinker &linker,
                                 isa::Addr main_stack_top)
    : params_(params), image_(image)
{
    assert(params_.numCores >= 1);

    // Carve one stack region per core below the main stack (with a
    // guard page between them), like a threading runtime does.
    isa::Addr stack_top =
        main_stack_top - params_.stackBytes - mem::PageBytes;
    for (std::uint32_t i = 0; i < params_.numCores; ++i) {
        image_.addressSpace().map(
            stack_top - params_.stackBytes, params_.stackBytes,
            mem::PermRead | mem::PermWrite, mem::RegionKind::Stack,
            "tstack" + std::to_string(i));

        auto core = std::make_unique<cpu::Core>(params_.core);
        core->attachProcess(&image_, &linker, /*asid=*/0);
        core->initStack(stack_top);
        cores_.push_back(std::move(core));
        coreStackTops_.push_back(stack_top);

        stack_top -= params_.stackBytes + mem::PageBytes;
    }
    nextStackTop_ = stack_top;

    // The sharer directory tracks lines at one granularity and one
    // bit per core; any other geometry keeps the full broadcast.
    const mem::HierarchyParams &mp = params_.core.mem;
    const std::uint32_t line = mp.l1d.lineBytes;
    if (params_.cacheCoherence &&
        params_.numCores <= mem::SharerDirectory::MaxCores &&
        mp.l1i.lineBytes == line && mp.l2.lineBytes == line &&
        mp.l3.lineBytes == line) {
        sharers_ = std::make_unique<mem::SharerDirectory>(line);
        for (std::uint32_t i = 0; i < params_.numCores; ++i)
            cores_[i]->hierarchy().attachSharerDirectory(
                sharers_.get(), i);
    }

    // Wire write-invalidate coherence: each core's retired stores
    // are snooped by every other core's caches and skip unit. Any
    // attached retire observer (lockstep checker) on a sibling is
    // told too, so its reference memory sees cross-thread stores at
    // the same quantum boundary the timing core does.
    for (std::uint32_t i = 0; i < params_.numCores; ++i) {
        cores_[i]->setStoreSnoopHook([this, i](isa::Addr addr) {
            snoopStore(i, addr);
        });
    }
}

void
MultiCoreSystem::snoopStore(std::uint32_t from, isa::Addr addr)
{
    ++snoopedStores_;
    // Siblings whose data-side caches may hold the line.
    const mem::SharerDirectory::Mask holders =
        sharers_ ? sharers_->claim(addr, from)
                 : mem::SharerDirectory::AllCores;
    for (std::uint32_t j = 0; j < cores_.size(); ++j) {
        if (j == from)
            continue;
        if (params_.cacheCoherence &&
            (!sharers_ || (holders >> j & 1)))
            cores_[j]->hierarchy().invalidateDataLine(addr);
        if (auto *unit = cores_[j]->skipUnit())
            unit->coherenceInvalidate(addr);
        if (auto *obs = cores_[j]->observer())
            obs->onExternalWrite(addr);
    }
}

isa::Addr
MultiCoreSystem::allocThreadStack()
{
    const isa::Addr top = nextStackTop_;
    image_.addressSpace().map(
        top - params_.stackBytes, params_.stackBytes,
        mem::PermRead | mem::PermWrite, mem::RegionKind::Stack,
        "tstack" +
            std::to_string(params_.numCores + extraStacks_));
    ++extraStacks_;
    nextStackTop_ = top - params_.stackBytes - mem::PageBytes;
    return top;
}

std::vector<ThreadResult>
MultiCoreSystem::runOnAll(
    isa::Addr fn,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>
        &args)
{
    assert(!args.empty());
    const std::size_t threads = args.size();

    // Run-to-completion queue: core i's current thread, and the
    // next queued thread index. Each core runs one thread at a time
    // and a finished call leaves the stack balanced, so a queued
    // thread reuses the stack of whatever core frees up first —
    // with M == N this degenerates to the original one-thread-per-
    // core behaviour, byte for byte (no redundant stack resets, no
    // extra mappings).
    constexpr std::size_t None = SIZE_MAX;
    struct Slot
    {
        std::size_t thread = None;
        std::uint64_t insts0 = 0;
        std::uint64_t cycles0 = 0;
    };
    std::vector<Slot> slot(cores_.size());
    std::vector<ThreadResult> results(threads);
    std::size_t next = 0;
    std::size_t live = 0;

    const auto dispatch = [&](std::size_t i) {
        if (next >= threads)
            return;
        const std::size_t t = next++;
        // Queued threads (beyond the initial N) inherit a stack a
        // previous call may have touched; reset sp to the core's
        // stack top so every thread starts from a clean frame.
        if (t >= cores_.size())
            cores_[i]->initStack(coreStackTops_[i]);
        slot[i].thread = t;
        slot[i].insts0 = cores_[i]->counters().instructions;
        slot[i].cycles0 = cores_[i]->counters().cycles;
        cores_[i]->beginCall(fn, args[t].first, args[t].second,
                             static_cast<std::uint64_t>(t));
        ++live;
    };

    for (std::size_t i = 0; i < cores_.size() && next < threads;
         ++i)
        dispatch(i);

    while (live > 0) {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (slot[i].thread == None)
                continue;
            if (!cores_[i]->runQuantum(params_.quantum))
                continue;
            const std::size_t t = slot[i].thread;
            const auto c = cores_[i]->counters();
            results[t].instructions =
                c.instructions - slot[i].insts0;
            results[t].cycles = c.cycles - slot[i].cycles0;
            results[t].returnValue =
                cores_[i]->state().regs[isa::RegRet];
            slot[i].thread = None;
            --live;
            // The freed core picks up the next queued thread; its
            // first quantum runs in the next round, preserving the
            // fixed round-robin interleaving.
            dispatch(i);
        }
    }
    return results;
}

void
MultiCoreSystem::broadcastGotWrite(isa::Addr addr)
{
    for (auto &core : cores_)
        core->onExternalGotWrite(addr);
}

void
MultiCoreSystem::clearStats()
{
    for (auto &core : cores_)
        core->clearStats();
    snoopedStores_ = 0;
}

void
MultiCoreSystem::reconfigure(const cpu::CoreParams &cp)
{
    for (auto &core : cores_) {
        core->setTiming(cp.issueWidth, cp.mispredictPenalty,
                        cp.resolverInsts, cp.resolverCycles,
                        cp.demandFaultCycles);
        core->hierarchy().setLatencies(
            cp.mem.l2Latency, cp.mem.l3Latency, cp.mem.memLatency,
            cp.mem.walkLatency);
        core->resetSkipUnit(cp.skipUnitEnabled, cp.skip);
        core->setBlockDispatch(cp.blockDispatch);
    }
    params_.core = cp;
}

void
MultiCoreSystem::save(snapshot::Serializer &s) const
{
    s.beginStruct("multicore");
    s.u32(static_cast<std::uint32_t>(cores_.size()));
    s.u64(snoopedStores_);
    s.u64(nextStackTop_);
    s.u32(extraStacks_);
    s.endStruct();
    for (const auto &core : cores_)
        core->save(s);
}

void
MultiCoreSystem::load(snapshot::Deserializer &d)
{
    d.enterStruct("multicore");
    d.checkU32(static_cast<std::uint32_t>(cores_.size()),
               "multicore core count");
    snoopedStores_ = d.u64();
    nextStackTop_ = d.u64();
    extraStacks_ = d.u32();
    d.leaveStruct();
    for (auto &core : cores_)
        core->load(d);
}

std::uint64_t
MultiCoreSystem::totalCoherenceFlushes() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_) {
        if (const auto *unit = core->skipUnit())
            total += unit->stats().coherenceFlushes;
    }
    return total;
}

void
MultiCoreSystem::reportMetrics(stats::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    const std::string p = prefix + ".multicore.";
    core::SkipUnitStats sum;
    for (const auto &core : cores_) {
        if (const auto *unit = core->skipUnit()) {
            const auto &st = unit->stats();
            sum.substitutions += st.substitutions;
            sum.storeFlushes += st.storeFlushes;
            sum.coherenceFlushes += st.coherenceFlushes;
            sum.contextSwitchFlushes += st.contextSwitchFlushes;
            sum.explicitFlushes += st.explicitFlushes;
            sum.falsePositiveFlushes += st.falsePositiveFlushes;
        }
    }
    reg.gauge(p + "cores", static_cast<double>(cores_.size()));
    reg.gauge(p + "quantum",
              static_cast<double>(params_.quantum));
    reg.gauge(p + "snooped_stores",
              static_cast<double>(snoopedStores_));
    reg.gauge(p + "substitutions",
              static_cast<double>(sum.substitutions));
    reg.gauge(p + "store_flushes",
              static_cast<double>(sum.storeFlushes));
    reg.gauge(p + "coherence_flushes",
              static_cast<double>(sum.coherenceFlushes));
    reg.gauge(p + "context_switch_flushes",
              static_cast<double>(sum.contextSwitchFlushes));
    reg.gauge(p + "explicit_flushes",
              static_cast<double>(sum.explicitFlushes));
    reg.gauge(p + "false_positive_flushes",
              static_cast<double>(sum.falsePositiveFlushes));
}

} // namespace dlsim::sim
