#include "cpu/core.hh"

#include <sstream>

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "snapshot/serializer.hh"

namespace dlsim::cpu
{

namespace
{

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

} // namespace

Core::Core(const CoreParams &params)
    : params_(params), hierarchy_(params.mem),
      predictor_(params.predictor)
{
    dataLineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.mem.l1d.lineBytes));
    dataFastOk_ = params_.mem.l1d.lineBytes <= mem::PageBytes;
    fetchLineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(params_.mem.l1i.lineBytes));
    fetchFastOk_ = !params_.mem.iPrefetchNextLine &&
                   params_.mem.l1i.lineBytes <= mem::PageBytes;
    if (params_.skipUnitEnabled) {
        skipUnit_ =
            std::make_unique<core::TrampolineSkipUnit>(params_.skip);
    }
    if (!params_.tracePath.empty()) {
        traceWriter_ =
            std::make_unique<trace::TraceWriter>(params_.tracePath);
    }
}

void
Core::attachProcess(linker::Image *image,
                    linker::DynamicLinker *linker, std::uint16_t asid)
{
    image_ = image;
    linker_ = linker;
    asid_ = asid;
    curSlot_ = nullptr;
    if (skipUnit_)
        skipUnit_->setAsid(asid);
}

void
Core::contextSwitch(linker::Image *image,
                    linker::DynamicLinker *linker, std::uint16_t asid)
{
    if (!params_.asidTlbRetention)
        hierarchy_.flushTlbs();
    predictor_.contextSwitch();
    if (skipUnit_)
        skipUnit_->contextSwitch();
    attachProcess(image, linker, asid);
}

void
Core::setState(const MachineState &state)
{
    state_ = state;
    curSlot_ = nullptr;
}

void
Core::initStack(Addr stack_top)
{
    state_.regs[isa::RegSp] = stack_top - 64;
}

// The leaf functions of the block dispatcher's body loop are called
// half a billion times on the fig5 grid; the call overhead alone is
// measurable, and -O2 declines to inline them on size grounds. Force
// the issue — each has only a handful of call sites.
#if defined(__GNUC__)
#define DLSIM_HOT_INLINE __attribute__((always_inline)) inline
#else
#define DLSIM_HOT_INLINE inline
#endif

DLSIM_HOT_INLINE std::uint64_t
Core::readData(Addr addr)
{
    ++cnt_.loads;
    // Verified-touch memo probe (see the member doc): a hit is
    // re-proven by key compare inside dataRepeatAt() before
    // anything is touched, so the fast path is exact with no
    // invalidation protocol, and a miss costs one failed compare
    // before the full walk refills the slot.
    const Addr line = addr >> dataLineShift_;
    auto &memo = dataMemo_[line & (RepeatMemoSlots - 1)];
    if (dataFastOk_ && memo.line == line &&
        hierarchy_.dataRepeatAt(memo.ref, addr, asid_)) {
        // Verified dtlb+l1d hit: no extra cycles.
    } else {
        cnt_.cycles += hierarchy_.data(addr, asid_).extraCycles;
        memo = {line, hierarchy_.dataRef()};
    }
    mem::MemFault fault = mem::MemFault::None;
    std::uint64_t value;
    if (params_.demandPaging) {
        auto &as = image_->addressSpace();
        const std::uint64_t before = as.demandFaults();
        value = as.read64(addr, fault);
        chargeDemandFaults(before);
    } else {
        value = image_->addressSpace().read64(addr, fault);
    }
    if (fault != mem::MemFault::None) {
        throw SimError("load fault at " + hexAddr(addr) + " (pc " +
                       hexAddr(state_.pc) + ")");
    }
    return value;
}

DLSIM_HOT_INLINE void
Core::writeData(Addr addr, std::uint64_t value)
{
    ++cnt_.stores;
    // Verified-touch memo probe; see readData for the argument.
    const Addr line = addr >> dataLineShift_;
    auto &memo = dataMemo_[line & (RepeatMemoSlots - 1)];
    if (dataFastOk_ && memo.line == line &&
        hierarchy_.dataRepeatAt(memo.ref, addr, asid_)) {
        // Verified dtlb+l1d hit: no extra cycles.
    } else {
        cnt_.cycles += hierarchy_.data(addr, asid_).extraCycles;
        memo = {line, hierarchy_.dataRef()};
    }
    mem::MemFault fault;
    if (params_.demandPaging) {
        auto &as = image_->addressSpace();
        const std::uint64_t before = as.demandFaults();
        fault = as.write64(addr, value);
        chargeDemandFaults(before);
    } else {
        fault = image_->addressSpace().write64(addr, value);
    }
    if (fault != mem::MemFault::None) {
        throw SimError("store fault at " + hexAddr(addr) + " (pc " +
                       hexAddr(state_.pc) + ")");
    }
    if (storeSnoopHook_)
        storeSnoopHook_(addr);
}

DLSIM_HOT_INLINE bool
Core::condTaken(isa::CondKind cond, std::uint64_t value)
{
    switch (cond) {
      case isa::CondKind::Eq0:
        return value == 0;
      case isa::CondKind::Ne0:
        return value != 0;
      case isa::CondKind::Lt0:
        return static_cast<std::int64_t>(value) < 0;
      case isa::CondKind::Ge0:
        return static_cast<std::int64_t>(value) >= 0;
    }
    return false;
}

DLSIM_HOT_INLINE std::uint64_t
Core::aluEval(isa::AluKind kind, std::uint64_t a, std::uint64_t b)
{
    switch (kind) {
      case isa::AluKind::Add:
        return a + b;
      case isa::AluKind::Sub:
        return a - b;
      case isa::AluKind::And:
        return a & b;
      case isa::AluKind::Or:
        return a | b;
      case isa::AluKind::Xor:
        return a ^ b;
      case isa::AluKind::Mul:
        return a * b;
      case isa::AluKind::Shr:
        return a >> (b & 63);
    }
    return 0;
}

void
Core::serviceResolver()
{
    auto &regs = state_.regs;

    // Stack on entry: [sp]=module id (PLT0), [sp+8]=relocation
    // index (PLT entry), [sp+16]=original return address.
    const auto module_id =
        static_cast<std::uint32_t>(readData(regs[isa::RegSp]));
    regs[isa::RegSp] += 8;
    const auto reloc_idx =
        static_cast<std::uint32_t>(readData(regs[isa::RegSp]));
    regs[isa::RegSp] += 8;

    const auto result = linker_->resolve(module_id, reloc_idx);

    // The GOT update is an architectural store: the D-cache sees it
    // and — crucially — the bloom filter snoops it, flushing the
    // ABTB exactly once per symbol, at startup (§3.2).
    writeData(result.gotAddr, result.value);
    if (traceWriter_) {
        trace::TraceEvent ev;
        ev.kind = trace::EventKind::Store;
        ev.pc = linker::ResolverVa;
        ev.addr = result.gotAddr;
        traceWriter_->append(ev);
    }
    if (skipUnit_) {
        skipUnit_->retireStore(result.gotAddr);
        // §3.4 alternate implementation: no bloom filter, so the
        // (modified) dynamic linker executes the architecturally
        // visible flush after every GOT update.
        if (params_.skip.explicitInvalidation)
            skipUnit_->explicitFlush();
    }

    // Synthetic cost of the symbol hash lookup in ld.so.
    cnt_.instructions += params_.resolverInsts;
    cnt_.cycles += params_.resolverCycles;
    ++cnt_.resolverCalls;

    state_.pc = result.target;
    curSlot_ = nullptr;

    if (observer_) {
        ResolverRecord rec;
        rec.moduleId = module_id;
        rec.relocIdx = reloc_idx;
        rec.gotAddr = result.gotAddr;
        rec.value = result.value;
        rec.target = result.target;
        rec.cycle = cnt_.cycles;
        rec.retireIndex = cnt_.instructions;
        rec.state = &state_;
        observer_->onResolver(rec);
    }
}

DLSIM_HOT_INLINE Core::StoreEffect
Core::execDataOp(const isa::Instruction &inst, Addr pc)
{
    auto &regs = state_.regs;
    StoreEffect st;
    // Memory ops set state_.pc first so a fault's diagnostic names
    // the faulting op whichever loop is running.
    switch (inst.op) {
      case isa::Opcode::Nop:
        break;
      case isa::Opcode::IntAlu: {
        const std::uint64_t b = inst.src2 == isa::NoReg
                                    ? static_cast<std::uint64_t>(
                                          inst.imm)
                                    : regs[inst.src2];
        regs[inst.dst] = aluEval(inst.alu, regs[inst.src1], b);
        break;
      }
      case isa::Opcode::MovImm:
        regs[inst.dst] = static_cast<std::uint64_t>(inst.imm);
        break;
      case isa::Opcode::Load:
        state_.pc = pc;
        regs[inst.dst] = readData(memAddr(inst));
        break;
      case isa::Opcode::Store:
        state_.pc = pc;
        st = {true, memAddr(inst), regs[inst.src1]};
        writeData(st.addr, st.value);
        break;
      case isa::Opcode::Push:
      case isa::Opcode::PushImm:
        state_.pc = pc;
        regs[isa::RegSp] -= 8;
        st = {true, regs[isa::RegSp],
              inst.op == isa::Opcode::Push
                  ? regs[inst.src1]
                  : static_cast<std::uint64_t>(inst.imm)};
        writeData(st.addr, st.value);
        break;
      case isa::Opcode::Pop:
        state_.pc = pc;
        regs[inst.dst] = readData(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        break;
      case isa::Opcode::AbtbFlush:
        if (skipUnit_)
            skipUnit_->explicitFlush();
        break;
      default:
        // Control transfers and Halt: stepT executes them itself,
        // and the block builder never places them in a body.
        break;
    }
    return st;
}

DLSIM_HOT_INLINE void
Core::retireToSkipUnit(const StoreEffect &st, bool is_ctl,
                       isa::Opcode op, Addr next, Addr load_src)
{
    if (!skipUnit_)
        return;
    if (st.did)
        skipUnit_->retireStore(st.addr);
    if (is_ctl)
        skipUnit_->retireControl(op, next, load_src);
    else if (!st.did)
        skipUnit_->retireOther();
}

void
Core::notifyRetire(RetireRecord rec, const StoreEffect &st)
{
    rec.didStore = st.did;
    rec.storeAddr = st.addr;
    rec.storeValue = st.value;
    rec.cycle = cnt_.cycles;
    rec.retireIndex = cnt_.instructions;
    rec.state = &state_;
    observer_->onRetire(rec);
}

template <bool Observed>
void
Core::stepT()
{
    if (state_.pc == linker::ResolverVa) {
        serviceResolver();
        return;
    }

    if (!curSlot_ || curSlot_->va != state_.pc)
        curSlot_ = image_->decode(state_.pc);
    if (!curSlot_)
        throw SimError("undecodable pc " + hexAddr(state_.pc));

    const linker::Slot &slot = *curSlot_;
    const isa::Instruction &inst = slot.inst;
    const Addr pc = state_.pc;
    const Addr fallthrough = pc + inst.size;

    // Demand-paged library text: the first fetch of a page takes a
    // first-touch fault (charged as pure latency) before the I-side
    // structures see the access.
    if (params_.demandPaging)
        demandTouchFetch(pc);

    // Fetch. Base throughput is issueWidth instructions per
    // cycle; miss penalties serialise on top.
    if (fetchRepeatHint_) {
        // The block dispatcher proved this fetch repeats the line
        // of the immediately preceding one (see the terminator
        // hand-off in runBlockLoopT): guaranteed itlb+l1i hit,
        // byte-identical counters to the full fetch() at a fraction
        // of the cost.
        fetchRepeatHint_ = false;
        hierarchy_.fetchRepeat();
    } else {
        // Otherwise probe the I-side verified-touch memo (exact for
        // the same reason as in readData — fetchRepeatAt re-proves
        // the hit by key compare before touching anything).
        const Addr fline = pc >> fetchLineShift_;
        auto &memo = fetchMemo_[fline & (RepeatMemoSlots - 1)];
        if (fetchFastOk_ && memo.line == fline &&
            hierarchy_.fetchRepeatAt(memo.ref, pc, asid_)) {
            // Verified itlb+l1i hit: no extra cycles.
        } else {
            cnt_.cycles += hierarchy_.fetch(pc, asid_).extraCycles;
            memo = {fline, hierarchy_.fetchRef()};
        }
    }
    if (++cnt_.issueSlot >= params_.issueWidth) {
        ++cnt_.cycles;
        cnt_.issueSlot = 0;
    }
    ++cnt_.instructions;
    if (slot.flags & linker::FlagPlt) {
        ++cnt_.trampolineInsts;
        if (slot.flags & linker::FlagPltJmp) {
            ++cnt_.trampolineJmps;
            if (params_.profileTrampolines)
                ++trampolineCounts_[pc];
        }
    }

    const bool is_ctl = isa::isControl(inst.op);
    Addr predicted = fallthrough;
    if (is_ctl)
        predicted = predictor_.predictNext(inst, pc);

    auto &regs = state_.regs;
    Addr next = fallthrough;
    bool redirected = false;
    Addr load_src = 0;
    StoreEffect st;

    switch (inst.op) {
      case isa::Opcode::CallRel:
      case isa::Opcode::CallIndReg:
      case isa::Opcode::CallIndMem: {
        if (inst.op == isa::Opcode::CallRel) {
            next = fallthrough + static_cast<Addr>(inst.imm);
        } else if (inst.op == isa::Opcode::CallIndReg) {
            next = regs[inst.src1];
        } else {
            load_src = memAddr(inst);
            next = readData(load_src);
        }
        regs[isa::RegSp] -= 8;
        st = {true, regs[isa::RegSp], fallthrough};
        writeData(st.addr, st.value);
        redirected = true;
        break;
      }
      case isa::Opcode::JmpRel:
        next = fallthrough + static_cast<Addr>(inst.imm);
        redirected = true;
        break;
      case isa::Opcode::JmpIndReg:
        next = regs[inst.src1];
        redirected = true;
        break;
      case isa::Opcode::JmpIndMem:
        load_src = memAddr(inst);
        next = readData(load_src);
        redirected = true;
        break;
      case isa::Opcode::CondBr: {
        ++cnt_.condBranches;
        if (condTaken(inst.cond, regs[inst.src1])) {
            next = fallthrough + static_cast<Addr>(inst.imm);
            redirected = true;
        }
        break;
      }
      case isa::Opcode::Ret:
        next = readData(regs[isa::RegSp]);
        regs[isa::RegSp] += 8;
        redirected = true;
        break;
      case isa::Opcode::Halt:
        state_.halted = true;
        break;
      default:
        st = execDataOp(inst, pc);
        break;
    }

    // Branch resolution, with the ABTB consulted on the
    // architecturally resolved target (§3.2 back end).
    Addr effective = next;
    bool substituted = false;
    core::AbtbEntry sub_entry;
    if (is_ctl) {
        if (skipUnit_ && redirected) {
            if (const auto entry =
                    skipUnit_->substituteTarget(next)) {
                if (params_.checkSkips) {
                    const auto got_value =
                        image_->addressSpace().peek64(
                            entry->gotAddr);
                    if (got_value != entry->function) {
                        throw SimError(
                            "ABTB checker: stale entry for "
                            "trampoline " +
                            hexAddr(entry->trampoline));
                    }
                }
                effective = entry->function;
                substituted = true;
                sub_entry = *entry;
                ++cnt_.skippedTrampolines;
            }
        }
        ++cnt_.branches;
        if (predicted != effective) {
            ++cnt_.mispredicts;
            cnt_.cycles += params_.mispredictPenalty;
            if (inst.op == isa::Opcode::CondBr)
                ++cnt_.condMispredicts;
        }
        predictor_.resolve(inst, pc, redirected, effective);
    }

    retireToSkipUnit(st, is_ctl, inst.op, next, load_src);

    // Retire-stream tracing (the Pin-collection analogue); same
    // store-before-control ordering as the live hooks.
    if (traceWriter_) {
        if (st.did) {
            trace::TraceEvent ev;
            ev.kind = trace::EventKind::Store;
            ev.pc = pc;
            ev.addr = st.addr;
            traceWriter_->append(ev);
        }
        trace::TraceEvent ev;
        if (is_ctl) {
            ev.kind = trace::EventKind::Control;
            ev.op = inst.op;
            ev.flags = slot.flags;
            ev.taken = redirected ? 1 : 0;
            ev.pc = pc;
            ev.addr = next;
            ev.loadSrc = load_src;
        } else {
            ev.kind = trace::EventKind::Other;
            ev.op = inst.op;
            ev.pc = pc;
        }
        traceWriter_->append(ev);
    }

    // Call-site profiler (Pin-tool stand-in): record each PLT
    // trampoline's entering instruction and resolved target.
    if (params_.collectCallSiteTrace && is_ctl) {
        if ((slot.flags & linker::FlagPltJmp) && hasLastCtl_) {
            const linker::Slot *target_slot = image_->decode(next);
            const bool still_lazy =
                next == linker::ResolverVa ||
                (target_slot &&
                 (target_slot->flags & linker::FlagPlt));
            if (!still_lazy &&
                tracedSites_.insert(lastCtlVa_).second) {
                trace_.push_back({lastCtlVa_, pc, next,
                                  !lastCtlWasCall_});
            }
        }
        hasLastCtl_ = true;
        lastCtlVa_ = pc;
        lastCtlWasCall_ = isa::isCall(inst.op);
    }

    // Advance.
    if (is_ctl && (redirected || effective != fallthrough)) {
        // Taken transfer: the fetch group ends here.
        if (cnt_.issueSlot != 0) {
            ++cnt_.cycles;
            cnt_.issueSlot = 0;
        }
        state_.pc = effective;
        curSlot_ = nullptr;
    } else {
        state_.pc = fallthrough;
        curSlot_ = image_->nextSlot(curSlot_);
    }

    if constexpr (Observed) {
        // Non-control ops leave next == effective == fallthrough.
        notifyRetire({.pc = pc,
                      .op = inst.op,
                      .isControl = is_ctl,
                      .taken = redirected,
                      .nextPc = next,
                      .effectivePc = effective,
                      .substituted = substituted,
                      .subTrampoline = sub_entry.trampoline,
                      .subFunction = sub_entry.function,
                      .subGotAddr = sub_entry.gotAddr,
                      .loadSrc = load_src},
                     st);
    }
}

template <bool Observed>
DLSIM_HOT_INLINE void
Core::execBodyOp(const linker::Image::BlockOp &op, bool repeat_line)
{
    const isa::Instruction &inst = op.inst;
    const Addr pc = op.va;

    // First-touch fault of demand-paged text, as in stepT. Cycle
    // additions commute with the unobserved loop's batched
    // bookkeeping, so block-end counters stay byte-identical.
    if (params_.demandPaging)
        demandTouchFetch(pc);

    if constexpr (Observed) {
        // Fetch: the repeat-line case is a guaranteed itlb+l1i hit
        // (see Hierarchy::fetchRepeat), which costs zero extra
        // cycles — the same zero a full fetch() would return for it.
        if (repeat_line)
            hierarchy_.fetchRepeat();
        else
            cnt_.cycles += hierarchy_.fetch(pc, asid_).extraCycles;
        if (++cnt_.issueSlot >= params_.issueWidth) {
            ++cnt_.cycles;
            cnt_.issueSlot = 0;
        }
        ++cnt_.instructions;
        // Body ops can carry FlagPlt (the ARM prologue ALU ops and
        // the x86 lazy-path pushes) but never FlagPltJmp: the PLT
        // jump is a control transfer, i.e. a block terminator.
        if (op.flags & linker::FlagPlt)
            ++cnt_.trampolineInsts;
    }

    const StoreEffect st = execDataOp(inst, pc);
    // Retire hooks stay per-op: the bloom filter and the ABTB's
    // store snooping are order-sensitive.
    retireToSkipUnit(st, false, inst.op, 0, 0);

    if constexpr (Observed) {
        const Addr fallthrough = pc + inst.size;
        state_.pc = fallthrough;
        notifyRetire({.pc = pc,
                      .op = inst.op,
                      .nextPc = fallthrough,
                      .effectivePc = fallthrough},
                     st);
    }
}

template <bool Observed>
std::uint64_t
Core::runLoopT(std::uint64_t max_insts)
{
    const std::uint64_t start = cnt_.instructions;
    while (!state_.halted && state_.pc != MagicReturnVa &&
           cnt_.instructions - start < max_insts) {
        stepT<Observed>();
    }
    return cnt_.instructions - start;
}

template <bool Observed>
std::uint64_t
Core::runBlockLoopT(std::uint64_t max_insts)
{
    const std::uint64_t start = cnt_.instructions;

    // Same-line repeat fetches can skip the full hierarchy walk:
    // lines are aligned power-of-two runs, so with lineBytes <=
    // PageBytes a same-line pc is also same-page, and nothing
    // between two body-op fetches touches the I-side structures —
    // body ops access only the D side. The next-line prefetcher
    // would break that guarantee (it fills L1I between fetches), so
    // it disables the fast path.
    const mem::HierarchyParams &mp = hierarchy_.params();
    const bool fast_fetch =
        !mp.iPrefetchNextLine && mp.l1i.lineBytes <= mem::PageBytes;
    const std::uint32_t line_shift = static_cast<std::uint32_t>(
        std::countr_zero(mp.l1i.lineBytes));

    // L1I line of the most recent instruction fetch, carried across
    // block boundaries by the unobserved fast path: a body op on the
    // same line as the previous fetch — even the previous block's
    // terminator — is a guaranteed repeat hit. Reset to the no-line
    // sentinel whenever anything other than a plain fetch may have
    // touched the I side.
    Addr last_line = ~Addr{0};

    // Carried block index: deterministic control edges (fall-through
    // and static branch targets) memoize their successor block in
    // the Block itself, so steady-state dispatch follows an index
    // instead of re-probing the hash table. Negative means "probe by
    // pc". Memos are stored in blocks_ and die with it on any flush;
    // block indices are stable otherwise (the cache only appends).
    std::int32_t bi = -1;

    while (!state_.halted && state_.pc != MagicReturnVa &&
           cnt_.instructions - start < max_insts) {
        if (state_.pc == linker::ResolverVa) {
            // May patch code and flush the block cache; never hold
            // block pointers or indices across it.
            serviceResolver();
            last_line = ~Addr{0};
            bi = -1;
            continue;
        }
        if (bi < 0)
            bi = image_->blockIndex(state_.pc);
        if (bi < 0) {
            // Not decodable: take the per-instruction step so the
            // "undecodable pc" error path is byte-identical.
            curSlot_ = nullptr;
            stepT<Observed>();
            last_line = ~Addr{0};
            continue;
        }
        const linker::Image::Block &b = image_->block(bi);
        const linker::Image::BlockOp *ops = image_->blockOps(b);
        const std::uint64_t remaining =
            max_insts - (cnt_.instructions - start);
        const std::uint32_t body = b.bodyOps;
        const std::uint32_t n =
            remaining < body ? static_cast<std::uint32_t>(remaining)
                             : body;
        if constexpr (Observed) {
            for (std::uint32_t i = 0; i < n; ++i) {
                const bool repeat =
                    fast_fetch && i != 0 &&
                    ((ops[i].va ^ ops[i - 1].va) >> line_shift) == 0;
                execBodyOp<true>(ops[i], repeat);
            }
        } else {
            // Bulk bookkeeping for the whole straight-line run. Each
            // op does `if (++issueSlot >= W) { ++cycles; slot = 0; }`,
            // so n ops from slot s wrap floor((s+n)/W) times and land
            // on (s+n) mod W; cycle additions commute, and nothing
            // unobserved reads the counters mid-block, so the block-
            // end totals are byte-identical to the per-op sequence.
            const std::uint64_t slots = cnt_.issueSlot + n;
            cnt_.cycles += slots / params_.issueWidth;
            cnt_.issueSlot = static_cast<std::uint32_t>(
                slots % params_.issueWidth);
            cnt_.instructions += n;
            if (n == body) {
                cnt_.trampolineInsts += b.pltBodyOps;
            } else {
                for (std::uint32_t i = 0; i < n; ++i) {
                    if (ops[i].flags & linker::FlagPlt)
                        ++cnt_.trampolineInsts;
                }
            }
            if (!fast_fetch) {
                for (std::uint32_t i = 0; i < n; ++i) {
                    cnt_.cycles +=
                        hierarchy_.fetch(ops[i].va, asid_)
                            .extraCycles;
                    execBodyOp<false>(ops[i], false);
                }
            } else {
                // Body VAs are sequential, so same-line ops form
                // runs: one full fetch per new line, then a single
                // batched repeat for the rest of the run.
                std::uint32_t i = 0;
                while (i < n) {
                    const Addr line = ops[i].va >> line_shift;
                    if (line != last_line) {
                        // Line transition: probe the I-side
                        // verified-touch memo first — loop bodies
                        // re-walk the same short cycle of lines, so
                        // the full walk is usually provably a hit.
                        auto &memo =
                            fetchMemo_[line &
                                       (RepeatMemoSlots - 1)];
                        if (memo.line == line &&
                            hierarchy_.fetchRepeatAt(
                                memo.ref, ops[i].va, asid_)) {
                            // Verified itlb+l1i hit: no cycles.
                        } else {
                            cnt_.cycles +=
                                hierarchy_.fetch(ops[i].va, asid_)
                                    .extraCycles;
                            memo = {line, hierarchy_.fetchRef()};
                        }
                        last_line = line;
                        execBodyOp<false>(ops[i], false);
                        ++i;
                    } else {
                        std::uint32_t j = i + 1;
                        while (j < n &&
                               (ops[j].va >> line_shift) == line)
                            ++j;
                        hierarchy_.fetchRepeatN(j - i);
                        for (; i < j; ++i)
                            execBodyOp<false>(ops[i], false);
                    }
                }
            }
        }
        if (n < body) {
            // Quantum boundary mid-body: resume at the next op,
            // exactly where the per-instruction loop would stop.
            state_.pc = ops[n].va;
            curSlot_ = nullptr;
            break;
        }
        if (!b.hasTerm) {
            // Capped block or run off decoded code: fall through.
            state_.pc = b.endVa;
            curSlot_ = nullptr;
            std::int32_t succ = b.succFall;
            if (succ < 0) {
                succ = image_->blockIndex(b.endVa);
                if (succ >= 0)
                    image_->memoSuccFall(bi, succ);
            }
            bi = succ;
            continue;
        }
        if (remaining == body) {
            // Quantum boundary right before the terminator.
            state_.pc = b.endVa;
            curSlot_ = nullptr;
            break;
        }
        // Terminator: delegate to stepT with the cursor preset so
        // prediction, ABTB substitution, skip checking, and
        // mispredict accounting run unchanged. Copy what we need
        // first — stepT may observe/throw, and block storage must
        // not be assumed stable past this dispatch.
        const Addr term_va = b.endVa;
        const std::uint32_t term_slot = b.termSlot;
        // Classify the terminator's deterministic edges up front so
        // the landing pc can be matched against them after the step
        // (an ABTB substitution or resolver redirect lands anywhere
        // else and simply falls back to a probe). Copy before stepT:
        // block storage must not be assumed stable across it.
        const isa::Instruction &term = ops[body].inst;
        const isa::Opcode term_op = term.op;
        const Addr term_fall = term_va + term.size;
        const Addr term_target =
            term_fall + static_cast<Addr>(term.imm);
        const bool term_static = term_op == isa::Opcode::JmpRel ||
                                 term_op == isa::Opcode::CallRel ||
                                 term_op == isa::Opcode::CondBr;
        const std::int32_t memo_fall = b.succFall;
        const std::int32_t memo_taken = b.succTaken;
        state_.pc = term_va;
        curSlot_ = image_->slotAt(term_slot);
        // When the terminator shares an L1I line with the last body
        // op — the previous instruction fetched, in both the
        // observed and unobserved body paths — its fetch is a
        // guaranteed repeat: body ops touch only the D side, so the
        // I-side repeat pointers still name that line (ready() turns
        // false if anything unusual intervened). Hand stepT the
        // proof; it takes fetchRepeat() instead of the full walk.
        fetchRepeatHint_ =
            fast_fetch && body != 0 &&
            ((ops[body - 1].va ^ term_va) >> line_shift) == 0 &&
            hierarchy_.fetchRepeatReady();
        stepT<Observed>();
        // stepT's last I-side operation is its fetch of term_va (an
        // ABTB substitution adds no fetch), so the repeat memo stays
        // valid across the block boundary.
        last_line = term_va >> line_shift;
        if (term_op == isa::Opcode::CondBr &&
            state_.pc == term_fall) {
            std::int32_t succ = memo_fall;
            if (succ < 0) {
                succ = image_->blockIndex(state_.pc);
                if (succ >= 0)
                    image_->memoSuccFall(bi, succ);
            }
            bi = succ;
        } else if (term_static && state_.pc == term_target) {
            std::int32_t succ = memo_taken;
            if (succ < 0) {
                succ = image_->blockIndex(state_.pc);
                if (succ >= 0)
                    image_->memoSuccTaken(bi, succ);
            }
            bi = succ;
        } else {
            bi = -1;
        }
    }
    return cnt_.instructions - start;
}

std::uint64_t
Core::run(std::uint64_t max_insts)
{
    // The D-side memo deliberately survives run() boundaries:
    // every hit is re-verified by key compare against the current
    // ASID and cache/TLB contents, so context switches, snapshot
    // restores, and cross-quantum invalidations are all caught by
    // the verification itself (see DataMemo).
    // Trace recording logs an event per retired op, so it keeps the
    // per-instruction loop; otherwise block dispatch is a pure
    // speed-up with identical observables.
    if (params_.blockDispatch && !traceWriter_) {
        return observer_ ? runBlockLoopT<true>(max_insts)
                         : runBlockLoopT<false>(max_insts);
    }
    return observer_ ? runLoopT<true>(max_insts)
                     : runLoopT<false>(max_insts);
}

void
Core::beginCall(Addr function, std::uint64_t arg0,
                std::uint64_t arg1, std::uint64_t arg2)
{
    state_.halted = false;
    state_.regs[isa::RegArg0] = arg0;
    state_.regs[isa::RegArg1] = arg1;
    state_.regs[isa::RegArg2] = arg2;

    state_.regs[isa::RegSp] -= 8;
    image_->addressSpace().poke64(state_.regs[isa::RegSp],
                                  MagicReturnVa);
    state_.pc = function;
    curSlot_ = nullptr;

    if (observer_) {
        observer_->onBeginCall(state_, state_.regs[isa::RegSp],
                               MagicReturnVa);
    }
}

bool
Core::runQuantum(std::uint64_t max_insts)
{
    run(max_insts);
    return state_.halted || state_.pc == MagicReturnVa;
}

Core::CallResult
Core::callFunction(Addr function, std::uint64_t arg0,
                   std::uint64_t arg1, std::uint64_t arg2)
{
    beginCall(function, arg0, arg1, arg2);

    const std::uint64_t insts0 = cnt_.instructions;
    const std::uint64_t cycles0 = cnt_.cycles;
    run(UINT64_MAX);

    CallResult result;
    result.instructions = cnt_.instructions - insts0;
    result.cycles = cnt_.cycles - cycles0;
    result.returnValue = state_.regs[isa::RegRet];
    return result;
}

PerfCounters
Core::counters() const
{
    PerfCounters c;
    c.instructions = cnt_.instructions;
    c.cycles = cnt_.cycles;
    c.trampolineInsts = cnt_.trampolineInsts;
    c.trampolineJmps = cnt_.trampolineJmps;
    c.skippedTrampolines = cnt_.skippedTrampolines;
    c.loads = cnt_.loads;
    c.stores = cnt_.stores;
    c.branches = cnt_.branches;
    c.mispredicts = cnt_.mispredicts;
    c.condBranches = cnt_.condBranches;
    c.condMispredicts = cnt_.condMispredicts;
    c.l1iMisses = hierarchy_.l1i().misses();
    c.l1dMisses = hierarchy_.l1d().misses();
    c.l2Misses = hierarchy_.l2().misses();
    c.l3Misses = hierarchy_.l3().misses();
    c.itlbMisses = hierarchy_.itlb().misses();
    c.dtlbMisses = hierarchy_.dtlb().misses();
    c.btbLookups = predictor_.btb().lookups();
    c.btbMisses = predictor_.btb().misses();
    c.resolverCalls = cnt_.resolverCalls;
    c.demandFaults = cnt_.demandFaults;
    return c;
}

void
Core::clearStats()
{
    const std::uint32_t slot = cnt_.issueSlot;
    cnt_ = CoreCounters{};
    cnt_.issueSlot = slot;
    hierarchy_.clearStats();
    predictor_.clearStats();
    if (skipUnit_)
        skipUnit_->clearStats();
}

void
Core::reportMetrics(stats::MetricsRegistry &reg,
                    const std::string &prefix) const
{
    counters().reportMetrics(reg, prefix + ".cpu");
    hierarchy_.reportMetrics(reg, prefix + ".cpu");
    predictor_.reportMetrics(reg, prefix + ".cpu");
    if (skipUnit_)
        skipUnit_->reportMetrics(reg, prefix + ".core");
}

void
Core::clearCallSiteTrace()
{
    trace_.clear();
    tracedSites_.clear();
    hasLastCtl_ = false;
}

void
Core::onExternalGotWrite(Addr addr)
{
    if (skipUnit_)
        skipUnit_->coherenceInvalidate(addr);
    // The write lands in this process's address space, so the stale
    // copy to drop is this ASID's — a targeted invalidation, not a
    // physical snoop.
    hierarchy_.invalidateDataLine(addr, asid_);
    if (observer_)
        observer_->onExternalWrite(addr);
}

void
Core::closeTrace()
{
    if (traceWriter_)
        traceWriter_->close();
}


void
Core::save(snapshot::Serializer &s) const
{
    s.beginStruct("cpu");
    for (const std::uint64_t r : state_.regs)
        s.u64(r);
    s.u64(state_.pc);
    s.boolean(state_.halted);
    s.u32(cnt_.issueSlot);
    s.u16(asid_);
    s.u64(cnt_.instructions);
    s.u64(cnt_.cycles);
    s.u64(cnt_.trampolineInsts);
    s.u64(cnt_.trampolineJmps);
    s.u64(cnt_.skippedTrampolines);
    s.u64(cnt_.loads);
    s.u64(cnt_.stores);
    s.u64(cnt_.branches);
    s.u64(cnt_.mispredicts);
    s.u64(cnt_.condBranches);
    s.u64(cnt_.condMispredicts);
    s.u64(cnt_.resolverCalls);
    s.u64(cnt_.demandFaults);
    // Profiler maps/sets are unordered; emit sorted for stable
    // bytes.
    std::vector<std::pair<Addr, std::uint64_t>> counts(
        trampolineCounts_.begin(), trampolineCounts_.end());
    std::sort(counts.begin(), counts.end());
    s.u64(counts.size());
    for (const auto &[va, n] : counts) {
        s.u64(va);
        s.u64(n);
    }
    s.u64(trace_.size());
    for (const linker::CallSiteRecord &r : trace_) {
        s.u64(r.callVa);
        s.u64(r.trampolineVa);
        s.u64(r.targetVa);
        s.boolean(r.tailJump);
    }
    std::vector<Addr> traced(tracedSites_.begin(),
                             tracedSites_.end());
    std::sort(traced.begin(), traced.end());
    s.u64(traced.size());
    for (const Addr va : traced)
        s.u64(va);
    s.boolean(hasLastCtl_);
    s.u64(lastCtlVa_);
    s.boolean(lastCtlWasCall_);
    s.boolean(skipUnit_ != nullptr);
    s.endStruct();
    hierarchy_.save(s);
    predictor_.save(s);
    if (skipUnit_)
        skipUnit_->save(s);
}

void
Core::load(snapshot::Deserializer &d)
{
    d.enterStruct("cpu");
    for (std::uint64_t &r : state_.regs)
        r = d.u64();
    state_.pc = d.u64();
    state_.halted = d.boolean();
    cnt_.issueSlot = d.u32();
    asid_ = d.u16();
    cnt_.instructions = d.u64();
    cnt_.cycles = d.u64();
    cnt_.trampolineInsts = d.u64();
    cnt_.trampolineJmps = d.u64();
    cnt_.skippedTrampolines = d.u64();
    cnt_.loads = d.u64();
    cnt_.stores = d.u64();
    cnt_.branches = d.u64();
    cnt_.mispredicts = d.u64();
    cnt_.condBranches = d.u64();
    cnt_.condMispredicts = d.u64();
    cnt_.resolverCalls = d.u64();
    cnt_.demandFaults = d.u64();
    trampolineCounts_.clear();
    const std::uint64_t ncounts = d.u64();
    trampolineCounts_.reserve(ncounts);
    for (std::uint64_t i = 0; i < ncounts; ++i) {
        const Addr va = d.u64();
        trampolineCounts_[va] = d.u64();
    }
    trace_.clear();
    const std::uint64_t ntrace = d.u64();
    trace_.reserve(ntrace);
    for (std::uint64_t i = 0; i < ntrace; ++i) {
        linker::CallSiteRecord r;
        r.callVa = d.u64();
        r.trampolineVa = d.u64();
        r.targetVa = d.u64();
        r.tailJump = d.boolean();
        trace_.push_back(r);
    }
    tracedSites_.clear();
    const std::uint64_t ntraced = d.u64();
    tracedSites_.reserve(ntraced);
    for (std::uint64_t i = 0; i < ntraced; ++i)
        tracedSites_.insert(d.u64());
    hasLastCtl_ = d.boolean();
    lastCtlVa_ = d.u64();
    lastCtlWasCall_ = d.boolean();
    d.checkBool(skipUnit_ != nullptr, "skip unit presence");
    d.leaveStruct();
    // The decoded-slot cursor points into the image; it is
    // re-established on the next fetch.
    curSlot_ = nullptr;
    hierarchy_.load(d);
    predictor_.load(d);
    if (skipUnit_)
        skipUnit_->load(d);
}

void
Core::resetSkipUnit(bool enabled,
                    const core::SkipUnitParams &skip)
{
    params_.skipUnitEnabled = enabled;
    params_.skip = skip;
    if (!enabled) {
        skipUnit_.reset();
        return;
    }
    skipUnit_ = std::make_unique<core::TrampolineSkipUnit>(skip);
    skipUnit_->setAsid(asid_);
}

} // namespace dlsim::cpu
