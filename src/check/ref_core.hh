/**
 * @file
 * RefCore: a minimal in-order *functional* reference core.
 *
 * Executes the same `isa::` instruction stream as the timing
 * `cpu::Core` but models architecturally visible state only —
 * registers, memory, control flow. No caches, no predictor, no
 * skip unit, no cycle accounting. Its memory is a copy-on-write
 * fork of the process image's address space, so the reference and
 * the timing core start byte-identical and pay pages only where
 * execution actually writes.
 *
 * The LockstepChecker steps a RefCore once per timing-core retire
 * and compares the two machines; any divergence is, by
 * construction, a violation of the mechanism's "architecturally
 * identical to the unmodified system" contract (paper §3).
 *
 * A RefCore can alternatively be bound *directly* to an address
 * space instead of forking one. sim::Sampler binds one per core this
 * way to fast-forward the live machine between detailed-timing
 * sample windows: functional stores land in the real process image,
 * so when the timing core resumes, architectural state is exactly
 * what exact-mode execution would have produced.
 */

#ifndef DLSIM_CHECK_REF_CORE_HH
#define DLSIM_CHECK_REF_CORE_HH

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "cpu/core.hh"
#include "linker/image.hh"
#include "mem/address_space.hh"

namespace dlsim::check
{

using isa::Addr;

/** Faults during reference execution (bad memory, undecodable pc).
 *  In a lockstep run these are themselves divergences: the timing
 *  core executed the same instruction without faulting. */
class RefExecError : public std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** What one reference step did (for comparison at retire). */
struct RefStep
{
    Addr pc = 0;
    isa::Opcode op = isa::Opcode::Nop;
    /** Pc after the step (architectural next). */
    Addr nextPc = 0;
    /** Control transfer redirected away from fall-through. */
    bool taken = false;
    bool didStore = false;
    Addr storeAddr = 0;
    std::uint64_t storeValue = 0;
};

/** Why a runFast() batch stopped. */
enum class FastStop
{
    Budget,   ///< max_steps executed.
    Resolver, ///< pc reached the lazy-resolver trap.
    StopPc,   ///< pc reached the caller's stop address.
    Halted,   ///< the machine executed Halt.
};

/** The functional reference executor. */
class RefCore
{
  public:
    /** @param image Decode source (shared with the timing core —
     *        patches and dlopen/dlclose stay visible). */
    explicit RefCore(const linker::Image *image);

    /**
     * Direct-memory mode: execute against `direct` (typically the
     * image's own address space) instead of a private fork. Stores
     * are architecturally real — this is the fast-forward engine,
     * not a checker. sync() then only adopts register state.
     */
    RefCore(const linker::Image *image, mem::AddressSpace *direct);

    /**
     * Adopt `state` and (fork mode only) re-fork reference memory
     * from the image's current address space. Call when the two
     * machines are known architecturally identical: at attach,
     * after a snapshot restore, and after a fast-forward phase.
     */
    void sync(const cpu::MachineState &state);

    cpu::MachineState &state() { return state_; }
    const cpu::MachineState &state() const { return state_; }

    /** Reference memory: the private fork, or the directly bound
     *  space. (The checker mirrors external writes and resolver
     *  stores into its fork.) */
    mem::AddressSpace &memory() { return space(); }

    /**
     * Execute exactly one instruction at state().pc. Never services
     * the resolver trap — the checker replays resolver effects from
     * the timing core's ResolverRecord instead. Throws RefExecError
     * on a memory fault, an undecodable pc, or pc == ResolverVa.
     */
    RefStep step();

    /** Result of one runFast() batch. */
    struct FastRun
    {
        std::uint64_t steps = 0;
        FastStop stop = FastStop::Budget;
    };

    /**
     * Execute up to `max_steps` instructions functionally, as fast
     * as the interpreter can go (slot-chained decode, no per-step
     * event records). Stops *before* executing anything at
     * `stop_pc` or the resolver trap — the caller services the trap
     * (or ends the run) and calls again. Throws RefExecError on a
     * memory fault or undecodable pc.
     */
    FastRun runFast(std::uint64_t max_steps, Addr stop_pc);

    /**
     * Select the fast-forward engine: block-chained (default) or
     * per-instruction. The two produce identical step counts, stop
     * classifications, and architectural state; sim::Sampler ties
     * this to the timing core's CoreParams::blockDispatch, so the
     * tests' per-instruction reference is block-free in both
     * executors.
     */
    void setBlockDispatch(bool on) { blocks_ = on; }

  private:
    mem::AddressSpace &space() { return direct_ ? *direct_ : *mem_; }
    /** Execute `slot` at state().pc, filling `st` and advancing. */
    void exec(const linker::Slot &slot, RefStep &st);
    /**
     * exec() with the per-step record compiled out (Record=false)
     * and the program counter threaded through `pc` instead of
     * state_.pc: the fast-forward loop keeps pc in a register
     * across whole fall-through chains, so the loop-carried
     * dependency never round-trips through memory. Callers own the
     * state_.pc sync.
     * @return True when slot chaining must stop — a taken transfer
     *         or a halt.
     */
    template <bool Record>
    bool execT(const isa::Instruction &inst, RefStep *st, Addr &pc);

    /** runFast per-instruction engine (the original loop). */
    FastRun runFastInstr(std::uint64_t max_steps, Addr stop_pc);
    /**
     * runFast block engine: dispatch whole blocks from the image's
     * block cache and chain static control edges (direct jumps and
     * calls, both CondBr arms, block fall-through) through
     * successor indices memoized on first traversal. Indirect
     * transfers return to the sentinel-checked outer loop, exactly
     * where runFastInstr re-enters its own.
     */
    FastRun runFastBlocks(std::uint64_t max_steps, Addr stop_pc);

    std::uint64_t read64(Addr addr);
    void write64(Addr addr, std::uint64_t value);

    const linker::Image *image_;
    std::unique_ptr<mem::AddressSpace> mem_;
    mem::AddressSpace *direct_ = nullptr;
    cpu::MachineState state_;
    bool blocks_ = true;
};

} // namespace dlsim::check

#endif // DLSIM_CHECK_REF_CORE_HH
