/**
 * @file
 * Multicore system: N cores running threads of one process (shared
 * address space), with write-invalidate coherence between the
 * cores' private caches *and their trampoline-skip units*.
 *
 * This exercises the coherence path of paper §3.2: "When the
 * processor retires a store instruction to an address that hits in
 * the bloom filter (**or an invalidation for such an address is
 * received from the coherence subsystem**), all entries in ABTB and
 * the bloom filter are cleared." When one thread's lazy resolution
 * writes a GOT slot, every other core that memoized a trampoline
 * backed by that slot must drop its ABTB — otherwise a sibling
 * thread could keep skipping into a stale target.
 *
 * Execution interleaves deterministically: cores advance round-
 * robin in fixed instruction quanta on one host thread, so runs are
 * exactly reproducible.
 */

#ifndef DLSIM_SIM_MULTICORE_HH
#define DLSIM_SIM_MULTICORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "linker/dynamic_linker.hh"
#include "linker/image.hh"
#include "mem/sharer_directory.hh"
#include "stats/metrics.hh"

namespace dlsim::snapshot
{
class Serializer;
class Deserializer;
}

namespace dlsim::sim
{

/** Multicore configuration. */
struct MultiCoreParams
{
    std::uint32_t numCores = 4;
    /** Instructions per scheduling quantum. */
    std::uint64_t quantum = 200;
    /** Per-thread stack bytes (stacks are carved below the
     *  process's main stack). */
    std::uint64_t stackBytes = 1 << 20;
    /** Forward stores to other cores' caches as invalidations. */
    bool cacheCoherence = true;
    cpu::CoreParams core;
};

/** One completed thread request. */
struct ThreadResult
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t returnValue = 0;
};

/**
 * N cores over one shared image (threads of one process).
 */
class MultiCoreSystem
{
  public:
    /**
     * @param main_stack_top Top of the process's stack region;
     *        thread stacks are allocated downward from it.
     */
    MultiCoreSystem(const MultiCoreParams &params,
                    linker::Image &image,
                    linker::DynamicLinker &linker,
                    isa::Addr main_stack_top);

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    cpu::Core &core(std::uint32_t i) { return *cores_[i]; }
    const cpu::Core &core(std::uint32_t i) const
    {
        return *cores_[i];
    }

    /** Top of core `i`'s built-in thread stack. */
    isa::Addr coreStackTop(std::uint32_t i) const
    {
        return coreStackTops_[i];
    }

    /**
     * Map one more thread stack (with a guard page) below the ones
     * already carved and return its top. An OS-like layer running
     * M > numCores() blocking threads calls this once per thread;
     * runOnAll() does not need it (its threads run to completion,
     * so a queued thread reuses the stack of the core it lands on).
     */
    isa::Addr allocThreadStack();

    /**
     * Run M = args.size() function-call threads over the N cores as
     * a run-to-completion queue (deterministic round-robin
     * interleaving) and return each thread's result in args order.
     * Threads 0..N-1 start immediately on cores 0..N-1; each time a
     * thread finishes, the next queued one is dispatched on the
     * freed core. The M == N case is byte-identical to the original
     * one-thread-per-core semantics.
     * @param fn   Entry address, shared by all threads.
     * @param args Per-thread (arg0, arg1) pairs; any size >= 1.
     */
    std::vector<ThreadResult> runOnAll(
        isa::Addr fn,
        const std::vector<std::pair<std::uint64_t,
                                    std::uint64_t>> &args);

    /** Broadcast an external GOT write (e.g. dlclose) to every
     *  core's skip unit. */
    void broadcastGotWrite(isa::Addr addr);

    /**
     * Snoop a store by core `from` onto every sibling: cache-line
     * invalidation (when coherence is on), skip-unit coherence
     * invalidate, and the sibling's retire observer. This is the
     * body of the per-core store-snoop hook, exposed so a
     * functional fast-forward engine servicing a resolver trap can
     * issue the same coherence traffic the architectural data path
     * would. The cache invalidation goes only to the siblings the
     * sharer directory says may hold the line (see
     * mem/sharer_directory.hh); the skip-unit and observer snoops
     * reach every sibling.
     */
    void snoopStore(std::uint32_t from, isa::Addr addr);

    /** Total coherence flushes across all cores' skip units. */
    std::uint64_t totalCoherenceFlushes() const;

    /** Stores snooped onto sibling cores (coherence traffic). */
    std::uint64_t snoopedStores() const { return snoopedStores_; }

    /** Zero every core's statistics and the snooped-store count
     *  (cache/predictor/skip-unit *contents* are kept). */
    void clearStats();

    /**
     * Re-target every core at a sweep arm's parameters: timing
     * scalars, a cold skip unit of the arm's geometry, and the
     * block-dispatch knob. The structural-compatibility contract is
     * the caller's (Workbench::reconfigure validates it).
     */
    void reconfigure(const cpu::CoreParams &cp);

    /**
     * Checkpoint the system: every core (architectural state,
     * counters, cache/predictor/skip-unit contents) plus the
     * thread-stack allocator and snoop accounting. Emitted as
     * struct records into the caller's open section; load() expects
     * a system constructed with the identical MultiCoreParams.
     */
    void save(snapshot::Serializer &s) const;
    void load(snapshot::Deserializer &d);

    /**
     * Register the system-level view under `<prefix>.multicore.*`:
     * core count, quantum, snooped stores, and the skip-unit flush
     * causes summed across cores (paper §3.2/§3.3 accounting).
     * Gauges, so documents distinguish them from per-core counters.
     */
    void reportMetrics(stats::MetricsRegistry &reg,
                       const std::string &prefix) const;

    const MultiCoreParams &params() const { return params_; }

  private:
    MultiCoreParams params_;
    linker::Image &image_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<isa::Addr> coreStackTops_;
    /** Top of the next stack allocThreadStack() will carve. */
    isa::Addr nextStackTop_ = 0;
    std::uint32_t extraStacks_ = 0;
    std::uint64_t snoopedStores_ = 0;
    /** Snoop filter; null when coherence is off or the geometry
     *  rules it out (then every store broadcasts). */
    std::unique_ptr<mem::SharerDirectory> sharers_;
};

} // namespace dlsim::sim

#endif // DLSIM_SIM_MULTICORE_HH
