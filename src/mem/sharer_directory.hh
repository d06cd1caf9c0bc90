/**
 * @file
 * Exact sharer directory: a host-side filter in front of the
 * multicore write-invalidate snoop.
 *
 * Without it, every retired store scans the L1D, L2 and L3 of every
 * sibling core for a line that, most of the time, no sibling holds.
 * The directory is a fixed-size, direct-mapped table; each entry
 * maps one cache line to a bitmask of the cores that *may* hold it
 * in L1D, L2 or L3, in any address space. Invariant: for every line
 * with an entry, every core holding that line in a snooped level is
 * in the entry's mask. Masks may over-approximate (an evicted line
 * keeps its bit), never under-approximate, so snooping only the
 * masked siblings invalidates exactly the lines a full broadcast
 * would — cache contents, and so every simulated counter, are
 * byte-identical with or without the filter.
 *
 * - A store claims the line: the caller snoops the returned mask's
 *   siblings (all of them when the line has no entry), after which
 *   only the storing core can hold the line, so the entry becomes
 *   {line, {from}}.
 * - An L1 miss on either side (L2 and L3 are unified, so a fetch
 *   fills snooped levels too) adds the filling core to the line's
 *   entry, if it has one.
 * - A slot conflict overwrites the older entry: knowledge is lost,
 *   which only means a full broadcast for that line next time.
 * - Anything that makes lines valid without a fill (a snapshot
 *   restore) must clear() the table.
 *
 * The table is host-only state: it is never serialized, and it
 * starts empty.
 */

#ifndef DLSIM_MEM_SHARER_DIRECTORY_HH
#define DLSIM_MEM_SHARER_DIRECTORY_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "isa/instruction.hh"

namespace dlsim::mem
{

class SharerDirectory
{
  public:
    /** One bit per core. */
    using Mask = std::uint64_t;
    static constexpr std::uint32_t MaxCores = 64;
    /** Every core: what a line without an entry may be held by. */
    static constexpr Mask AllCores = ~Mask{0};
    /** 16 Ki entries x 16 bytes = 256 KiB per system. */
    static constexpr std::size_t Entries = 1u << 14;

    /** @param line_bytes Line size shared by every snooped cache. */
    explicit SharerDirectory(std::uint32_t line_bytes)
        : lineShift_(static_cast<std::uint32_t>(
              std::countr_zero(line_bytes))),
          slots_(Entries)
    {
        assert(line_bytes > 1 && std::has_single_bit(line_bytes));
    }

    /**
     * A store by core `from` to addr's line: return the cores that
     * may hold the line (AllCores when it has no entry), then record
     * `from` as its only holder. The caller must invalidate the line
     * in every other core of the returned mask.
     */
    Mask
    claim(isa::Addr addr, std::uint32_t from)
    {
        const std::uint64_t line = addr >> lineShift_;
        Entry &e = slotOf(line);
        const Mask holders = e.line == line ? e.mask : AllCores;
        e = {line, Mask{1} << from};
        return holders;
    }

    /** Core `core` filled addr's line into a snooped level. */
    void
    noteFill(isa::Addr addr, std::uint32_t core)
    {
        const std::uint64_t line = addr >> lineShift_;
        Entry &e = slotOf(line);
        if (e.line == line)
            e.mask |= Mask{1} << core;
    }

    /** Forget every entry: every line falls back to a broadcast. */
    void
    clear()
    {
        for (Entry &e : slots_)
            e = {};
    }

  private:
    struct Entry
    {
        /** Line number, or NoLine: addr >> lineShift_ never
         *  reaches it for any lineShift_ >= 1. */
        std::uint64_t line = NoLine;
        Mask mask = 0;
    };
    static constexpr std::uint64_t NoLine = ~std::uint64_t{0};

    Entry &
    slotOf(std::uint64_t line)
    {
        return slots_[line & (Entries - 1)];
    }

    std::uint32_t lineShift_;
    std::vector<Entry> slots_;
};

} // namespace dlsim::mem

#endif // DLSIM_MEM_SHARER_DIRECTORY_HH
