/**
 * @file
 * Tests for the multicore sharer directory (mem/sharer_directory.hh):
 * the table on its own, and a MultiCoreSystem whose snoops it filters
 * driven against a brute-force twin that broadcasts every store to
 * every sibling. The filter is a host-side shortcut, so the twin's
 * caches must end byte-identical to the filtered system's.
 */

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "elf/builder.hh"
#include "linker/loader.hh"
#include "mem/sharer_directory.hh"
#include "sim/multicore.hh"
#include "snapshot/serializer.hh"

using namespace dlsim;
using dlsim::mem::SharerDirectory;

namespace
{

constexpr isa::Addr LineA = 0x10000;
/** A line that lands on LineA's slot of a default-sized table. */
constexpr isa::Addr AliasOfA =
    LineA + SharerDirectory::Entries * 64;

} // namespace

TEST(SharerDirectory, UntrackedLineMayBeHeldByAnyCore)
{
    SharerDirectory dir(64);
    EXPECT_EQ(dir.claim(LineA, 2), SharerDirectory::AllCores);
    // The claim leaves the storing core as the only holder, for
    // every address within the line.
    EXPECT_EQ(dir.claim(LineA + 63, 1),
              SharerDirectory::Mask{1} << 2);
    EXPECT_EQ(dir.claim(LineA + 64, 1), SharerDirectory::AllCores);
}

TEST(SharerDirectory, FillsJoinOnlyTrackedLines)
{
    SharerDirectory dir(64);
    dir.noteFill(LineA, 3); // no entry yet: nothing to record
    EXPECT_EQ(dir.claim(LineA, 0), SharerDirectory::AllCores);
    dir.noteFill(LineA + 8, 3);
    dir.noteFill(LineA, 1);
    EXPECT_EQ(dir.claim(LineA, 1), SharerDirectory::Mask{0b1011});
    EXPECT_EQ(dir.claim(LineA, 0), SharerDirectory::Mask{0b0010});
}

TEST(SharerDirectory, SlotConflictOnlyLosesKnowledge)
{
    SharerDirectory dir(64);
    dir.claim(LineA, 0);
    // The alias takes over the slot; a fill of the evicted line is
    // not recorded anywhere, and its next claim broadcasts.
    EXPECT_EQ(dir.claim(AliasOfA, 1), SharerDirectory::AllCores);
    dir.noteFill(LineA, 2);
    EXPECT_EQ(dir.claim(LineA, 0), SharerDirectory::AllCores);
    EXPECT_EQ(dir.claim(AliasOfA, 1), SharerDirectory::AllCores);
}

TEST(SharerDirectory, ClearForgetsEveryLine)
{
    SharerDirectory dir(64);
    for (isa::Addr a = 0; a < 16 * 64; a += 64)
        dir.claim(a, 0);
    dir.clear();
    for (isa::Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_EQ(dir.claim(a, 1), SharerDirectory::AllCores);
}

namespace
{

elf::Module
makeExe()
{
    elf::ModuleBuilder mb("app");
    auto &f = mb.function("main");
    f.ret();
    return mb.build();
}

/** Small caches, so random traffic evicts as well as shares. */
sim::MultiCoreParams
smallParams()
{
    sim::MultiCoreParams p;
    p.numCores = 4;
    auto &m = p.core.mem;
    m.l1i = mem::CacheParams{"l1i", 1024, 2, 64};
    m.l1d = mem::CacheParams{"l1d", 1024, 2, 64};
    m.l2 = mem::CacheParams{"l2", 4096, 4, 64};
    m.l3 = mem::CacheParams{"l3", 16384, 8, 64};
    return p;
}

template <typename T>
std::vector<std::uint8_t>
bytesOf(const T &t)
{
    snapshot::Serializer s;
    s.beginSection("t");
    t.save(s);
    s.endSection();
    return s.finish();
}

template <typename T>
void
restore(T &t, const std::vector<std::uint8_t> &bytes)
{
    snapshot::Deserializer d(bytes.data(), bytes.size());
    d.enterSection("t");
    t.load(d);
    d.leaveSection();
}

/**
 * The filtered system and its broadcasting twin under one seeded
 * stream of fetches, loads and stores. Lines come from a small pool
 * in which every line has an alias on the same directory slot, and
 * accesses spread over three ASIDs.
 */
struct Differential
{
    static constexpr std::uint32_t Cores = 4;
    static constexpr std::array<std::uint16_t, 3> Asids{0, 1, 7};

    linker::Loader loader;
    std::unique_ptr<linker::Image> image;
    std::unique_ptr<linker::DynamicLinker> linker;
    std::unique_ptr<sim::MultiCoreSystem> system;
    std::vector<mem::Hierarchy> twin;
    std::vector<isa::Addr> pool;
    std::mt19937_64 rng;

    explicit Differential(std::uint64_t seed) : rng(seed)
    {
        image = loader.load(makeExe(), {});
        linker = std::make_unique<linker::DynamicLinker>(*image);
        system = std::make_unique<sim::MultiCoreSystem>(
            smallParams(), *image, *linker, loader.stackTop());
        twin.reserve(Cores);
        for (std::uint32_t c = 0; c < Cores; ++c)
            twin.emplace_back(smallParams().core.mem);
        const isa::Addr alias =
            SharerDirectory::Entries * 64;
        for (isa::Addr i = 0; i < 24; ++i) {
            pool.push_back(0x600000 + i * 64);
            pool.push_back(0x600000 + i * 64 + alias);
        }
    }

    mem::Hierarchy &filtered(std::uint32_t c)
    {
        return system->core(c).hierarchy();
    }

    /** One random operation; on a store, check the siblings. */
    void
    step()
    {
        const auto c = static_cast<std::uint32_t>(rng() % Cores);
        const std::uint64_t op = rng() % 3;
        const isa::Addr addr = pool[rng() % pool.size()] + rng() % 64;
        const std::uint16_t asid = Asids[rng() % Asids.size()];
        if (op == 0) {
            filtered(c).fetch(addr, asid);
            twin[c].fetch(addr, asid);
            return;
        }
        filtered(c).data(addr, asid);
        twin[c].data(addr, asid);
        if (op == 1)
            return;
        system->snoopStore(c, addr);
        for (std::uint32_t j = 0; j < Cores; ++j) {
            if (j != c)
                twin[j].invalidateDataLine(addr);
        }
        for (std::uint32_t j = 0; j < Cores; ++j) {
            if (j == c)
                continue;
            for (const std::uint16_t a : Asids) {
                const auto &h = filtered(j);
                ASSERT_FALSE(h.l1d().contains(addr, a) ||
                             h.l2().contains(addr, a) ||
                             h.l3().contains(addr, a))
                    << "core " << j << " still holds " << std::hex
                    << addr << " (asid " << std::dec << a
                    << ") after a store by core " << c;
            }
        }
    }
};

} // namespace

TEST(SnoopFilter, MatchesBroadcastUnderRandomTraffic)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Differential t(seed);
        constexpr int Steps = 30000;
        std::vector<std::uint8_t> checkpoint;
        std::vector<std::vector<std::uint8_t>> twinCheckpoint;
        for (int i = 0; i < Steps; ++i) {
            // Checkpoint a third of the way in and restore two
            // thirds of the way in, so the restored caches hold
            // lines the directory has since seen claimed elsewhere.
            if (i == Steps / 3) {
                checkpoint = bytesOf(*t.system);
                for (const auto &h : t.twin)
                    twinCheckpoint.push_back(bytesOf(h));
            } else if (i == 2 * Steps / 3) {
                restore(*t.system, checkpoint);
                for (std::uint32_t c = 0; c < t.Cores; ++c)
                    restore(t.twin[c], twinCheckpoint[c]);
            }
            t.step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        for (std::uint32_t c = 0; c < t.Cores; ++c)
            EXPECT_EQ(bytesOf(t.filtered(c)), bytesOf(t.twin[c]))
                << "core " << c;
    }
}
