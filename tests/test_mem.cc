/**
 * @file
 * Unit tests for the memory substrate: address math, cache array
 * (lookup, LRU, locking, filled-set walks), zero-page storage, MSHRs
 * and the main-memory timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mem/address.h"
#include "mem/cache_array.h"
#include "mem/main_memory.h"
#include "mem/zeroed_array.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace {

using namespace widir;
using mem::CacheArray;
using mem::CacheEntry;
using mem::LineData;

TEST(Address, LineMath)
{
    EXPECT_EQ(mem::lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(mem::lineNumber(0x1240), 0x49u);
    EXPECT_EQ(mem::wordInLine(0x1200), 0u);
    EXPECT_EQ(mem::wordInLine(0x1238), 7u);
    EXPECT_TRUE(mem::wordAligned(0x1238));
    EXPECT_FALSE(mem::wordAligned(0x1239));
}

TEST(Address, HomeInterleaving)
{
    // Consecutive lines round-robin across nodes.
    for (std::uint32_t n = 0; n < 64; ++n) {
        EXPECT_EQ(mem::homeNode(static_cast<sim::Addr>(n) * 64, 64), n);
    }
    EXPECT_EQ(mem::homeNode(64ull * 64, 64), 0u);
}

TEST(LineData, WordAccess)
{
    LineData d;
    EXPECT_EQ(d.word(0x40), 0u);
    d.setWord(0x48, 0xdeadbeef);
    EXPECT_EQ(d.word(0x48), 0xdeadbeefu);
    EXPECT_EQ(d.word(0x40), 0u);
    EXPECT_EQ(d.wordAt(1), 0xdeadbeefu);
}

TEST(CacheArray, GeometryFromSize)
{
    CacheArray c(64 * 1024, 2); // 64KB 2-way: 512 sets
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.assoc(), 2u);
}

TEST(CacheArray, FillLookupInvalidate)
{
    CacheArray c(1024, 2); // 8 sets
    LineData d;
    d.setWord(0, 7);
    CacheEntry *v = c.pickVictim(0x0);
    ASSERT_NE(v, nullptr);
    c.fill(v, 0x0, 3, d);
    CacheEntry *e = c.lookup(0x8); // same line
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, 3);
    EXPECT_EQ(e->data.word(0x0), 7u);
    c.invalidate(e);
    EXPECT_EQ(c.lookup(0x0), nullptr);
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray c(1024, 2); // 8 sets, 2 ways
    LineData d;
    // Two lines in the same set: set = lineNumber % 8.
    sim::Addr a1 = 0 * 64, a2 = 8 * 64, a3 = 16 * 64;
    c.fill(c.pickVictim(a1), a1, 1, d);
    c.fill(c.pickVictim(a2), a2, 1, d);
    // Touch a1 so a2 is LRU.
    c.touch(c.lookup(a1), 0);
    CacheEntry *victim = c.pickVictim(a3);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->line, a2);
}

TEST(CacheArray, LockedEntriesNotVictimized)
{
    CacheArray c(1024, 2);
    LineData d;
    sim::Addr a1 = 0 * 64, a2 = 8 * 64, a3 = 16 * 64;
    c.fill(c.pickVictim(a1), a1, 1, d);
    c.fill(c.pickVictim(a2), a2, 1, d);
    c.lookup(a1)->locked = true;
    CacheEntry *victim = c.pickVictim(a3);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->line, a2);
    c.lookup(a2)->locked = true;
    EXPECT_EQ(c.pickVictim(a3), nullptr);
}

TEST(CacheArray, OccupancyAndForEach)
{
    CacheArray c(1024, 2);
    LineData d;
    c.fill(c.pickVictim(0), 0, 1, d);
    c.fill(c.pickVictim(64), 64, 2, d);
    EXPECT_EQ(c.occupancy(), 2u);
    int seen = 0;
    c.forEach([&](CacheEntry &) { ++seen; });
    EXPECT_EQ(seen, 2);
}

/** A fresh array is all empty frames and its walks visit nothing. */
TEST(CacheArray, FreshArrayIsEmpty)
{
    CacheArray c(512 * 1024, 8); // 8192 frames: mmapped storage
    EXPECT_EQ(c.occupancy(), 0u);
    int seen = 0;
    c.forEach([&](CacheEntry &) { ++seen; });
    EXPECT_EQ(seen, 0);

    // Lines 0 and numSets share set 0; its first frame is the victim
    // for both, and once filled the next way is.
    sim::Addr a = 0, b = static_cast<sim::Addr>(c.numSets()) * 64;
    CacheEntry *first = c.pickVictim(a);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(c.pickVictim(b), first);
    EXPECT_FALSE(first->valid);
    EXPECT_EQ(first->line, 0u);
    EXPECT_EQ(first->state, 0);
    EXPECT_EQ(first->lruStamp, 0u);
    EXPECT_EQ(first->data, LineData());
    c.fill(first, a, 1, LineData());
    EXPECT_EQ(c.pickVictim(b), first + 1);
    EXPECT_EQ(c.lookup(a), first); // line 0 is an ordinary line
    EXPECT_EQ(c.lookup(b), nullptr);
}

/**
 * forEach walks only ever-filled sets; across a seeded fill/invalidate
 * churn its visit sequence must equal a brute-force reference: every
 * valid frame, in ascending frame (address) order.
 */
TEST(CacheArray, FilledSetWalkMatchesFullWalk)
{
    CacheArray c(64 * 1024, 4, 16); // 256 sets, LLC-style divisor
    sim::Rng rng(99, 0);
    std::set<sim::Addr> used;
    for (int step = 0; step < 20000; ++step) {
        sim::Addr line = static_cast<sim::Addr>(rng.below(4096)) << 6;
        used.insert(line);
        if (CacheEntry *hit = c.lookup(line)) {
            if (rng.below(2) == 0)
                c.invalidate(hit);
        } else if (CacheEntry *v = c.pickVictim(line)) {
            c.fill(v, line, 1, LineData());
        }
        if (step % 997 != 0)
            continue;
        std::vector<const CacheEntry *> walked;
        c.forEach([&](CacheEntry &e) { walked.push_back(&e); });
        std::vector<const CacheEntry *> reference;
        for (sim::Addr l : used) {
            if (const CacheEntry *e = c.lookup(l))
                reference.push_back(e);
        }
        std::sort(reference.begin(), reference.end());
        ASSERT_EQ(walked, reference) << "step " << step;
        EXPECT_EQ(c.occupancy(), reference.size());
    }
}

/** Both size classes come back zeroed; moves transfer ownership once. */
TEST(ZeroedArray, ZeroedInBothSizeClassesAndMoveOnly)
{
    using Arr = mem::ZeroedArray<std::uint64_t>;
    const std::size_t small = 100;
    const std::size_t large = Arr::kMmapBytes / sizeof(std::uint64_t) + 1;
    for (std::size_t n : {small, large}) {
        Arr a(n);
        ASSERT_EQ(a.size(), n);
        EXPECT_TRUE(std::all_of(a.data(), a.data() + n,
                                [](std::uint64_t v) { return v == 0; }))
            << n;

        Arr b;
        {
            Arr src(n);
            src[n - 1] = 7;
            b = std::move(src);
            EXPECT_TRUE(src.empty());
            EXPECT_EQ(src.data(), nullptr);
        } // src's destructor must not release b's storage
        EXPECT_EQ(b[n - 1], 7u);
        b[0] = 1; // faults if the storage had been unmapped/freed

        Arr c(std::move(b));
        EXPECT_TRUE(b.empty());
        EXPECT_EQ(c[0], 1u);
        c = Arr(n); // move-assign releases the old storage
        EXPECT_EQ(c[n - 1], 0u);
        c.zero();
    }
    EXPECT_TRUE(Arr(0).empty());
}

TEST(MainMemory, FunctionalPeekPoke)
{
    sim::Simulator s;
    mem::MainMemory mem(s, {});
    LineData d;
    d.setWord(0x100, 42);
    mem.pokeLine(0x100, d);
    EXPECT_EQ(mem.peekLine(0x108).word(0x100), 42u);
    EXPECT_EQ(mem.peekLine(0x200).word(0x200), 0u); // untouched: zero
}

TEST(MainMemory, TimedReadLatency)
{
    sim::Simulator s;
    mem::MainMemory::Config cfg;
    cfg.roundTripLatency = 80;
    mem::MainMemory mem(s, cfg);
    sim::Tick done_at = 0;
    mem.readLine(0x40, [&](const LineData &) { done_at = s.now(); });
    s.run();
    EXPECT_EQ(done_at, 80u);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MainMemory, ControllerBandwidthQueues)
{
    sim::Simulator s;
    mem::MainMemory::Config cfg;
    cfg.numControllers = 1;
    cfg.roundTripLatency = 80;
    cfg.issueInterval = 4;
    mem::MainMemory mem(s, cfg);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i) {
        mem.readLine(static_cast<sim::Addr>(i) * 64,
                     [&](const LineData &) { done.push_back(s.now()); });
    }
    s.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 80u);
    EXPECT_EQ(done[1], 84u);
    EXPECT_EQ(done[2], 88u);
}

TEST(MainMemory, WriteThenReadBack)
{
    sim::Simulator s;
    mem::MainMemory mem(s, {});
    LineData d;
    d.setWord(0x40, 99);
    bool wrote = false;
    mem.writeLine(0x40, d, [&] { wrote = true; });
    s.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(mem.peekLine(0x40).word(0x40), 99u);
    EXPECT_EQ(mem.writes(), 1u);
}

} // namespace
