/**
 * @file
 * Unit tests of the core timing model: retirement width, ROB flow
 * control, write-buffer draining, fences, idle (PAUSE), RMW drain
 * semantics and memory-stall accounting -- exercised on a 1-2 core
 * machine so protocol behaviour is deterministic and analyzable.
 */

#include <gtest/gtest.h>

#include "system/manycore.h"

namespace {

using namespace widir;
using cpu::Task;
using cpu::Thread;
using sim::Addr;
using sys::Manycore;
using sys::SystemConfig;

constexpr Addr kA = 0x900000;

SystemConfig
uni()
{
    return SystemConfig::baseline(1);
}

TEST(CpuModel, ComputeRetiresFourWide)
{
    Manycore m(uni());
    sim::Tick cycles = m.run([](Thread &t) -> Task {
        co_await t.compute(4000);
        co_return;
    });
    // 4000 instructions at 4/cycle ~ 1000 cycles (plus small start/end
    // overhead).
    EXPECT_GE(cycles, 950u); // batching boundary effects allowed
    EXPECT_LE(cycles, 1100u);
    EXPECT_EQ(m.cpuTotals().instructions, 4000u);
}

TEST(CpuModel, ComputeCostScalesLinearly)
{
    auto run_n = [](std::uint64_t n) {
        Manycore m(uni());
        return m.run([n](Thread &t) -> Task {
            co_await t.compute(n);
            co_return;
        });
    };
    sim::Tick c1 = run_n(1000);
    sim::Tick c2 = run_n(2000);
    EXPECT_NEAR(static_cast<double>(c2),
                2.0 * static_cast<double>(c1), 60.0);
}

TEST(CpuModel, BlockingLoadStallsAccounted)
{
    Manycore m(uni());
    EXPECT_EQ(m.core(0).nodeId(), 0u); // cores exist before run()
    m.run([](Thread &t) -> Task {
        // A cold load: memory round trip dominates; all of it is
        // memory stall (nothing else to retire).
        std::uint64_t v = co_await t.load(kA);
        EXPECT_EQ(v, 0u);
        co_return;
    });
    const auto &s = m.core(0).stats();
    EXPECT_GT(s.memStallCycles, 50u); // ~80-cycle DRAM + mesh
    EXPECT_EQ(s.loads, 1u);
}

TEST(CpuModel, IndependentLoadsOverlap)
{
    // Eight independent non-blocking loads to distinct lines should
    // overlap (memory-level parallelism), not serialize.
    auto run_loads = [](int n) {
        Manycore m(uni());
        return m.run([n](Thread &t) -> Task {
            for (int i = 0; i < n; ++i)
                co_await t.loadNb(kA + static_cast<Addr>(i) * 64);
            co_await t.fence();
            co_return;
        });
    };
    sim::Tick one = run_loads(1);
    sim::Tick eight = run_loads(8);
    EXPECT_LT(eight, 3 * one); // far less than 8x
}

TEST(CpuModel, StoresRetireThroughWriteBuffer)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        for (int i = 0; i < 10; ++i)
            co_await t.store(kA + static_cast<Addr>(i) * 8, i);
        co_await t.fence();
        co_return;
    });
    EXPECT_EQ(m.cpuTotals().stores, 10u);
    // All ten words landed (same line: coalesced protocol-side).
    std::uint64_t v = 0;
    ASSERT_TRUE(m.l1(0).peekWord(kA + 72, v));
    EXPECT_EQ(v, 9u);
}

TEST(CpuModel, FenceDrainsEverything)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        co_await t.store(kA, 7);
        co_await t.fence();
        // After the fence the store must be globally performed: a
        // dependent read sees it without any race.
        std::uint64_t v = co_await t.load(kA);
        EXPECT_EQ(v, 7u);
        co_return;
    });
}

TEST(CpuModel, IdleAdvancesTimeWithoutInstructions)
{
    Manycore m(uni());
    sim::Tick cycles = m.run([](Thread &t) -> Task {
        co_await t.idle(500);
        co_return;
    });
    EXPECT_GE(cycles, 500u);
    EXPECT_EQ(m.cpuTotals().instructions, 0u);
}

TEST(CpuModel, RmwReturnsOldValue)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        co_await t.store(kA, 41);
        co_await t.fence();
        std::uint64_t old = co_await t.fetchAdd(kA, 1);
        EXPECT_EQ(old, 41u);
        std::uint64_t now = co_await t.load(kA);
        EXPECT_EQ(now, 42u);
        co_return;
    });
    EXPECT_EQ(m.cpuTotals().rmws, 1u);
}

TEST(CpuModel, CasSemantics)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        std::uint64_t old = co_await t.cas(kA, 0, 5);
        EXPECT_EQ(old, 0u); // success
        old = co_await t.cas(kA, 0, 9);
        EXPECT_EQ(old, 5u); // failure: value unchanged
        std::uint64_t v = co_await t.load(kA);
        EXPECT_EQ(v, 5u);
        co_return;
    });
}

TEST(CpuModel, SwapExchanges)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        std::uint64_t old = co_await t.swap(kA, 123);
        EXPECT_EQ(old, 0u);
        old = co_await t.swap(kA, 456);
        EXPECT_EQ(old, 123u);
        co_return;
    });
}

TEST(CpuModel, LoadLatencyMeasuredRobEntryToRetire)
{
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        co_await t.loadNb(kA); // cold miss
        co_await t.fence();
        co_await t.loadNb(kA); // hit
        co_await t.fence();
        co_return;
    });
    const auto &s = m.core(0).stats();
    EXPECT_EQ(s.loads, 2u);
    // Sum includes one long (miss) and one short (hit) latency.
    EXPECT_GT(s.loadLatencySum, 80u);
}

TEST(CpuModel, ProgramPerCoreIdsAreDistinct)
{
    Manycore m(SystemConfig::baseline(4));
    m.run([](Thread &t) -> Task {
        co_await t.store(kA + static_cast<Addr>(t.id()) * 64,
                         t.id() + 1);
        co_await t.fence();
        EXPECT_EQ(t.numThreads(), 4u);
        co_return;
    });
    for (sim::NodeId n = 0; n < 4; ++n) {
        std::uint64_t v = 0;
        ASSERT_TRUE(
            m.l1(n).peekWord(kA + static_cast<Addr>(n) * 64, v));
        EXPECT_EQ(v, n + 1u);
    }
}

TEST(CpuModel, SubCoroutinesCompose)
{
    // ValueTask composition through co_await (the sync library relies
    // on this).
    struct Helper
    {
        static cpu::ValueTask<std::uint64_t>
        addTwice(Thread &t, Addr a)
        {
            co_await t.fetchAdd(a, 1);
            std::uint64_t old = co_await t.fetchAdd(a, 1);
            co_return old + 1;
        }
    };
    Manycore m(uni());
    m.run([](Thread &t) -> Task {
        std::uint64_t final_val = co_await Helper::addTwice(t, kA);
        EXPECT_EQ(final_val, 2u);
        co_return;
    });
}

} // namespace
