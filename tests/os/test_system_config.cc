/** @file Behaviour of the SystemConfig knobs. */

#include <gtest/gtest.h>

#include "os/system.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

WorkloadSpec
wl(const char *name = "espresso", unsigned scale = 4000)
{
    return makeWorkload(name, scale);
}

TEST(SystemConfig, TickHandlerLengthAddsKernelInstr)
{
    SystemConfig small;
    small.clockJitter = false;
    small.tickHandlerInstr = 32;
    SystemConfig big = small;
    big.tickHandlerInstr = 512;

    System a(small, wl());
    System b(big, wl());
    RunResult ra = a.run();
    RunResult rb = b.run();
    Counter ka = ra.instr[static_cast<unsigned>(Component::Kernel)];
    Counter kb = rb.instr[static_cast<unsigned>(Component::Kernel)];
    EXPECT_GT(kb, ka);
    // The delta is roughly ticks x (512 - 32).
    double expected = static_cast<double>(ra.ticks) * (512 - 32);
    EXPECT_NEAR(static_cast<double>(kb - ka), expected,
                expected * 0.3 + 200);
}

TEST(SystemConfig, FasterClockMeansMoreTicks)
{
    SystemConfig slow;
    slow.clockJitter = false;
    SystemConfig fast = slow;
    fast.clockInterval = slow.clockInterval / 4;

    WorkloadSpec w = wl("espresso", 500); // enough ticks to compare
    System a(slow, w);
    System b(fast, w);
    Counter ta = a.run().ticks;
    Counter tb = b.run().ticks;
    EXPECT_NEAR(static_cast<double>(tb),
                static_cast<double>(ta) * 4.0,
                static_cast<double>(ta));
}

TEST(SystemConfig, QuantumInterleavesConcurrentTasks)
{
    // With a small quantum, the 15 concurrent ousterhout tasks all
    // make progress early; with a giant quantum the first task runs
    // to completion before the others start.
    WorkloadSpec w = wl("ousterhout", 2000);

    SystemConfig tiny;
    tiny.quantumInstr = 500;
    System a(tiny, w);
    RunResult ra = a.run();

    SystemConfig huge;
    huge.quantumInstr = ~static_cast<Counter>(0) >> 1;
    System b(huge, w);
    RunResult rb = b.run();

    // Both complete all user work either way.
    EXPECT_EQ(ra.instr[static_cast<unsigned>(Component::User)],
              rb.instr[static_cast<unsigned>(Component::User)]);
    EXPECT_EQ(ra.tasksCreated, rb.tasksCreated);
}

TEST(SystemConfig, FaultCyclesAreCharged)
{
    SystemConfig cheap;
    cheap.clockJitter = false;
    cheap.faultKernelCycles = 0;
    SystemConfig dear = cheap;
    dear.faultKernelCycles = 100000;

    System a(cheap, wl());
    System b(dear, wl());
    RunResult ra = a.run();
    RunResult rb = b.run();
    EXPECT_EQ(ra.faults, rb.faults);
    EXPECT_GE(rb.cycles,
              ra.cycles + ra.faults * 90000); // ticks shift a bit
}

TEST(SystemConfig, ForkBurstLengthShowsInKernelShare)
{
    WorkloadSpec w = wl("sdet", 4000); // 70 forks
    SystemConfig none;
    none.clockJitter = false;
    none.forkKernelInstr = 0;
    SystemConfig heavy = none;
    heavy.forkKernelInstr = 2000;

    System a(none, w);
    System b(heavy, w);
    Counter ka =
        a.run().instr[static_cast<unsigned>(Component::Kernel)];
    Counter kb =
        b.run().instr[static_cast<unsigned>(Component::Kernel)];
    EXPECT_GE(kb, ka + 70u * 2000u);
}

TEST(SystemConfig, SmallMemoryIsFatal)
{
    SystemConfig tiny;
    tiny.physMemBytes = 64 * kHostPageBytes;
    tiny.reservedFrames = 60; // four usable frames
    WorkloadSpec w = wl();
    EXPECT_EXIT(
        {
            System sys(tiny, w);
            sys.run();
        },
        ::testing::ExitedWithCode(1), "out of physical memory");
}

TEST(SystemConfig, ZeroQuantumOrStoreEveryIsRefused)
{
    // A zero quantum would never finish a run, and a zero storeEvery
    // would divide by zero on the first data ref: construction
    // stops both rather than hang or trap mid-run.
    SystemConfig zeroQuantum;
    zeroQuantum.quantumInstr = 0;
    EXPECT_DEATH(System(zeroQuantum, wl()), "quantumInstr");
    WorkloadSpec zeroStore = wl();
    zeroStore.storeEvery = 0;
    EXPECT_DEATH(System(SystemConfig{}, zeroStore), "storeEvery");
}

TEST(SystemConfig, ReservedFramesNeverHandedOut)
{
    SystemConfig cfg;
    cfg.reservedFrames = 100;
    System sys(cfg, wl());
    sys.run();
    for (const auto &task : sys.tasks()) {
        for (auto [vpn, pfn] : task->pageTable.mappings()) {
            (void)vpn;
            EXPECT_GE(pfn, 100);
        }
    }
}

} // namespace
} // namespace tw
