/** @file Tests of the experiment runner and slowdown computation. */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/specio.hh"
#include "harness/trials.hh"

namespace tw
{
namespace
{

RunSpec
tapewormSpec(const char *workload = "espresso",
             unsigned scale = 4000)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(4096);
    return spec;
}

TEST(Runner, TapewormRunProducesMisses)
{
    RunOutcome out = Runner::runOne(tapewormSpec(), 1);
    EXPECT_GT(out.estMisses, 0.0);
    EXPECT_EQ(out.rawMisses, out.estMisses); // no sampling
    EXPECT_GT(out.run.totalInstr(), 0u);
    EXPECT_GT(out.missRatioTotal(), 0.0);
    EXPECT_LT(out.missRatioTotal(), 0.3);
}

TEST(Runner, SlowdownIsPositiveAndSane)
{
    Runner::clearBaselineCache();
    RunOutcome out = Runner::runWithSlowdown(tapewormSpec(), 1);
    EXPECT_GT(out.slowdown, 0.0);
    EXPECT_LT(out.slowdown, 40.0);
    EXPECT_GT(out.normalCycles, 0u);
    EXPECT_GT(out.run.cycles, out.normalCycles);
}

TEST(Runner, BaselineIsMemoized)
{
    Runner::clearBaselineCache();
    RunSpec spec = tapewormSpec();
    RunOutcome a = Runner::runWithSlowdown(spec, 7);
    RunOutcome b = Runner::runWithSlowdown(spec, 7);
    EXPECT_EQ(a.normalCycles, b.normalCycles);
    EXPECT_DOUBLE_EQ(a.slowdown, b.slowdown);
}

TEST(Runner, DeterministicPerSeed)
{
    RunSpec spec = tapewormSpec();
    RunOutcome a = Runner::runOne(spec, 5);
    RunOutcome b = Runner::runOne(spec, 5);
    EXPECT_EQ(a.estMisses, b.estMisses);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(Runner, OracleAgreesWithUnsampledTapeworm)
{
    // Direct-mapped + full sampling + compensation + no cost
    // charging (so both machines keep identical timing): the
    // trap-driven simulator must equal the oracle exactly.
    RunSpec spec = tapewormSpec();
    spec.tw.chargeCost = false;
    RunOutcome trap = Runner::runOne(spec, 3);
    spec.sim = SimKind::Oracle;
    RunOutcome oracle = Runner::runOne(spec, 3);
    EXPECT_DOUBLE_EQ(trap.estMisses, oracle.estMisses);
}

TEST(Runner, TlbFilterAboveMachineFramesRuns)
{
    // The spec reader keeps a filterFrames far above the machine's
    // frames parseable; the runner sizes the filter by the machine,
    // since no higher frame can be trapped, so such a spec runs and
    // gives the outcome of the default (0, the machine's frames).
    RunSpec spec = tapewormSpec();
    spec.sim = SimKind::TapewormTlbSim;
    RunOutcome dflt = Runner::runOne(spec, 2);
    spec.tlb.filterFrames = 12345678901234567ull;
    RunOutcome big = Runner::runOne(spec, 2);
    EXPECT_GT(big.rawMisses, 0.0);
    EXPECT_EQ(outcomeToJson(big).dump(), outcomeToJson(dflt).dump());
}

TEST(Runner, TraceDrivenRuns)
{
    RunSpec spec = tapewormSpec();
    spec.sim = SimKind::TraceDriven;
    spec.c2k.cache = CacheConfig::icache(4096, 16, 1,
                                         Indexing::Virtual);
    RunOutcome out = Runner::runOne(spec, 3);
    EXPECT_GT(out.estMisses, 0.0);
    // Pixie only sees the user task.
    EXPECT_EQ(out.missesByComp[static_cast<unsigned>(
                  Component::Kernel)],
              0.0);
}

TEST(Runner, SampledRunScalesEstimate)
{
    RunSpec spec = tapewormSpec();
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 8;
    RunOutcome out = Runner::runOne(spec, 3);
    EXPECT_DOUBLE_EQ(out.estMisses, out.rawMisses * 8.0);
}

TEST(Runner, BaselineEvictionRecomputesBitIdentically)
{
    // A resident daemon's memo is bounded; evicting a baseline must
    // cost only time, never accuracy — the recomputation is a pure
    // function of spec+seed.
    Runner::clearBaselineCache();
    Runner::setBaselineCacheCapacity(1);

    // The baseline is the uninstrumented run, so its memo key is
    // (baseline-relevant spec fields, seed) — a different seed is
    // what forces a different entry, not a different simulated
    // cache.
    RunSpec spec = tapewormSpec();

    RunOutcome first = Runner::runWithSlowdown(spec, 7);
    // Different seed, same single-entry memo: evicts seed 7's
    // baseline.
    Runner::runWithSlowdown(spec, 8);
    BaselineCacheStats st = Runner::baselineCacheStats();
    EXPECT_EQ(st.capacity, 1u);
    EXPECT_GE(st.evictions, 1u);

    RunOutcome again = Runner::runWithSlowdown(spec, 7);
    EXPECT_EQ(first.normalCycles, again.normalCycles);
    EXPECT_EQ(first.run.cycles, again.run.cycles);
    EXPECT_DOUBLE_EQ(first.slowdown, again.slowdown);
    EXPECT_DOUBLE_EQ(first.estMisses, again.estMisses);

    st = Runner::baselineCacheStats();
    EXPECT_EQ(st.misses, 3u); // every compute missed the memo
    EXPECT_EQ(st.hits, 0u);

    // Restore the default for the rest of the suite.
    Runner::setBaselineCacheCapacity(4096);
    Runner::clearBaselineCache();
}

TEST(Runner, BaselineCapacityHonored)
{
    Runner::clearBaselineCache();
    Runner::setBaselineCacheCapacity(2);
    // The eviction counter survives clearBaselineCache (it tracks
    // lifetime pressure), so assert the delta.
    std::uint64_t before = Runner::baselineCacheStats().evictions;
    RunSpec spec = tapewormSpec();
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        Runner::runWithSlowdown(spec, seed);
    BaselineCacheStats st = Runner::baselineCacheStats();
    EXPECT_EQ(st.size, 2u);
    EXPECT_EQ(st.evictions - before, 2u);
    Runner::setBaselineCacheCapacity(4096);
    Runner::clearBaselineCache();
}

TEST(Trials, RunsRequestedCount)
{
    RunSpec spec = tapewormSpec("espresso", 8000);
    auto outcomes = runTrials(spec, 4, 100);
    EXPECT_EQ(outcomes.size(), 4u);
    Summary s = missSummary(outcomes);
    EXPECT_EQ(s.n, 4u);
    EXPECT_GT(s.mean, 0.0);
}

TEST(Trials, DistinctSeedsProduceVariation)
{
    // Physically-indexed cache + random page allocation => misses
    // vary across trials (the Table 9 effect).
    RunSpec spec = tapewormSpec("mpeg_play", 4000);
    spec.tw.cache = CacheConfig::icache(16384, 16, 1,
                                        Indexing::Physical);
    auto outcomes = runTrials(spec, 4, 55);
    Summary s = missSummary(outcomes);
    EXPECT_GT(s.range, 0.0);
}

TEST(Trials, MeanOfHelper)
{
    RunSpec spec = tapewormSpec("espresso", 8000);
    auto outcomes = runTrials(spec, 3, 9);
    double mean = meanOf(outcomes, [](const RunOutcome &o) {
        return o.estMisses;
    });
    EXPECT_GT(mean, 0.0);
    EXPECT_EQ(meanOf(std::vector<RunOutcome>{},
                     [](const RunOutcome &o) { return o.estMisses; }),
              0.0);
}

} // namespace
} // namespace tw
