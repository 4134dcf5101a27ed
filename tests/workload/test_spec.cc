/** @file Tests of the workload suite specifications (Tables 3/4). */

#include <cstdlib>

#include <gtest/gtest.h>

#include "workload/spec.hh"

namespace tw
{
namespace
{

TEST(Spec, SuiteHasEightWorkloads)
{
    EXPECT_EQ(suiteNames().size(), 8u);
    EXPECT_EQ(makeSuite().size(), 8u);
}

TEST(Spec, FractionsSumToOne)
{
    for (const auto &wl : makeSuite()) {
        double sum =
            wl.fracKernel + wl.fracBsd + wl.fracX + wl.fracUser;
        EXPECT_NEAR(sum, 1.0, 0.01) << wl.name;
    }
}

TEST(Spec, Table4InstructionCounts)
{
    // Paper Table 4, scaled 1/100.
    WorkloadSpec mpeg = makeWorkload("mpeg_play", 100);
    EXPECT_EQ(mpeg.totalInstr, 14230000u);
    WorkloadSpec kenbus = makeWorkload("kenbus", 100);
    EXPECT_EQ(kenbus.totalInstr, 1760000u);
}

TEST(Spec, ScaleDivApplies)
{
    WorkloadSpec a = makeWorkload("xlisp", 100);
    WorkloadSpec b = makeWorkload("xlisp", 200);
    EXPECT_EQ(a.totalInstr, b.totalInstr * 2);
}

TEST(Spec, MultiTaskWorkloadsForkTrees)
{
    WorkloadSpec sdet = makeWorkload("sdet");
    EXPECT_GT(sdet.taskCount, 10u);
    EXPECT_GT(sdet.binaries.size(), 1u);
    EXPECT_LE(sdet.concurrency, sdet.taskCount);

    WorkloadSpec ouster = makeWorkload("ousterhout");
    EXPECT_EQ(ouster.taskCount, 15u); // Table 4's real count

    WorkloadSpec xlisp = makeWorkload("xlisp");
    EXPECT_EQ(xlisp.taskCount, 1u);
}

TEST(Spec, OnlyGraphicalWorkloadsUseX)
{
    EXPECT_GT(makeWorkload("mpeg_play").xProb, 0.0);
    EXPECT_GT(makeWorkload("jpeg_play").xProb, 0.0);
    EXPECT_EQ(makeWorkload("sdet").xProb, 0.0);
    EXPECT_EQ(makeWorkload("eqntott").xProb, 0.0);
}

TEST(Spec, BinariesHaveDistinctAddressRanges)
{
    for (const auto &wl : makeSuite()) {
        std::vector<std::pair<Addr, Addr>> ranges;
        for (const auto &b : wl.binaries)
            ranges.emplace_back(b.base, b.base + b.textBytes);
        ranges.emplace_back(wl.kernelText.base,
                            wl.kernelText.base
                                + wl.kernelText.textBytes);
        ranges.emplace_back(wl.bsdText.base,
                            wl.bsdText.base + wl.bsdText.textBytes);
        ranges.emplace_back(wl.xText.base,
                            wl.xText.base + wl.xText.textBytes);
        for (std::size_t i = 0; i < ranges.size(); ++i) {
            for (std::size_t j = i + 1; j < ranges.size(); ++j) {
                bool overlap = ranges[i].first < ranges[j].second
                               && ranges[j].first < ranges[i].second;
                EXPECT_FALSE(overlap)
                    << wl.name << " ranges " << i << "," << j;
            }
        }
    }
}

TEST(Spec, BurstLengthsReproduceFractions)
{
    // kernel time / user time must equal rate * burst length.
    for (const auto &wl : makeSuite()) {
        double rate = wl.syscallsPer1k / 1000.0;
        double k = rate * wl.kernelBurstLen();
        EXPECT_NEAR(k, wl.fracKernel / wl.fracUser, 1e-9) << wl.name;
        if (wl.bsdProb > 0) {
            double b = rate * wl.bsdProb * wl.bsdBurstLen();
            EXPECT_NEAR(b, wl.fracBsd / wl.fracUser, 1e-9) << wl.name;
        }
        if (wl.xProb > 0) {
            double x = rate * wl.xProb * wl.xBurstLen();
            EXPECT_NEAR(x, wl.fracX / wl.fracUser, 1e-9) << wl.name;
        }
    }
}

TEST(Spec, StreamsAreValid)
{
    for (const auto &wl : makeSuite()) {
        for (const auto &b : wl.binaries)
            b.validate();
        wl.kernelText.validate();
        wl.bsdText.validate();
        wl.xText.validate();
        EXPECT_GE(wl.kernelText.textBytes, kHandlerBytes);
    }
}

TEST(Spec, SeedsAreStablePerBinary)
{
    WorkloadSpec a = makeWorkload("sdet");
    WorkloadSpec b = makeWorkload("sdet");
    for (std::size_t i = 0; i < a.binaries.size(); ++i)
        EXPECT_EQ(a.binaries[i].seed, b.binaries[i].seed);
    // Different binaries have different seeds.
    EXPECT_NE(a.binaries[0].seed, a.binaries[1].seed);
    // Different workloads' kernels differ too.
    EXPECT_NE(makeWorkload("sdet").kernelText.seed,
              makeWorkload("kenbus").kernelText.seed);
}

TEST(SpecDeath, UnknownWorkload)
{
    EXPECT_EXIT(makeWorkload("quake"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Spec, ParseScaleDiv)
{
    EXPECT_EQ(parseScaleDiv(nullptr, 123), 123u);
    EXPECT_EQ(parseScaleDiv("50", 123), 50u);
    EXPECT_EQ(parseScaleDiv("garbage", 123), 123u);
    EXPECT_EQ(parseScaleDiv("", 123), 123u);
    EXPECT_EQ(parseScaleDiv("0", 123), 123u);
    EXPECT_EQ(parseScaleDiv("-50", 123), 123u);
    EXPECT_EQ(parseScaleDiv("50x", 123), 123u);
    EXPECT_EQ(parseScaleDiv("4294967295", 123), 4294967295u);
    EXPECT_EQ(parseScaleDiv("4294967296", 123), 123u);
}

TEST(Spec, ComponentNames)
{
    EXPECT_STREQ(componentName(Component::User), "user");
    EXPECT_STREQ(componentName(Component::Kernel), "kernel");
    EXPECT_STREQ(componentName(Component::Bsd), "bsd");
    EXPECT_STREQ(componentName(Component::X), "x");
}

} // namespace
} // namespace tw
