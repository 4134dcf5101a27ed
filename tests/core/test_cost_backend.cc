/**
 * @file
 * The CostBackend seam: table5 must reproduce the pre-backend
 * inline arithmetic bit-for-bit, the dram state machine must match
 * its closed-form latencies, and clone()/reset() must give the
 * per-trial independence the parallel harness relies on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/cost/cost_backend.hh"
#include "core/cost/dram_backend.hh"
#include "core/multilevel.hh"
#include "harness/specio.hh"

namespace tw
{
namespace
{

MissEvent
fillEvent(Addr pa, Cycles now = 0, unsigned assoc = 1,
          unsigned granules = 1, unsigned extra = 0)
{
    MissEvent ev;
    ev.kind = MissKind::Fill;
    ev.pa = pa;
    ev.assoc = assoc;
    ev.granulesPerLine = granules;
    ev.extraInstr = extra;
    ev.now = now;
    return ev;
}

/** All handler components zeroed: dram costs become pure DRAM
 *  timing, checkable in closed form. */
TrapCostModel
freeHandler()
{
    TrapCostModel m;
    m.kernelTrapReturn = m.twCacheMiss = m.twReplaceBase = 0;
    m.twReplacePerWay = m.twSetTrapBase = m.twSetTrapPerGranule = 0;
    m.twClearTrapBase = m.twClearTrapPerGranule = 0;
    m.cyclesPerInstr = 0.0;
    m.tlbMissCycles = 0;
    return m;
}

/** One bank, no burst, no tRAS window, no refresh: every latency
 *  below is exactly the table in dram_backend.hh. */
DramTimingParams
oneBankParams()
{
    DramTimingParams p;
    p.channels = p.ranksPerChannel = p.banksPerRank = 1;
    p.burstCycles = 0;
    p.tRAS = 0;
    p.tREFI = 0;
    return p;
}

TEST(CostBackend, Table5MatchesInlineFormula)
{
    // The exact arithmetic the simulators used to inline:
    // llround((missInstructions + extra) * cyclesPerInstr). Sweep
    // the geometries the ten fast-path configs cover plus the
    // multi-level extra-instruction components.
    TrapCostModel m;
    MultiLevelConfig l2;
    Table5Backend backend(m);
    for (unsigned assoc : {1u, 2u, 4u}) {
        for (unsigned granules : {1u, 2u, 4u}) {
            for (unsigned extra :
                 {0u, l2.l2SearchInstr,
                  l2.l2SearchInstr + l2.l2ReplaceInstr}) {
                SCOPED_TRACE(assoc);
                SCOPED_TRACE(granules);
                SCOPED_TRACE(extra);
                Cycles inline_cost =
                    static_cast<Cycles>(std::llround(
                        (m.missInstructions(assoc, granules) + extra)
                        * m.cyclesPerInstr));
                EXPECT_EQ(backend.missCycles(fillEvent(
                              0x1000, 0, assoc, granules, extra)),
                          inline_cost);
            }
        }
    }
}

TEST(CostBackend, Table5PricesTlbAtTlbMissCycles)
{
    TrapCostModel m;
    Table5Backend backend(m);
    MissEvent ev;
    ev.kind = MissKind::Tlb;
    ev.pa = 0x7000;
    EXPECT_EQ(backend.missCycles(ev), m.tlbMissCycles);
}

TEST(CostBackend, IdealFactoryUsesSection43Numbers)
{
    TrapCostModel table5;
    CostBackendConfig cfg;
    cfg.kind = CostBackendKind::Ideal;
    auto backend = makeCostBackend(cfg, table5);
    EXPECT_STREQ(backend->name(), "ideal");
    Cycles c = backend->missCycles(fillEvent(0));
    EXPECT_GE(c, 40u); // "about 50 cycles", Section 4.3
    EXPECT_LE(c, 70u);
    // The TLB refill is not part of the Section 4.3 estimate; the
    // spec's own value carries over.
    MissEvent tlb;
    tlb.kind = MissKind::Tlb;
    EXPECT_EQ(backend->missCycles(tlb), table5.tlbMissCycles);
}

TEST(CostBackend, DramConflictSpacingIsClosedForm)
{
    DramTimingParams p = oneBankParams();
    DramBackend dram(p, freeHandler());
    // Back-to-back accesses alternating between two rows of the
    // single bank, all issued at now=0: the first pays the cold
    // activate, every later one queues behind the previous access
    // and re-opens the row — costs exactly tRP + tRCD + tCAS apart.
    Cycles prev = dram.missCycles(fillEvent(0));
    EXPECT_EQ(prev, Cycles(p.tRCD + p.tCAS));
    for (int i = 1; i <= 8; ++i) {
        SCOPED_TRACE(i);
        Addr pa = (i % 2) ? p.rowBytes : 0;
        Cycles cost = dram.missCycles(fillEvent(pa));
        EXPECT_EQ(cost - prev, Cycles(p.tRP + p.tRCD + p.tCAS));
        prev = cost;
    }
    EXPECT_EQ(dram.stats().rowConflicts, 8u);
    EXPECT_EQ(dram.stats().rowHits, 0u);
}

TEST(CostBackend, DramRowHitSpacingIsClosedForm)
{
    DramTimingParams p = oneBankParams();
    DramBackend dram(p, freeHandler());
    Cycles cold = dram.missCycles(fillEvent(0));
    Cycles hit = dram.missCycles(fillEvent(64));
    // Same row, already open: only the column access, queued behind
    // the first access's completion.
    EXPECT_EQ(hit - cold, Cycles(p.tCAS));
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_EQ(dram.stats().rowConflicts, 0u);
}

TEST(CostBackend, DramHitPricesBelowConflict)
{
    // The tentpole property: a miss that hits an open row costs
    // measurably less than one that conflicts — with the default
    // (non-zero) handler on top.
    DramTimingParams p = oneBankParams();
    TrapCostModel handler;
    DramBackend hits(p, handler);
    DramBackend conflicts(p, handler);
    hits.missCycles(fillEvent(0));
    conflicts.missCycles(fillEvent(0));
    Cycles hit = hits.missCycles(fillEvent(64));
    Cycles conflict = conflicts.missCycles(fillEvent(p.rowBytes));
    EXPECT_LT(hit, conflict);
    EXPECT_EQ(conflict - hit, Cycles(p.tRP + p.tRCD));
}

TEST(CostBackend, DramRefreshEpochStallsAndClosesRows)
{
    DramTimingParams p = oneBankParams();
    p.tREFI = 100;
    p.tRFC = 1000;
    DramBackend dram(p, freeHandler());
    Cycles warm = dram.missCycles(fillEvent(0, 0));
    EXPECT_EQ(warm, Cycles(p.tRCD + p.tCAS));
    // Crossing into epoch 1 stalls for tRFC and closes the open
    // row: the same row is re-activated, not hit.
    Cycles after = dram.missCycles(fillEvent(0, 150));
    EXPECT_EQ(after, Cycles(p.tRFC + p.tRCD + p.tCAS));
    EXPECT_EQ(dram.stats().refreshes, 1u);
    EXPECT_EQ(dram.stats().rowHits, 0u);
}

TEST(CostBackend, DramTlbWalkChainsDependentReads)
{
    DramTimingParams p = oneBankParams();
    TrapCostModel handler = freeHandler();
    handler.tlbMissCycles = 300;
    DramBackend dram(p, handler);
    MissEvent ev;
    ev.kind = MissKind::Tlb;
    ev.pa = 0x4000;
    // Both page-table reads land in the one bank: a cold activate,
    // then (the VPN slices differ) a same-row or conflict access
    // serialized behind it. Whatever the row outcome, the walk must
    // cost at least two serialized column accesses on top of the
    // software refill handler.
    Cycles c = dram.missCycles(ev);
    EXPECT_GE(c, Cycles(300 + p.tRCD + 2 * p.tCAS));
}

TEST(CostBackend, DramCloneIsColdAndIndependent)
{
    DramTimingParams p = oneBankParams();
    DramBackend dram(p, freeHandler());
    dram.missCycles(fillEvent(0));
    auto clone = dram.clone();
    // The clone starts from construction state: its first access
    // pays the cold activate, not a queued row hit...
    EXPECT_EQ(clone->missCycles(fillEvent(64)),
              Cycles(p.tRCD + p.tCAS));
    // ...and pricing through the clone leaves the original's bank
    // state untouched (its open row still hits).
    Cycles cold = Cycles(p.tRCD + p.tCAS);
    EXPECT_EQ(dram.missCycles(fillEvent(64)), cold + p.tCAS);
    EXPECT_EQ(static_cast<DramBackend *>(clone.get())
                  ->stats()
                  .rowHits,
              0u);
}

TEST(CostBackend, DramResetRestoresConstructionState)
{
    DramTimingParams p = oneBankParams();
    DramBackend dram(p, freeHandler());
    dram.missCycles(fillEvent(0));
    dram.missCycles(fillEvent(64));
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_GT(dram.events(), 0u);
    dram.reset();
    EXPECT_EQ(dram.stats().rowHits, 0u);
    EXPECT_EQ(dram.events(), 0u);
    EXPECT_EQ(dram.chargedCycles(), 0u);
    EXPECT_EQ(dram.missCycles(fillEvent(64)),
              Cycles(p.tRCD + p.tCAS));
}

TEST(CostBackend, ParserAcceptsNamesAndDramParams)
{
    CostBackendConfig cfg;
    std::string err;
    ASSERT_TRUE(parseCostBackendSpec("table5", cfg, err)) << err;
    EXPECT_EQ(cfg.kind, CostBackendKind::Table5);
    EXPECT_TRUE(cfg.isDefault());

    ASSERT_TRUE(parseCostBackendSpec("ideal", cfg, err)) << err;
    EXPECT_EQ(cfg.kind, CostBackendKind::Ideal);

    ASSERT_TRUE(parseCostBackendSpec(
        "dram:tRCD=15,banks=16,tREFI=0", cfg, err))
        << err;
    EXPECT_EQ(cfg.kind, CostBackendKind::Dram);
    EXPECT_EQ(cfg.dram.tRCD, 15u);
    EXPECT_EQ(cfg.dram.banksPerRank, 16u);
    EXPECT_EQ(cfg.dram.tREFI, 0u);
    EXPECT_EQ(cfg.dram.tRP, DramTimingParams().tRP);
}

TEST(CostBackend, ParserRejectsMalformedSpecs)
{
    CostBackendConfig cfg;
    std::string err;
    EXPECT_FALSE(parseCostBackendSpec("bogus", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("", cfg, err));
    // Parameters only make sense for dram.
    EXPECT_FALSE(parseCostBackendSpec("table5:tRCD=5", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("ideal:banks=2", cfg, err));
    // Unknown key, empty value, trailing junk, degenerate geometry.
    EXPECT_FALSE(parseCostBackendSpec("dram:nope=1", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:tRCD=", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:tRCD=5x", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:banks=0", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:rowBytes=0", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:channels=0", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:ranks=0", cfg, err));
    // Values that used to wrap into another one (-1 ran as tRCD
    // 4294967295, 2^32 + 1 banks as one bank), a sign, and a bank
    // count whose product wraps to zero.
    EXPECT_FALSE(parseCostBackendSpec("dram:tRCD=-1", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:banks=4294967297", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec(
        "dram:tREFI=18446744073709551616", cfg, err));
    EXPECT_FALSE(parseCostBackendSpec("dram:tRCD=+5", cfg, err));
    EXPECT_FALSE(
        parseCostBackendSpec("dram:channels=65536,ranks=65536", cfg, err));
}

TEST(CostBackend, FormatSpecInvertsParser)
{
    CostBackendConfig cfg;
    std::string err;
    EXPECT_EQ(formatCostBackendSpec(CostBackendConfig{}), "table5");

    ASSERT_TRUE(parseCostBackendSpec("dram", cfg, err)) << err;
    EXPECT_EQ(formatCostBackendSpec(cfg), "dram");

    ASSERT_TRUE(parseCostBackendSpec("dram:tRCD=15,burst=0", cfg,
                                     err))
        << err;
    CostBackendConfig back;
    ASSERT_TRUE(parseCostBackendSpec(formatCostBackendSpec(cfg),
                                     back, err))
        << err;
    EXPECT_EQ(back, cfg);
}

TEST(CostBackend, ConfigEqualityIgnoresDramParamsOffDram)
{
    // Two table5 configs with different (unused) dram parameter
    // blocks are the same config — they run identically and must
    // not split cache keys.
    CostBackendConfig a, b;
    b.dram.tRCD = 99;
    EXPECT_EQ(a, b);
    a.kind = b.kind = CostBackendKind::Dram;
    EXPECT_NE(a, b);
}

} // namespace
} // namespace tw
