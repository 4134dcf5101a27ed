/**
 * @file
 * Two-level cache simulation with Tapeworm.
 *
 * Section 3.2: tw_replace() "can simulate different line sizes and
 * associativities, as well as more complex cache structures
 * including split, unified or multi-level caches". The trap-driven
 * realization: memory traps track the complement of the FIRST
 * level — every L1 miss raises a trap — and the handler additionally
 * searches a software model of L2 (which costs a little more per
 * miss, but only L1 misses ever reach the handler, so the speed
 * advantage stands).
 *
 * The hierarchy is inclusive: filling L1 fills L2 on an L2 miss,
 * and an L2 displacement back-invalidates L1 so L1 stays a subset
 * of L2.
 */

#ifndef TW_CORE_MULTILEVEL_HH
#define TW_CORE_MULTILEVEL_HH

#include <array>
#include <vector>

#include "base/types.hh"
#include "core/cost/cost_backend.hh"
#include "core/cost_model.hh"
#include "core/frame_registry.hh"
#include "machine/phys_mem.hh"
#include "mem/cache.hh"
#include "os/sim_client.hh"
#include "os/task.hh"

namespace tw
{

/** Configuration of a two-level Tapeworm simulation. */
struct MultiLevelConfig
{
    /** First level: its complement carries the traps. */
    CacheConfig l1;
    /** Second level; must be at least as large as L1 and share the
     *  indexing mode and line size (simplifying assumption of this
     *  implementation; the paper's claim is structural). */
    CacheConfig l2;

    bool compensateMasked = true;
    bool chargeCost = true;
    TrapCostModel cost;

    /** Who prices misses (default: cost as flat Table 5). */
    CostBackendConfig costBackend;

    /** Extra handler instructions to search the software L2. */
    unsigned l2SearchInstr = 15;
    /** Extra handler instructions when L2 also misses. */
    unsigned l2ReplaceInstr = 20;
};

/** Counters of a two-level run. */
struct MultiLevelStats
{
    std::array<Counter, kNumComponents> l1Misses{};
    std::array<Counter, kNumComponents> l2Misses{};
    Counter backInvalidates = 0; //!< L1 lines killed by L2 eviction
    Counter maskedTrapRefs = 0;
    Counter lostMaskedMisses = 0;
    Counter pagesRegistered = 0;
    Counter pagesRemoved = 0;

    Counter
    totalL1() const
    {
        Counter t = 0;
        for (Counter m : l1Misses)
            t += m;
        return t;
    }

    Counter
    totalL2() const
    {
        Counter t = 0;
        for (Counter m : l2Misses)
            t += m;
        return t;
    }

    /** Local L2 miss ratio: L2 misses per L1 miss. */
    double
    l2LocalRatio() const
    {
        Counter l1 = totalL1();
        return l1 ? static_cast<double>(totalL2())
                        / static_cast<double>(l1)
                  : 0.0;
    }
};

/**
 * Trap-driven two-level (L1 + L2) cache simulator.
 */
class TapewormMultiLevel : public SimClient
{
  public:
    TapewormMultiLevel(PhysMem &phys, const MultiLevelConfig &config);

    Cycles onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
                 AccessKind kind = AccessKind::Fetch) override;
    void onPageMapped(const Task &task, Vpn vpn, Pfn pfn,
                      bool shared) override;
    void onPageRemoved(const Task &task, Vpn vpn, Pfn pfn,
                       bool last_mapping) override;
    void onDmaInvalidate(Pfn pfn) override;
    void bindClock(const Cycles *now) override { clock_ = now; }

    /** Hits are filtered by the machine's trap bits, exactly as
     *  onRef() itself would (its first test is isTrapped). */
    TrapFilterView
    trapFilter() const override
    {
        return {phys_.rawBits(), phys_.granuleShift()};
    }

    const MultiLevelStats &stats() const { return stats_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

    /** Flat (table5) handler cost for an L1 miss that hits L2. */
    Cycles l1MissCost() const { return l1HitL2Cost_; }
    /** Flat handler cost for a miss going all the way to memory. */
    Cycles l2MissCost() const { return l2MissCost_; }

    /** The backend pricing this run's misses. */
    const CostBackend &costBackend() const { return *backend_; }

    /**
     * Invariants: (a) a registered line traps iff it is absent from
     * L1; (b) inclusion: every valid L1 line is also in L2.
     */
    bool checkInvariants() const;

  private:
    void armPage(Pfn pfn);
    /** Returns true when the software L2 serviced the miss. */
    bool handleMiss(const Task &task, Addr va, Addr pa,
                    AccessKind kind);

    PhysMem &phys_;
    MultiLevelConfig cfg_;
    Cache l1_;
    Cache l2_;
    std::unique_ptr<CostBackend> backend_;
    const Cycles *clock_ = nullptr;
    Cycles l1HitL2Cost_;
    Cycles l2MissCost_;
    unsigned granulesPerLine_;
    unsigned lineShift_;
    unsigned linesPerPage_;
    FrameRegistry frames_;
    MultiLevelStats stats_;
};

} // namespace tw

#endif // TW_CORE_MULTILEVEL_HH
