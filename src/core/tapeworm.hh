/**
 * @file
 * Tapeworm II: the trap-driven cache simulator (the paper's primary
 * contribution).
 *
 * Tapeworm resides in the kernel of the simulated machine and is
 * driven by memory traps, not by an address trace. Locations with
 * traps set are exactly the locations NOT resident in the simulated
 * cache; a reference to one raises a trap, which Tapeworm counts as
 * a miss, then it clears the trap on the missing line (caching it),
 * runs tw_replace() to pick a displaced entry, and sets a trap on
 * the displaced line (Figure 1, right). Hits run at full hardware
 * speed and never reach the simulator.
 *
 * Features from Section 3.2 implemented here:
 *  - tw_register_page()/tw_remove_page() via the VM upcalls,
 *    including the shared-frame reference count (no new traps for
 *    additional mappings of a registered frame);
 *  - set sampling: traps are placed only on lines mapping to a
 *    sampled subset of cache sets, so the host filters non-sample
 *    references at zero cost and slowdown falls in proportion;
 *  - the Table 5 cost model, charging handler cycles back into
 *    simulated time (producing real time dilation);
 *  - interrupt masking: traps cannot be delivered while the CPU has
 *    interrupts disabled; lost kernel misses are counted, and the
 *    paper's "special code around these regions" compensation is a
 *    config switch.
 */

#ifndef TW_CORE_TAPEWORM_HH
#define TW_CORE_TAPEWORM_HH

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

/** Which reference kinds a simulated cache consumes. */
enum class SimCacheKind { Instruction, Data, Unified };

/** Human-readable cache-kind name. */
const char *simCacheKindName(SimCacheKind k);

/**
 * How the HOST machine treats stores to trapped memory. On the
 * DECstation 5000/200 the no-allocate-on-write policy rewrites the
 * ECC check bits on a store without a refill, which "causes ECC
 * traps to be cleared without invoking the Tapeworm miss handlers"
 * (Section 4.4) — the reason the authors' data-cache attempts were
 * hindered there. Machines that allocate on write (e.g. the
 * WWT's SPARC host [Reinhardt93]) raise the trap normally.
 */
enum class HostWritePolicy { AllocateOnWrite, NoAllocateOnWrite };

/** How the sampled sets are selected. */
enum class SampleMode
{
    RandomSets,   //!< uniform random subset (seeded)
    ConstantBits, //!< congruence class of the low index bits
};

/** Configuration of one Tapeworm cache simulation. */
struct TapewormConfig
{
    CacheConfig cache;

    /** Which references this simulation consumes. */
    SimCacheKind kind = SimCacheKind::Instruction;

    /** Host behaviour for stores to trapped locations (only
     *  relevant for Data/Unified simulations). */
    HostWritePolicy hostWrite = HostWritePolicy::AllocateOnWrite;

    /** Sample sampleNum/sampleDenom of the cache sets (1/1 = no
     *  sampling). */
    unsigned sampleNum = 1;
    unsigned sampleDenom = 1;
    /** Which sets form the sample (a new seed gives a new sample,
     *  "simply by changing the pattern of traps"). In ConstantBits
     *  mode the seed selects the congruence class. */
    std::uint64_t sampleSeed = 0;
    SampleMode sampleMode = SampleMode::RandomSets;

    /** Apply the paper's special-code compensation for references
     *  made with interrupts masked. */
    bool compensateMasked = true;

    /** Charge handler cycles into simulated time. */
    bool chargeCost = true;

    TrapCostModel cost;

    /** Who prices misses (default: cost as flat Table 5). */
    CostBackendConfig costBackend;

    double
    sampledFraction() const
    {
        return static_cast<double>(sampleNum)
               / static_cast<double>(sampleDenom);
    }
};

/** Counters Tapeworm accumulates during a run. */
struct TapewormStats
{
    /** Raw (un-scaled) misses per workload component. */
    std::array<Counter, kNumComponents> misses{};
    /** Misses broken down by reference kind. */
    std::array<Counter, 3> missesByKind{};
    /** Stores that silently cleared a trap without a miss being
     *  recorded (no-allocate-on-write hosts; Section 4.4). */
    Counter silentTrapClears = 0;
    /** Trap references that arrived with interrupts masked. */
    Counter maskedTrapRefs = 0;
    /** Of those, misses lost because compensation was off. */
    Counter lostMaskedMisses = 0;
    Counter trapsSet = 0;
    Counter trapsCleared = 0;
    Counter pagesRegistered = 0;
    Counter pagesRemoved = 0;
    Counter sharedRegistrations = 0;
    Counter dmaFlushedLines = 0;

    Counter
    totalMisses() const
    {
        Counter t = 0;
        for (Counter m : misses)
            t += m;
        return t;
    }
};

/**
 * The kernel-resident trap-driven simulator.
 */
class Tapeworm : public SimClient
{
  public:
    /**
     * @param phys the machine's physical memory (trap bits).
     * @param config simulation configuration.
     */
    Tapeworm(PhysMem &phys, const TapewormConfig &config);

    /** Folds trap-delivery tallies into the obs registry. */
    ~Tapeworm() override;

    // SimClient interface (the machine drives these).
    Cycles onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
                 AccessKind kind = AccessKind::Fetch) override;
    void onPageMapped(const Task &task, Vpn vpn, Pfn pfn,
                      bool shared) override;
    void onPageRemoved(const Task &task, Vpn vpn, Pfn pfn,
                       bool last_mapping) override;
    void onDmaInvalidate(Pfn pfn) override;
    void bindClock(const Cycles *now) override { clock_ = now; }

    /** onRef()'s first act is the phys_.isTrapped(pa) test, so the
     *  machine may perform exactly that test inline and skip the
     *  call on hits — the trap bits ARE the dispatch filter. The
     *  kind mask narrows delivery further: on a set bit, onRef()
     *  only does anything for kinds the simulated cache consumes,
     *  plus stores when the no-allocate-on-write host silently
     *  clears their traps. Registration arms whole pages but only
     *  consumed kinds ever refill them, so e.g. an I-cache run's
     *  data pages stay trapped forever — the mask is what keeps
     *  those loads out of the dispatch path. */
    TrapFilterView
    trapFilter() const override
    {
        unsigned kinds = 0;
        for (AccessKind k : {AccessKind::Fetch, AccessKind::Load,
                             AccessKind::Store}) {
            if (consumes(k))
                kinds |= TrapFilterView::kindBit(k);
        }
        if (cfg_.hostWrite == HostWritePolicy::NoAllocateOnWrite)
            kinds |= TrapFilterView::kindBit(AccessKind::Store);
        return {phys_.rawBits(), phys_.granuleShift(), kinds};
    }

    const TapewormStats &stats() const { return stats_; }
    const TapewormConfig &config() const { return cfg_; }

    /** Raw misses scaled by the inverse sampling fraction — the set
     *  sampling estimator for total misses. */
    double estimatedTotalMisses() const;

    /** Estimated misses of one component (scaled like above). */
    double estimatedMisses(Component c) const;

    /** The flat (table5) handler cost per miss; time-dependent
     *  backends charge per-event via costBackend() instead. */
    Cycles missCost() const { return missCost_; }

    /** The backend pricing this run's misses. */
    const CostBackend &costBackend() const { return *backend_; }

    /** Is a set part of the sample? */
    bool setSampled(std::uint64_t set_index) const;

    /** The simulated cache structure (tests/diagnostics). */
    const Cache &cache() const { return cache_; }

    /** Number of pages currently registered. */
    std::size_t registeredPages() const { return frames_.size(); }

    /**
     * Verify the core trap/residence duality: for every registered
     * page, a sampled line has a trap set iff it is absent from the
     * simulated cache. Returns true when the invariant holds.
     */
    bool checkInvariants() const;

  private:
    bool consumes(AccessKind kind) const;
    void handleMiss(const Task &task, Addr va, Addr pa,
                    AccessKind kind);
    void armPage(const FrameRegistry::Entry &reg, Pfn pfn);
    LineRef lineRefFor(const FrameRegistry::Entry &reg, Pfn pfn,
                       unsigned line_in_page) const;

    PhysMem &phys_;
    TapewormConfig cfg_;
    Cache cache_;
    std::unique_ptr<CostBackend> backend_;
    const Cycles *clock_ = nullptr;
    Cycles missCost_;
    unsigned granulesPerLine_;
    unsigned lineShift_;
    unsigned linesPerPage_;
    bool allSampled_;
    std::vector<bool> sampledSets_;
    FrameRegistry frames_;
    TapewormStats stats_;
};

} // namespace tw

#endif // TW_CORE_TAPEWORM_HH
