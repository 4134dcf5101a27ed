/**
 * @file
 * A hybrid annotation-based simulator (Section 2's third family).
 *
 * "Other work shares some of the properties of both trace-driven
 * and trap-driven simulation [Cmelik94, Lebeck94, Martonosi92].
 * These hybrid approaches annotate a program to invoke simulation
 * handlers on every memory reference. In these systems, simulations
 * can be optimized by calling a null handler on memory locations
 * known to be in a simulated cache or TLB."
 *
 * HybridClient models that family (Fast-Cache / MemSpy style):
 * every reference of the annotated task costs at least a null
 * handler call (a few cycles of inline check), and references that
 * miss the simulated cache run a full software handler — cheaper
 * than a kernel trap, since no privilege crossing happens, but paid
 * in user mode on every reference. Like Pixie, annotation is
 * per-binary: kernel and other tasks stay invisible.
 *
 * The resulting speed regime sits between the two main techniques:
 * a per-reference floor like trace-driven (but much lower), and
 * miss-proportional growth like trap-driven (but with a cheaper
 * handler). `bench_driver --run hybrid` shows the crossovers.
 */

#ifndef TW_TRACE_HYBRID_HH
#define TW_TRACE_HYBRID_HH

#include "base/bitops.hh"
#include "base/types.hh"
#include "mem/cache.hh"
#include "os/sim_client.hh"
#include "os/task.hh"

namespace tw
{

/** Cost/configuration of the hybrid simulator. */
struct HybridConfig
{
    CacheConfig cache;

    /** Cycles of the inlined "is it resident?" check + null handler
     *  (Fast-Cache reports a handful of instructions). */
    Cycles nullHandlerCycles = 5;

    /** Cycles of the full user-mode miss handler — no kernel trap,
     *  so far cheaper than Tapeworm's 246 but paid in-line. */
    Cycles missHandlerCycles = 80;
};

/** Counters of a hybrid run. */
struct HybridStats
{
    Counter refs = 0;   //!< annotated references processed
    Counter misses = 0;
    Cycles cycles = 0;  //!< total instrumentation cycles
};

/**
 * Annotation-based single-task cache simulator.
 */
class HybridClient : public SimClient
{
  public:
    /** @param target the annotated task (single binary, like
     *  Pixie). */
    HybridClient(TaskId target, const HybridConfig &config)
        : target_(target), cfg_(config), cache_(config.cache),
          lineShift_(floorLog2(config.cache.lineBytes))
    {
    }

    Cycles
    onRef(const Task &task, Addr va, Addr pa, bool intr_masked,
          AccessKind kind = AccessKind::Fetch) override
    {
        (void)pa;
        (void)intr_masked;
        if (task.tid != target_ || kind != AccessKind::Fetch)
            return 0;
        ++stats_.refs;

        LineRef ref;
        ref.vaLine = va >> lineShift_;
        ref.paLine = ref.vaLine;
        ref.tid = task.tid;

        // The annotation always runs: known-resident lines take the
        // null handler; everything else runs the full handler.
        Cycles cost = cfg_.nullHandlerCycles;
        if (!cache_.contains(ref)) {
            ++stats_.misses;
            cache_.insert(ref);
            cost += cfg_.missHandlerCycles;
        }
        stats_.cycles += cost;
        return cost;
    }

    const HybridStats &stats() const { return stats_; }
    const Cache &cache() const { return cache_; }

  private:
    TaskId target_;
    HybridConfig cfg_;
    Cache cache_;
    unsigned lineShift_;
    HybridStats stats_;
};

} // namespace tw

#endif // TW_TRACE_HYBRID_HH
