/**
 * @file
 * The interface between the simulated OS and an attached memory
 * simulator.
 *
 * Three kinds of client implement this interface:
 *  - core/Tapeworm       — the trap-driven simulator (the paper);
 *  - trace/PixieCache2000 — the trace-driven baseline;
 *  - harness/OracleClient — a zero-cost direct cache model used to
 *    validate both (Section 4.2's validation methodology).
 *
 * onRef() is called for every executed instruction and returns the
 * extra simulated cycles the instrumentation consumed — this is how
 * simulation overhead feeds back into simulated time and produces
 * the paper's time-dilation bias (Figure 4).
 */

#ifndef TW_OS_SIM_CLIENT_HH
#define TW_OS_SIM_CLIENT_HH

#include <cstdint>

#include "base/types.hh"
#include "os/page_table.hh"

namespace tw
{

class Task;

/**
 * A read-only view of a client's trap bits, used by the machine to
 * filter hit references out of the dispatch path — the software
 * analogue of the paper's "host hardware filters hits" property.
 *
 * A client that returns a non-null view guarantees that onRef() is a
 * side-effect-free no-op returning 0 cycles whenever the bit for the
 * referenced physical address is clear OR the access kind is not in
 * the view's kind mask, so the machine may skip the virtual call
 * entirely. A null view (bits == nullptr) means the client must
 * observe every reference.
 *
 * The kind mask matters because a trap bit only says "some client
 * state watches this granule", not "this access kind can do
 * anything": an instruction-cache Tapeworm arms a task's data pages
 * too (registration is per page, residency is per line), yet a load
 * to one of those forever-trapped granules is still a guaranteed
 * no-op. Without the mask every data reference of an I-cache run
 * would take the virtual call just to be ignored.
 *
 * The bit array must stay valid and at a fixed address for the
 * lifetime of the run (the machine caches the view once at run()
 * start); the bits themselves may change freely as traps are set and
 * cleared. The kind mask is fixed for the run.
 */
/** Bit for one AccessKind in a TrapFilterView kind mask. */
constexpr unsigned
trapKindBit(AccessKind k)
{
    return 1u << static_cast<unsigned>(k);
}

struct TrapFilterView
{
    /** Bit for one AccessKind in TrapFilterView::kinds. */
    static constexpr unsigned
    kindBit(AccessKind k)
    {
        return trapKindBit(k);
    }

    /** Mask accepting every access kind. */
    static constexpr unsigned kAllKinds =
        trapKindBit(AccessKind::Fetch) | trapKindBit(AccessKind::Load)
        | trapKindBit(AccessKind::Store);

    const std::uint64_t *bits = nullptr;
    unsigned shift = 0; //!< log2 of the trap granule in bytes
    unsigned kinds = kAllKinds; //!< kinds needing delivery on a set bit

    /** May a reference to @p pa need delivery? */
    bool
    test(Addr pa) const
    {
        std::uint64_t g = pa >> shift;
        return (bits[g >> 6] >> (g & 63)) & 1;
    }

    /** Does @p k ever need delivery? */
    bool wants(AccessKind k) const { return kinds & kindBit(k); }

    /** Two views over the same storage filter identically. */
    bool
    same(const TrapFilterView &o) const
    {
        return bits == o.bits && shift == o.shift
               && kinds == o.kinds;
    }
};

/**
 * Observer/participant hooks for memory simulation.
 */
class SimClient
{
  public:
    virtual ~SimClient() = default;

    /**
     * The trap bits that gate onRef() delivery (see TrapFilterView).
     * Trap-driven clients (Tapeworm and friends) return the bits
     * they already test first thing in onRef(); trace-driven clients
     * keep the null default because they must see every reference.
     */
    virtual TrapFilterView trapFilter() const { return {}; }

    /**
     * One memory reference was executed.
     *
     * @param task the running task.
     * @param va referenced virtual address.
     * @param pa translated physical address.
     * @param intr_masked the CPU is running with interrupts masked
     *        (ECC traps cannot be delivered; Section 4.2 "Sources
     *        of Measurement Bias").
     * @param kind fetch, load or store.
     * @return extra cycles consumed by instrumentation.
     */
    virtual Cycles onRef(const Task &task, Addr va, Addr pa,
                         bool intr_masked,
                         AccessKind kind = AccessKind::Fetch) = 0;

    /**
     * Give the client a read-only view of the machine's committed
     * cycle counter (called once, when the client is attached).
     * Time-dependent cost backends read it to order misses in
     * simulated time. The pointer stays valid for the run and the
     * value is monotone. The fast engine charges base CPI in bulk —
     * for a filtered client after each step that charges cycles and
     * when a batch of steps reaches its horizon, and for the clock
     * handler when it returns — so at a call the value may trail the
     * exact instruction position; the oracle engine keeps it exact
     * everywhere. Clients that don't care keep the no-op default.
     */
    virtual void bindClock(const Cycles *now) { (void)now; }

    /**
     * The VM system mapped a page of a task whose simulate
     * attribute is set (the tw_register_page() call site).
     *
     * @param shared another registered mapping of the same frame
     *        already exists.
     */
    virtual void
    onPageMapped(const Task &task, Vpn vpn, Pfn pfn, bool shared)
    {
        (void)task;
        (void)vpn;
        (void)pfn;
        (void)shared;
    }

    /**
     * The VM system unmapped a registered page (the
     * tw_remove_page() call site).
     *
     * @param last_mapping no registered mapping of the frame
     *        remains.
     */
    virtual void
    onPageRemoved(const Task &task, Vpn vpn, Pfn pfn, bool last_mapping)
    {
        (void)task;
        (void)vpn;
        (void)pfn;
        (void)last_mapping;
    }

    /** A DMA transfer invalidated the frame's lines in the real
     *  cache; simulated caches must do the same. */
    virtual void onDmaInvalidate(Pfn pfn) { (void)pfn; }
};

} // namespace tw

#endif // TW_OS_SIM_CLIENT_HH
