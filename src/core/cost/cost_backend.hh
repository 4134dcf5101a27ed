/**
 * @file
 * Pluggable miss-cost backends.
 *
 * Every simulated miss used to be priced by the flat Table 5
 * constants compiled into the simulators. This layer lifts that
 * decision behind one seam: a simulator describes the miss it just
 * handled as a MissEvent and the attached CostBackend answers in
 * cycles. Three backends ship:
 *
 *  - table5: the paper's instruction-level handler model (the
 *    default — byte-identical to the pre-backend inline path);
 *  - ideal:  the Section 4.3 ~50-cycle better-hardware variant;
 *  - dram:   a cycle-level channel/rank/bank timing model where a
 *    miss that hits an open row costs measurably less than one
 *    that conflicts (see cost/dram_backend.hh).
 *
 * Backends may be stateful (dram is), so the contract mirrors the
 * trial harness: one backend instance per trial, reset() returns it
 * to construction state, and clone() produces an independent copy
 * with fresh statistics — per-trial instances are what keep
 * parallelFor trials bit-identical at any thread count.
 */

#ifndef TW_CORE_COST_COST_BACKEND_HH
#define TW_CORE_COST_COST_BACKEND_HH

#include <memory>
#include <string>

#include "base/types.hh"
#include "core/cost_model.hh"

namespace tw
{

/** Which backend prices misses. */
enum class CostBackendKind { Table5, Ideal, Dram };

/** Wire/CLI name of a backend kind. */
const char *costBackendKindName(CostBackendKind k);

/** Parse a backend kind name ("table5", "ideal", "dram"). */
bool costBackendKindFromName(const std::string &name,
                             CostBackendKind &out);

/** What kind of miss a CostBackend is pricing. */
enum class MissKind
{
    Fill,  //!< cache miss refilled from memory
    L2Hit, //!< L1 miss serviced by the software L2 (no memory access)
    Tlb,   //!< TLB miss (software refill / page-table walk)
};

/**
 * One handled miss, as the simulator saw it. Geometry fields feed
 * the instruction-level handler model; pa and now feed timing
 * models. now is the simulator's best-known committed cycle count
 * (0 when no clock is bound) — the fast engine charges base CPI in
 * bulk, so it may trail the exact instruction position (see
 * SimClient::bindClock), but it is monotone and identical across
 * thread counts for a given spec.
 */
struct MissEvent
{
    MissKind kind = MissKind::Fill;
    Addr pa = 0;
    bool isWrite = false;

    /** Simulated geometry (cache modes; zero/unused for Tlb). */
    unsigned assoc = 1;
    unsigned granulesPerLine = 1;
    unsigned lineBytes = 0;

    /** Extra handler instructions beyond the base Table 5 handler
     *  (the multi-level simulator's software L2 search/replace). */
    unsigned extraInstr = 0;

    Cycles now = 0;
};

/**
 * Abstract miss-cost backend: MissEvent in, cycles out.
 *
 * missCycles() also accumulates the engine.cost.{events,cycles}
 * tallies, which the destructor folds into the obs registry once
 * per instance (the Tapeworm counter-flush pattern).
 */
class CostBackend
{
  public:
    virtual ~CostBackend();

    /** Price one miss and account it. */
    Cycles
    missCycles(const MissEvent &ev)
    {
        Cycles c = compute(ev);
        ++events_;
        cycles_ += c;
        return c;
    }

    /** Return to construction state (timing state and tallies). */
    virtual void reset() { events_ = cycles_ = 0; }

    /** Independent copy with fresh state and statistics. */
    virtual std::unique_ptr<CostBackend> clone() const = 0;

    virtual const char *name() const = 0;

    Counter events() const { return events_; }
    Counter chargedCycles() const { return cycles_; }

  protected:
    virtual Cycles compute(const MissEvent &ev) = 0;

  private:
    Counter events_ = 0;
    Counter cycles_ = 0;
};

/**
 * The Table 5 instruction-level backend (also "ideal" when built
 * over TrapCostModel::idealHardware()). Stateless: reproduces the
 * pre-backend inline costs exactly —
 * llround((missInstructions + extraInstr) * cyclesPerInstr) for
 * cache misses and tlbMissCycles for TLB misses.
 */
class Table5Backend : public CostBackend
{
  public:
    explicit Table5Backend(const TrapCostModel &model,
                           const char *name = "table5")
        : model_(model), name_(name)
    {
    }

    std::unique_ptr<CostBackend>
    clone() const override
    {
        return std::make_unique<Table5Backend>(model_, name_);
    }

    const char *name() const override { return name_; }
    const TrapCostModel &model() const { return model_; }

  protected:
    Cycles compute(const MissEvent &ev) override;

  private:
    TrapCostModel model_;
    const char *name_;
    /** One-entry memo: a simulator prices one geometry all run. */
    std::uint64_t lastKey_ = ~std::uint64_t(0);
    Cycles lastCycles_ = 0;
};

/** Timing parameters of the dram backend (all in CPU cycles). */
struct DramTimingParams
{
    unsigned channels = 1;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;
    /** Row-buffer (page) size per bank. */
    unsigned rowBytes = 2048;

    unsigned tRCD = 18; //!< activate -> column command
    unsigned tRP = 18;  //!< precharge period
    unsigned tCAS = 18; //!< column command -> first data
    unsigned tRAS = 42; //!< activate -> earliest precharge
    unsigned tRFC = 280; //!< refresh cycle time
    /** Refresh interval per rank; 0 disables refresh. */
    std::uint64_t tREFI = 9750;
    /** Data-burst occupancy per access. */
    unsigned burstCycles = 4;

    /** Page-table walk reads charged per TLB miss. */
    unsigned walkReads = 2;

    unsigned totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Why no backend can be built from these; empty when one can. */
    std::string check() const;

    bool operator==(const DramTimingParams &o) const;
    bool operator!=(const DramTimingParams &o) const
    {
        return !(*this == o);
    }
};

/** Which backend a spec wants, plus its parameters. */
struct CostBackendConfig
{
    CostBackendKind kind = CostBackendKind::Table5;
    /** Only meaningful when kind == Dram. */
    DramTimingParams dram;

    /** The pre-backend behaviour (specs serialize nothing). */
    bool isDefault() const { return kind == CostBackendKind::Table5; }

    bool operator==(const CostBackendConfig &o) const;
    bool operator!=(const CostBackendConfig &o) const
    {
        return !(*this == o);
    }
};

/**
 * Build the configured backend. @p table5 carries the spec's
 * TrapCostModel parameter block: table5 uses it as-is, ideal
 * replaces the instruction counts with the Section 4.3 estimates,
 * dram uses it for the handler-overhead component.
 */
std::unique_ptr<CostBackend>
makeCostBackend(const CostBackendConfig &cfg,
                const TrapCostModel &table5);

} // namespace tw

#endif // TW_CORE_COST_COST_BACKEND_HH
