#include "core/cost/cost_backend.hh"

#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "core/cost/dram_backend.hh"
#include "obs/metrics.hh"

namespace tw
{

const char *
costBackendKindName(CostBackendKind k)
{
    switch (k) {
      case CostBackendKind::Table5:
        return "table5";
      case CostBackendKind::Ideal:
        return "ideal";
      case CostBackendKind::Dram:
        return "dram";
    }
    return "?";
}

bool
costBackendKindFromName(const std::string &name, CostBackendKind &out)
{
    if (name == "table5")
        out = CostBackendKind::Table5;
    else if (name == "ideal")
        out = CostBackendKind::Ideal;
    else if (name == "dram")
        out = CostBackendKind::Dram;
    else
        return false;
    return true;
}

CostBackend::~CostBackend()
{
    static obs::Counter events =
        obs::registry().counter("engine.cost.events");
    static obs::Counter cycles =
        obs::registry().counter("engine.cost.cycles");
    events.add(events_);
    cycles.add(cycles_);
}

Cycles
Table5Backend::compute(const MissEvent &ev)
{
    if (ev.kind == MissKind::Tlb)
        return model_.tlbMissCycles;
    std::uint64_t key = (static_cast<std::uint64_t>(ev.assoc) << 40)
                        | (static_cast<std::uint64_t>(
                               ev.granulesPerLine)
                           << 20)
                        | ev.extraInstr;
    if (key == lastKey_)
        return lastCycles_;
    lastKey_ = key;
    lastCycles_ = static_cast<Cycles>(std::llround(
        (model_.missInstructions(ev.assoc, ev.granulesPerLine)
         + ev.extraInstr)
        * model_.cyclesPerInstr));
    return lastCycles_;
}

bool
DramTimingParams::operator==(const DramTimingParams &o) const
{
    return channels == o.channels
           && ranksPerChannel == o.ranksPerChannel
           && banksPerRank == o.banksPerRank && rowBytes == o.rowBytes
           && tRCD == o.tRCD && tRP == o.tRP && tCAS == o.tCAS
           && tRAS == o.tRAS && tRFC == o.tRFC && tREFI == o.tREFI
           && burstCycles == o.burstCycles && walkReads == o.walkReads;
}

std::string
DramTimingParams::check() const
{
    if (channels == 0 || ranksPerChannel == 0 || banksPerRank == 0
        || rowBytes == 0)
        return "dram needs at least one bank and a non-zero row size";
    // totalBanks() multiplies in unsigned, so a product past 32 bits
    // would wrap (to zero banks at worst).
    std::uint64_t ranks = std::uint64_t{channels} * ranksPerChannel;
    if (ranks > std::numeric_limits<unsigned>::max() / banksPerRank)
        return "dram channels x ranks x banks does not fit 32 bits";
    return {};
}

bool
CostBackendConfig::operator==(const CostBackendConfig &o) const
{
    if (kind != o.kind)
        return false;
    // Dram params only participate when they are live; table5/ideal
    // configs with stale dram edits still compare (and serialize)
    // equal.
    if (kind == CostBackendKind::Dram)
        return dram == o.dram;
    return true;
}

std::unique_ptr<CostBackend>
makeCostBackend(const CostBackendConfig &cfg,
                const TrapCostModel &table5)
{
    switch (cfg.kind) {
      case CostBackendKind::Table5:
        return std::make_unique<Table5Backend>(table5, "table5");
      case CostBackendKind::Ideal: {
        TrapCostModel ideal = TrapCostModel::idealHardware();
        ideal.tlbMissCycles = table5.tlbMissCycles;
        return std::make_unique<Table5Backend>(ideal, "ideal");
      }
      case CostBackendKind::Dram:
        return std::make_unique<DramBackend>(cfg.dram, table5);
    }
    panic("unknown cost backend kind %d", static_cast<int>(cfg.kind));
}

} // namespace tw
