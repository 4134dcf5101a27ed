#include "core/multilevel.hh"

#include <cmath>
#include <unordered_map>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace tw
{

TapewormMultiLevel::TapewormMultiLevel(PhysMem &phys,
                                       const MultiLevelConfig &config)
    : phys_(phys), cfg_(config), l1_(config.l1), l2_(config.l2),
      frames_(phys.numFrames())
{
    cfg_.l1.validate();
    cfg_.l2.validate();
    TW_ASSERT(cfg_.l2.sizeBytes >= cfg_.l1.sizeBytes,
              "L2 must be at least as large as L1");
    TW_ASSERT(cfg_.l1.lineBytes == cfg_.l2.lineBytes,
              "this implementation keeps one line size across "
              "levels");
    TW_ASSERT(cfg_.l1.indexing == cfg_.l2.indexing,
              "levels must agree on indexing");
    TW_ASSERT(cfg_.l1.lineBytes >= phys.granuleBytes(),
              "line below host trap granule");

    lineShift_ = floorLog2(cfg_.l1.lineBytes);
    linesPerPage_ = kHostPageBytes >> lineShift_;

    granulesPerLine_ = cfg_.l1.lineBytes / phys.granuleBytes();
    unsigned base_instr =
        cfg_.cost.missInstructions(cfg_.l1.assoc, granulesPerLine_);
    l1HitL2Cost_ = static_cast<Cycles>(
        std::llround((base_instr + cfg_.l2SearchInstr)
                     * cfg_.cost.cyclesPerInstr));
    l2MissCost_ = static_cast<Cycles>(std::llround(
        (base_instr + cfg_.l2SearchInstr + cfg_.l2ReplaceInstr)
        * cfg_.cost.cyclesPerInstr));
    backend_ = makeCostBackend(cfg_.costBackend, cfg_.cost);
}

void
TapewormMultiLevel::armPage(Pfn pfn)
{
    phys_.setTrap(static_cast<Addr>(pfn) * kHostPageBytes,
                  kHostPageBytes);
}

void
TapewormMultiLevel::onPageMapped(const Task &task, Vpn vpn, Pfn pfn,
                                 bool shared)
{
    ++stats_.pagesRegistered;
    if (frames_.add(task, vpn, pfn, shared))
        armPage(pfn);
}

void
TapewormMultiLevel::onPageRemoved(const Task &task, Vpn vpn, Pfn pfn,
                                  bool last_mapping)
{
    (void)task;
    (void)vpn;
    ++stats_.pagesRemoved;
    if (!frames_.remove(pfn, last_mapping))
        return;
    l1_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    l2_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    phys_.clearTrap(static_cast<Addr>(pfn) * kHostPageBytes,
                    kHostPageBytes);
}

void
TapewormMultiLevel::onDmaInvalidate(Pfn pfn)
{
    if (!frames_.registered(pfn))
        return;
    l1_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    l2_.flushPhysPage(static_cast<Addr>(pfn), kHostPageBytes);
    armPage(pfn);
}

bool
TapewormMultiLevel::handleMiss(const Task &task, Addr va, Addr pa,
                               AccessKind kind)
{
    bool l2_hit = true;
    unsigned comp = static_cast<unsigned>(task.component);
    ++stats_.l1Misses[comp];

    Addr line_pa = alignDown(pa, cfg_.l1.lineBytes);
    phys_.clearTrap(line_pa, cfg_.l1.lineBytes);

    LineRef ref;
    ref.vaLine = va >> lineShift_;
    ref.paLine = pa >> lineShift_;
    ref.tid = task.tid;
    bool is_store = kind == AccessKind::Store;

    // Software search of the L2 model (the "hybrid" part of
    // trap-driven multi-level simulation: only L1 misses pay it).
    if (!l2_.contains(ref)) {
        l2_hit = false;
        ++stats_.l2Misses[comp];
        auto l2_victim = l2_.insert(ref, is_store);
        if (l2_victim) {
            // Inclusion: the line leaving L2 must leave L1 too; if
            // it was L1-resident its trap needs re-arming.
            if (l1_.flushPhysLine(l2_victim->paLine) > 0)
                ++stats_.backInvalidates;
            Addr vpa = l2_victim->paLine << lineShift_;
            if (frames_.registered(
                    static_cast<Pfn>(vpa / kHostPageBytes)))
                phys_.setTrap(vpa, cfg_.l1.lineBytes);
        }
    }

    auto l1_victim = l1_.insert(ref, is_store);
    if (l1_victim) {
        // The displaced L1 line stays in L2 (inclusive); it must
        // trap again so its next use can be counted as an L1 miss.
        Addr vpa = l1_victim->paLine << lineShift_;
        if (frames_.registered(static_cast<Pfn>(vpa / kHostPageBytes)))
            phys_.setTrap(vpa, cfg_.l1.lineBytes);
    }
    return l2_hit;
}

Cycles
TapewormMultiLevel::onRef(const Task &task, Addr va, Addr pa,
                          bool intr_masked, AccessKind kind)
{
    if (!phys_.isTrapped(pa)) [[likely]]
        return 0;
    if (intr_masked) {
        ++stats_.maskedTrapRefs;
        if (!cfg_.compensateMasked) {
            ++stats_.lostMaskedMisses;
            return 0;
        }
    }
    bool l2_hit = handleMiss(task, va, pa, kind);
    if (!cfg_.chargeCost)
        return 0;
    MissEvent ev;
    ev.kind = l2_hit ? MissKind::L2Hit : MissKind::Fill;
    ev.pa = alignDown(pa, cfg_.l1.lineBytes);
    ev.isWrite = kind == AccessKind::Store;
    ev.assoc = cfg_.l1.assoc;
    ev.granulesPerLine = granulesPerLine_;
    ev.lineBytes = cfg_.l1.lineBytes;
    ev.extraInstr = l2_hit
                        ? cfg_.l2SearchInstr
                        : cfg_.l2SearchInstr + cfg_.l2ReplaceInstr;
    ev.now = clock_ ? *clock_ : 0;
    return backend_->missCycles(ev);
}

bool
TapewormMultiLevel::checkInvariants() const
{
    // (b) inclusion first: every L1 line present in L2.
    for (const auto &info : l1_.validLines()) {
        LineRef ref{info.tagLine, info.paLine, info.tid};
        if (cfg_.l1.indexing == Indexing::Physical)
            ref.vaLine = info.paLine;
        if (!l2_.contains(ref))
            return false;
    }
    // (a) trap iff absent from L1 (per registered line).
    std::unordered_map<Addr, bool> l1_lines;
    for (const auto &info : l1_.validLines())
        l1_lines[info.paLine] = true;
    return frames_.all([&](Pfn pfn, const FrameRegistry::Entry &) {
        Addr page_pa = static_cast<Addr>(pfn) * kHostPageBytes;
        for (unsigned l = 0; l < linesPerPage_; ++l) {
            Addr line_pa =
                page_pa + (static_cast<Addr>(l) << lineShift_);
            bool trapped =
                phys_.anyTrapped(line_pa, cfg_.l1.lineBytes);
            bool resident = l1_lines.count(line_pa >> lineShift_);
            if (trapped == resident)
                return false;
        }
        return true;
    });
}

} // namespace tw
