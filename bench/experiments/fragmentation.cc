/**
 * @file
 * TLB miss drift in a long-running system (Section 4.2): "we have
 * observed gradual (but substantial) increases in TLB misses due to
 * kernel and server memory fragmentation in a long-running system."
 *
 * A fragmenting kernel-data reference stream (working set spreads
 * over ever more pages as the system ages) drives the TLB-mode
 * Tapeworm; misses per million references climb window by window —
 * a real system effect that a canned trace, recorded once, can
 * never show. The second panel shows that a larger TLB postpones
 * the drift.
 */

#include <memory>

#include "util.hh"

#include "core/tapeworm_tlb.hh"
#include "workload/fragmenting.hh"

using namespace twbench;

namespace
{

/** Run @p windows windows of @p window_refs refs; returns misses
 *  per window. */
std::vector<Counter>
drift(unsigned tlb_entries, unsigned windows, Counter window_refs)
{
    FragmentingParams params;
    params.base = 0x400000;
    params.basePages = 16;
    params.maxPages = 512;
    params.refsPerNewPage = 12000;
    params.seed = 5;

    TapewormTlbConfig cfg;
    cfg.tlb = CacheConfig::tlb(tlb_entries);
    TapewormTlb tlb(cfg);

    Task task(1, "aging-kernel", Component::Kernel,
              std::make_unique<FragmentingStream>(params), 1);
    task.attr.simulate = true;

    std::vector<Counter> misses;
    Counter prev = 0;
    for (unsigned w = 0; w < windows; ++w) {
        for (Counter i = 0; i < window_refs; ++i) {
            Addr va = task.stream->next();
            Vpn vpn = va / kHostPageBytes;
            if (task.pageTable.mappedFrame(vpn) == kNoFrame) {
                Pfn pfn = static_cast<Pfn>(100 + vpn - 0x400);
                task.pageTable.map(vpn, pfn);
                tlb.onPageMapped(task, vpn, pfn, false);
            }
            Addr pa = static_cast<Addr>(task.pageTable.lookup(va))
                          * kHostPageBytes
                      + (va % kHostPageBytes);
            tlb.onRef(task, va, pa, false);
        }
        Counter total = tlb.stats().totalMisses();
        misses.push_back(total - prev);
        prev = total;
    }
    return misses;
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "fragmentation";
    def.artifact = "Section 4.2";
    def.description = "TLB miss drift from memory fragmentation "
                      "in a long-running system";
    def.report = "fragmentation";
    def.scaleDiv = 1;
    def.fixedScale = true; // synthetic stream, not a scaled workload
    def.grid = [](const RunExperimentOptions &) {
        return std::vector<ExperimentUnit>{};
    };
    def.present = [](ExperimentContext &ctx) {
        const unsigned windows = 8;
        const Counter window_refs = 250000;

        TextTable t({"window", "64-entry TLB", "128-entry",
                     "256-entry"});
        auto d64 = drift(64, windows, window_refs);
        auto d128 = drift(128, windows, window_refs);
        auto d256 = drift(256, windows, window_refs);
        for (unsigned w = 0; w < windows; ++w) {
            t.addRow({
                csprintf("%u", w + 1),
                csprintf("%llu", (unsigned long long)d64[w]),
                csprintf("%llu", (unsigned long long)d128[w]),
                csprintf("%llu", (unsigned long long)d256[w]),
            });
        }
        ctx.print("TLB misses per %llu-reference window as the "
                  "kernel's data fragments:\n%s\n",
                  (unsigned long long)window_refs,
                  t.render().c_str());
        ctx.print("Shape targets: misses climb gradually but "
                  "substantially window over window once the live "
                  "page set outgrows TLB reach; bigger TLBs delay the "
                  "onset. A trace captured in window 1 would never "
                  "predict window 8 — the continuous-monitoring "
                  "argument of Section 5.\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
