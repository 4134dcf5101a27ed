/**
 * @file
 * TLB simulation with page-valid-bit traps.
 *
 * The first-generation Tapeworm was a TLB simulator on the R2000's
 * software-managed TLB [Nagle93]; Tapeworm II keeps that mode using
 * page-valid-bit traps (Section 3.2: "for TLB simulation, where the
 * granularity is large, page valid bits are most effective"). This
 * example sweeps TLB sizes and associativities for a multi-task
 * workload and shows the kernel/server share of TLB misses — the
 * phenomenon that motivated the original Tapeworm studies.
 *
 * Usage: tlb_explorer [workload]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/table.hh"
#include "core/tapeworm_tlb.hh"
#include "os/system.hh"
#include "workload/spec.hh"

using namespace tw;

namespace
{

TapewormTlbStats
runTlb(const std::string &workload, unsigned scale, unsigned entries,
       unsigned assoc)
{
    WorkloadSpec wl = makeWorkload(workload, scale);
    SystemConfig cfg;
    cfg.trialSeed = 7;
    cfg.scope = SimScope::all();
    System system(cfg, wl);

    TapewormTlbConfig tlb_cfg;
    tlb_cfg.tlb = CacheConfig::tlb(entries, assoc);
    TapewormTlb tlb(tlb_cfg);
    system.setClient(&tlb);
    system.run();
    return tlb.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "ousterhout";
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 200);

    std::printf("TLB exploration for '%s' (scaled 1/%u), "
                "page-valid-bit traps\n\n",
                workload.c_str(), scale);

    std::printf("sweep 1: fully-associative TLB size (the R3000 had "
                "64 entries)\n");
    TextTable t({"entries", "misses", "user", "kernel", "servers"});
    for (unsigned entries : {8u, 16u, 32u, 64u, 128u}) {
        TapewormTlbStats s = runTlb(workload, scale, entries, 0);
        double servers =
            static_cast<double>(
                s.misses[static_cast<unsigned>(Component::Bsd)])
            + static_cast<double>(
                s.misses[static_cast<unsigned>(Component::X)]);
        t.addRow({
            csprintf("%u", entries),
            csprintf("%llu",
                     static_cast<unsigned long long>(s.totalMisses())),
            csprintf("%llu",
                     static_cast<unsigned long long>(
                         s.misses[static_cast<unsigned>(
                             Component::User)])),
            csprintf("%llu",
                     static_cast<unsigned long long>(
                         s.misses[static_cast<unsigned>(
                             Component::Kernel)])),
            fmtF(servers, 0),
        });
    }
    std::printf("%s\n", t.render().c_str());

    std::printf("sweep 2: associativity at 64 entries (set-assoc "
                "TLBs conflict on hot pages)\n");
    TextTable t2({"organisation", "misses"});
    for (unsigned assoc : {1u, 2u, 4u, 8u, 0u}) {
        TapewormTlbStats s = runTlb(workload, scale, 64, assoc);
        t2.addRow({
            assoc == 0 ? std::string("fully assoc")
                       : csprintf("%u-way", assoc),
            csprintf("%llu",
                     static_cast<unsigned long long>(s.totalMisses())),
        });
    }
    std::printf("%s\n", t2.render().c_str());

    std::printf("Note: replacement is FIFO — a trap-driven simulator "
                "never sees hits, so true LRU cannot be simulated "
                "(Section 4.4's flexibility limits).\n");
    return 0;
}
