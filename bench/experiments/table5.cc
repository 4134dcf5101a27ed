/**
 * @file
 * Regenerates Table 5: Tapeworm miss-handling time — the
 * instruction breakdown of the optimized handler and the cycles
 * per miss, against Cache2000's cycles per address. Also reports
 * the *host* nanoseconds per operation of this implementation's two
 * engines, the modern analogue of the comparison.
 */

#include <chrono>
#include <memory>

#include "util.hh"

#include "core/cost_model.hh"
#include "core/tapeworm.hh"
#include "trace/cache2000.hh"
#include "workload/loop_nest.hh"

using namespace twbench;

namespace
{

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table5";
    def.artifact = "Table 5";
    def.description = "Tapeworm miss handling time";
    def.report = "table5_misscost";
    def.scaleDiv = 200;
    // Cost-model accounting plus host-nanosecond micro-benchmarks;
    // no RunSpec grid (host timing is intentionally non-canonical).
    def.grid = [](const RunExperimentOptions &) {
        return std::vector<ExperimentUnit>{};
    };
    def.present = [](ExperimentContext &ctx) {
        TrapCostModel cost;
        TextTable t({"routine", "instructions", "paper"});
        t.addRow({"kernel trap and return",
                  csprintf("%u", cost.kernelTrapReturn), "53"});
        t.addRow({"tw_cache_miss()", csprintf("%u", cost.twCacheMiss),
                  "23"});
        t.addRow({"tw_replace()", csprintf("%u", cost.twReplaceBase),
                  "20"});
        t.addRow({"tw_set_trap()", csprintf("%u", cost.twSetTrapBase),
                  "35"});
        t.addRow({"tw_clear_trap()",
                  csprintf("%u", cost.twClearTrapBase), "6"});
        t.addRule();
        t.addRow({"cycles per miss (DM, 4-word line)",
                  csprintf("%llu",
                           (unsigned long long)cost.missCycles(1, 1)),
                  "246"});
        t.addRow({"cycles per address, Cache2000", "53", "53"});
        ctx.print("%s\n", t.render().c_str());

        // Geometry adjustments (Section 4.1's prose).
        TextTable adj({"configuration", "handler cycles"});
        for (unsigned assoc : {1u, 2u, 4u}) {
            for (unsigned line : {16u, 32u, 64u}) {
                adj.addRow({csprintf("%u-way, %u-byte lines", assoc,
                                     line),
                            csprintf("%llu",
                                     (unsigned long long)
                                         cost.missCycles(assoc,
                                                         line / 16))});
            }
        }
        ctx.print("%s\n", adj.render().c_str());

        // Host-speed measurement: ns per simulated miss (trap
        // engine) vs ns per trace address (Cache2000), on this
        // machine.
        {
            PhysMem phys(16 * 1024 * 1024);
            TapewormConfig cfg;
            cfg.cache = CacheConfig::icache(4096);
            Tapeworm tapeworm(phys, cfg);
            StreamParams p;
            p.base = 0x400000;
            p.textBytes = 64 * 1024;
            p.ladder = {{256, 2.0}};
            Task task(1, "bench", Component::User,
                      std::make_unique<LoopNestStream>(p), 1);
            task.attr.simulate = true;
            for (Vpn v = 0; v < 16; ++v) {
                task.pageTable.map(0x400 + v,
                                   static_cast<Pfn>(100 + v));
                tapeworm.onPageMapped(task, 0x400 + v,
                                      static_cast<Pfn>(100 + v),
                                      false);
            }

            const int refs = 2'000'000;
            double t0 = nowSec();
            for (int i = 0; i < refs; ++i) {
                Addr va = task.stream->next();
                Addr pa =
                    static_cast<Addr>(task.pageTable.lookup(va))
                        * kHostPageBytes
                    + (va % kHostPageBytes);
                tapeworm.onRef(task, va, pa, false);
            }
            double trap_ns = (nowSec() - t0) / refs * 1e9;

            Cache2000Config ccfg;
            ccfg.cache = CacheConfig::icache(4096, 16, 1,
                                             Indexing::Virtual);
            Cache2000 c2k(ccfg);
            LoopNestStream stream(p);
            t0 = nowSec();
            for (int i = 0; i < refs; ++i)
                c2k.processAddr(stream.next(), 1);
            double trace_ns = (nowSec() - t0) / refs * 1e9;

            TextTable host({"engine", "host ns/reference"});
            host.addRow({"trap-driven (bit test on hits)",
                         fmtF(trap_ns, 1)});
            host.addRow({"trace-driven (search every address)",
                         fmtF(trace_ns, 1)});
            ctx.print("%s\n", host.render().c_str());
            ctx.print("misses handled: %llu; Cache2000 refs: %llu\n\n",
                      static_cast<unsigned long long>(
                          tapeworm.stats().totalMisses()),
                      static_cast<unsigned long long>(
                          c2k.stats().refs));
        }
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
