/**
 * @file
 * Single-pass multi-configuration simulation (Figure 1's caption:
 * "Single-pass simulators, using stack algorithms, also have a more
 * complex structure [Mattson70, Sugumar93, Thompson89]").
 *
 * Three ways to obtain the miss-ratio-versus-size curve of
 * mpeg_play's user task for eight cache sizes:
 *   (a) eight Tapeworm runs (one per size);
 *   (b) eight Cache2000 trace passes;
 *   (c) ONE pass of the Mattson LRU stack simulator.
 * The table reports the simulated overhead of each and the curves
 * they produce — including where they disagree (the stack algorithm
 * is fully-associative LRU; the paper's caches are direct-mapped).
 */

#include <memory>

#include "util.hh"

#include "mem/stack_sim.hh"
#include "workload/loop_nest.hh"

using namespace twbench;

namespace
{

const std::uint64_t kSizes[] = {1024, 2048, 4096, 8192, 16384, 32768};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "onepass";
    def.artifact = "Figure 1";
    def.description = "multi-configuration: N runs vs one stack "
                      "pass, mpeg_play user stream";
    def.report = "onepass";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (std::uint64_t size : kSizes) {
            RunSpec spec = defaultSpec("mpeg_play", opts);
            spec.sys.scope = SimScope::userOnly();
            CacheConfig cache =
                CacheConfig::icache(size, 16, 1, Indexing::Virtual);
            spec.tw.cache = cache;
            units.push_back(unitOf(
                csprintf("tw/%llu", (unsigned long long)size), spec,
                TrialPlan::one(7, true)));

            RunSpec ts = spec;
            ts.sim = SimKind::TraceDriven;
            ts.c2k.cache = cache;
            units.push_back(unitOf(
                csprintf("c2k/%llu", (unsigned long long)size), ts,
                TrialPlan::one(7, true)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        // (a)+(b): per-size runs through the harness.
        double trap_overhead = 0, trace_overhead = 0;
        std::vector<double> trap_curve, trace_curve;
        for (std::uint64_t size : kSizes) {
            const RunOutcome &trap = ctx.outcome(
                csprintf("tw/%llu", (unsigned long long)size));
            trap_overhead += trap.slowdown;
            trap_curve.push_back(trap.missRatioUser());

            const RunOutcome &trace = ctx.outcome(
                csprintf("c2k/%llu", (unsigned long long)size));
            trace_overhead += trace.slowdown;
            trace_curve.push_back(trace.missRatioUser());
        }

        // (c): one pass over the same user stream through the stack
        // simulator (all sizes at once).
        WorkloadSpec wl = makeWorkload("mpeg_play", ctx.scale());
        LoopNestStream stream(wl.binaries[0]);
        StackSim stack(16);
        Counter refs = wl.userInstr();
        for (Counter i = 0; i < refs; ++i)
            stack.access(stream.next());

        TextTable t({"size", "tapeworm m", "cache2000 m",
                     "stack (FA-LRU) m"});
        for (std::size_t i = 0; i < std::size(kSizes); ++i) {
            double stack_m =
                static_cast<double>(stack.missesForSize(kSizes[i]))
                / static_cast<double>(refs);
            t.addRow({
                csprintf("%lluK",
                         (unsigned long long)(kSizes[i] / 1024)),
                fmtF(trap_curve[i], 4),
                fmtF(trace_curve[i], 4),
                fmtF(stack_m, 4),
            });
        }
        ctx.print("%s\n", t.render().c_str());

        TextTable cost({"technique", "total slowdown for 6 sizes"});
        cost.addRow({"6 x Tapeworm runs", fmtF(trap_overhead, 1)});
        cost.addRow({"6 x Cache2000 passes", fmtF(trace_overhead, 1)});
        cost.addRow({"1 x Mattson stack pass",
                     "one trace pass (+ stack maintenance)"});
        ctx.print("%s\n", cost.render().c_str());
        ctx.print(
            "Reading the tables: the stack pass gets the whole curve\n"
            "in one sweep but is locked to fully-associative LRU — its\n"
            "column diverges at 2-8K where LRU thrashes on loops\n"
            "slightly larger than the cache (a real FA-LRU artifact the\n"
            "direct-mapped simulators do not share), and it can never\n"
            "express physical indexing, multi-task tags or OS effects.\n"
            "Tapeworm's total for all six runs is still below ONE\n"
            "Cache2000 pass.\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
