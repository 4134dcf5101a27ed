/**
 * @file
 * Regenerates the Section 4.1 break-even analysis: "a rough
 * break-even ratio of 4 hits to 1 miss before Tapeworm becomes
 * slower than Cache2000". Sweeps the simulated miss ratio with a
 * tunable synthetic workload and reports both simulators' overhead
 * per reference (the cost-model view) and their measured slowdowns
 * (the whole-system view).
 */

#include "util.hh"

#include "core/cost_model.hh"

using namespace twbench;

namespace
{

const char *const kWorkloads[] = {"xlisp", "mpeg_play"};
const std::uint64_t kSizes[] = {512ull, 1024ull, 4096ull, 16384ull};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "breakeven";
    def.artifact = "Section 4.1";
    def.description = "trap-driven vs trace-driven break-even";
    def.report = "breakeven";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const char *name : kWorkloads) {
            for (std::uint64_t bytes : kSizes) {
                RunSpec spec = defaultSpec(name, opts);
                spec.sys.scope = SimScope::userOnly();
                CacheConfig cache = CacheConfig::icache(
                    bytes, 16, 1, Indexing::Virtual);
                spec.tw.cache = cache;
                units.push_back(unitOf(
                    csprintf("tw/%s/%lluB", name,
                             (unsigned long long)bytes),
                    spec, TrialPlan::one(11, true)));

                RunSpec ts = spec;
                ts.sim = SimKind::TraceDriven;
                ts.c2k.cache = cache;
                units.push_back(unitOf(
                    csprintf("c2k/%s/%lluB", name,
                             (unsigned long long)bytes),
                    ts, TrialPlan::one(11, true)));
            }
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        // Cost-model view: overhead cycles per reference as a
        // function of miss ratio m. Tapeworm: 246*m.
        // Cache2000+Pixie: per-addr cost regardless of m (~100
        // calibrated; 53-60 in Table 5's accounting).
        TrapCostModel cost;
        double per_miss = static_cast<double>(cost.missCycles(1, 1));
        TextTable model({"miss ratio", "tapeworm cyc/ref",
                         "cache2000 cyc/ref (53-60)",
                         "cache2000 cyc/ref (calibrated 100)"});
        for (double m :
             {0.01, 0.05, 0.10, 0.20, 0.22, 0.25, 0.30, 0.40}) {
            model.addRow({fmtF(m, 2), fmtF(per_miss * m, 1), "53-60",
                          "100"});
        }
        ctx.print("%s", model.render().c_str());
        ctx.print("Table 5 accounting break-even: m = 53..60/246 = "
                  "%.2f..%.2f (the paper's '4 hits to 1 miss').\n\n",
                  53.0 / per_miss, 60.0 / per_miss);

        // Whole-system view: sweep cache size on single-task
        // workloads (Pixie can only trace one task, so multi-task
        // workloads would tilt the comparison) and compare measured
        // slowdowns.
        TextTable sys({"workload", "cache", "missRatio.user",
                       "tw.slow", "c2k.slow", "winner"});
        for (const char *name : kWorkloads) {
            for (std::uint64_t bytes : kSizes) {
                const RunOutcome &trap = ctx.outcome(
                    csprintf("tw/%s/%lluB", name,
                             (unsigned long long)bytes));
                const RunOutcome &trace = ctx.outcome(
                    csprintf("c2k/%s/%lluB", name,
                             (unsigned long long)bytes));
                sys.addRow({
                    name,
                    csprintf("%lluB", (unsigned long long)bytes),
                    fmtF(trap.missRatioUser(), 3),
                    fmtF(trap.slowdown, 2),
                    fmtF(trace.slowdown, 2),
                    trap.slowdown < trace.slowdown ? "tapeworm"
                                                   : "cache2000",
                });
            }
        }
        ctx.print("%s\n", sys.render().c_str());
        ctx.print("Shape target: with the full per-address cost "
                  "(annotation + simulation), the trap-driven "
                  "simulator wins at every realistic miss ratio; only "
                  "pathological (>~40%%) miss ratios favour the "
                  "trace-driven loop.\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
