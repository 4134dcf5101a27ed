/**
 * @file
 * Figure 4's dilation sweep re-priced by the cycle-level DRAM
 * backend, next to the flat Table 5 model it replaces. The paper's
 * handler costs charge every miss the same; a banked DRAM charges a
 * miss that re-opens a conflicting row ~3x what a row-buffer hit
 * costs, so the dilation a trap-driven run reports becomes a
 * function of CONTENTION, not just miss count. Each sampling denom
 * runs under both backends; the table shows them side by side and
 * the BENCH report carries the row-hit/row-conflict tallies that
 * explain the gap.
 */

#include <cmath>

#include "core/cost/cost_backend.hh"
#include "obs/metrics.hh"
#include "util.hh"

using namespace twbench;

namespace
{

const unsigned kTrials = 3;
const unsigned kDenoms[] = {16u, 8u, 4u, 2u, 1u};

RunSpec
dilationSpec(const RunExperimentOptions &opts, unsigned denom,
             CostBackendKind kind)
{
    RunSpec spec = defaultSpec("mpeg_play", opts);
    spec.sys.scope = SimScope::all();
    spec.tw.cache = CacheConfig::icache(4096, 16, 1,
                                        Indexing::Physical);
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = denom;
    // Both sides are pinned explicitly: this experiment IS the
    // backend comparison, so --cost-backend must not skew either.
    spec.tw.costBackend = CostBackendConfig{};
    spec.tw.costBackend.kind = kind;
    spec.tlb.costBackend = spec.tw.costBackend;
    return spec;
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "dram_dilation";
    def.artifact = "Figure 4 (dram)";
    def.description = "time dilation under the cycle-level dram "
                      "cost backend vs the flat Table 5 model";
    def.report = "dram_dilation";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (unsigned denom : kDenoms) {
            units.push_back(unitOf(
                csprintf("dram:1/%u", denom),
                dilationSpec(opts, denom, CostBackendKind::Dram),
                TrialPlan::derived(kTrials, 0xd4a1, true)));
            units.push_back(unitOf(
                csprintf("table5:1/%u", denom),
                dilationSpec(opts, denom, CostBackendKind::Table5),
                TrialPlan::derived(kTrials, 0xd4a1, true)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        TextTable t({"sampling", "dram.dil", "table5.dil",
                     "dram.misses(10^6)", "table5.misses(10^6)"});
        double max_rel_gap = 0.0;
        unsigned total_trials = 0;
        for (unsigned denom : kDenoms) {
            auto dil = [&](const char *backend) {
                const auto &outcomes = ctx.outcomes(
                    csprintf("%s:1/%u", backend, denom));
                return meanOf(outcomes, [](const RunOutcome &o) {
                    return o.slowdown;
                });
            };
            auto misses = [&](const char *backend) {
                const auto &outcomes = ctx.outcomes(
                    csprintf("%s:1/%u", backend, denom));
                return meanOf(outcomes, [](const RunOutcome &o) {
                    return o.estMisses;
                });
            };
            double dram_dil = dil("dram");
            double flat_dil = dil("table5");
            if (flat_dil > 0.0) {
                double rel =
                    std::abs(dram_dil - flat_dil) / flat_dil;
                if (rel > max_rel_gap)
                    max_rel_gap = rel;
            }
            t.addRow({
                csprintf("1/%u", denom),
                fmtF(dram_dil, 2),
                fmtF(flat_dil, 2),
                fmtF(paperMillions(misses("dram"), ctx.scale()), 2),
                fmtF(paperMillions(misses("table5"), ctx.scale()),
                     2),
            });
            total_trials += 2 * kTrials;
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: dram dilation tracks the flat "
                  "model's growth with sampling depth but diverges "
                  "from it — row-buffer hits price below Table 5's "
                  "flat miss cost, row conflicts above it.\n");
        // The banked-state tallies the dram trials flushed into the
        // obs registry (dram backends only; the table5 side cannot
        // contribute). These are what make the BENCH report
        // self-describing about WHY the dilation moved.
        auto obs_total = [](const char *name) {
            return static_cast<double>(
                obs::registry().counter(name).value());
        };
        ctx.metric("trials", total_trials);
        ctx.metric("dram_row_hits",
                   obs_total("engine.cost.row_hits"));
        ctx.metric("dram_row_conflicts",
                   obs_total("engine.cost.row_conflicts"));
        ctx.metric("dram_refreshes",
                   obs_total("engine.cost.refreshes"));
        ctx.metric("max_rel_dilation_gap", max_rel_gap);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
