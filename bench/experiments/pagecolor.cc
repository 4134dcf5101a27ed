/**
 * @file
 * Frame-allocation policy ablation: the Table 9 variance is a
 * property of *random* page allocation specifically. Sweeping the
 * VM's allocator policy (random free list / sequential / Kessler
 * page coloring) for a physically-indexed cache shows both the mean
 * misses and the trial variance each policy produces — page
 * coloring being the "careful mapping" remedy of [Kessler92], which
 * the paper cites for exactly this discussion.
 */

#include "util.hh"

using namespace twbench;

namespace
{

const unsigned kTrials = 6;
const AllocPolicy kPolicies[] = {AllocPolicy::Random,
                                 AllocPolicy::Sequential,
                                 AllocPolicy::Coloring};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "pagecolor";
    def.artifact = "Section 4.2";
    def.description = "frame-allocation policy ablation "
                      "(mpeg_play, physical 16KB)";
    def.report = "pagecolor";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (AllocPolicy policy : kPolicies) {
            RunSpec spec = defaultSpec("mpeg_play", opts);
            spec.sys.scope = SimScope::userOnly();
            spec.sys.clockJitter = false;
            spec.sys.allocPolicy = policy;
            spec.tw.cache = CacheConfig::icache(16384, 16, 1,
                                                Indexing::Physical);
            units.push_back(unitOf(allocPolicyName(policy), spec,
                                   TrialPlan::derived(kTrials,
                                                      0xc0105)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double total_misses = 0.0;
        unsigned total_trials = 0;
        TextTable t({"policy", "mean misses", "s%", "range%"});
        for (AllocPolicy policy : kPolicies) {
            const auto &outcomes =
                ctx.outcomes(allocPolicyName(policy));
            total_misses += totalEstMisses(outcomes);
            total_trials += kTrials;
            Summary s = missSummary(outcomes);
            t.addRow({
                allocPolicyName(policy),
                fmtF(s.mean, 0),
                csprintf("%.1f%%", s.stddevPct()),
                csprintf("%.1f%%", s.rangePct()),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print(
            "Reading the table: only the Random policy varies across\n"
            "trials (the Table 9 effect); Sequential is deterministic\n"
            "but can land on a bad placement; Coloring is deterministic\n"
            "AND conflict-free (vpn and pfn agree on index bits), so it\n"
            "gives the lowest miss count — the page-placement remedy of\n"
            "[Kessler92].\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
