/**
 * @file
 * Table 9: measurement variation due to page allocation alone.
 * Sampling is off; only the mpeg_play user task is simulated. A
 * physically-indexed cache sees different frame placements per
 * trial; a virtually-indexed cache is placement-independent. Four
 * trials per point, like the paper.
 */

#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    unsigned kb;
    double phys_mean, phys_sd, virt_mean, virt_sd;
};

// Table 9 as published (misses x 10^6).
const PaperRow kPaper[] = {
    {4, 37.81, 0.09, 37.75, 0.00},  {8, 22.38, 5.89, 14.03, 0.00},
    {16, 12.07, 4.84, 10.20, 0.00}, {32, 9.01, 5.62, 1.90, 0.00},
    {64, 5.83, 5.96, 1.38, 0.00},   {128, 2.92, 4.60, 0.28, 0.00},
};

const unsigned kTrials = 4;

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table9";
    def.artifact = "Table 9";
    def.description = "variation due to page allocation "
                      "(mpeg_play, user only, no sampling)";
    def.report = "table9_pagealloc";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            RunSpec spec = defaultSpec("mpeg_play", opts);
            spec.sys.scope = SimScope::userOnly();
            spec.sys.clockJitter = false; // isolate page allocation

            spec.tw.cache = CacheConfig::icache(paper.kb * 1024ull,
                                                16, 1,
                                                Indexing::Physical);
            units.push_back(unitOf(csprintf("phys/%uK", paper.kb),
                                   spec,
                                   TrialPlan::derived(kTrials,
                                                      0x9a9e)));

            spec.tw.cache = CacheConfig::icache(paper.kb * 1024ull,
                                                16, 1,
                                                Indexing::Virtual);
            units.push_back(unitOf(csprintf("virt/%uK", paper.kb),
                                   spec,
                                   TrialPlan::derived(kTrials,
                                                      0x9a9e)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double total_misses = 0.0;
        unsigned total_trials = 0;
        TextTable t({"size", "phys.mean", "phys.s", "virt.mean",
                     "virt.s", "paper.phys", "paper.virt"});
        for (const auto &paper : kPaper) {
            const auto &phys_out =
                ctx.outcomes(csprintf("phys/%uK", paper.kb));
            Summary sp = missSummary(phys_out);
            const auto &virt_out =
                ctx.outcomes(csprintf("virt/%uK", paper.kb));
            Summary sv = missSummary(virt_out);

            total_misses += totalEstMisses(phys_out)
                            + totalEstMisses(virt_out);
            total_trials += 2 * kTrials;

            double to_m = static_cast<double>(ctx.scale()) / 1e6;
            t.addRow({
                csprintf("%uK", paper.kb),
                fmtF(sp.mean * to_m, 2),
                fmtValAndPct(sp.stddev * to_m, sp.stddevPct()),
                fmtF(sv.mean * to_m, 2),
                fmtValAndPct(sv.stddev * to_m, sv.stddevPct()),
                csprintf("%.2f s=%.2f", paper.phys_mean,
                         paper.phys_sd),
                csprintf("%.2f s=%.2f", paper.virt_mean,
                         paper.virt_sd),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: virtual variance = 0 at every "
                  "size; physical variance 0 at 4K (cache == page), "
                  "peaking near the program's ~32K text size "
                  "(Kessler's conflict model), with phys mean >= "
                  "virt mean.\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
