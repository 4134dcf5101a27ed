/**
 * @file
 * Kessler's conflict-probability model versus measured Table 9
 * variance. Section 4.2: "This observation is consistent with a
 * probabilistic model of cache page conflicts published in
 * [Kessler91]. Kessler's model predicts that with random page
 * allocation, the probability of cache conflicts peaks when the
 * size of the cache roughly equals the address space size of the
 * workload, and decreases for larger and smaller caches."
 *
 * Left columns: the analytic/Monte-Carlo model for an mpeg_play-
 * sized text (32 KB = 8 pages). Right columns: measured
 * physically-indexed trial deviations from this reproduction.
 */

#include "util.hh"

#include "mem/kessler.hh"

using namespace twbench;

namespace
{

const unsigned kTrials = 6;
const std::uint64_t kSizesKb[] = {4, 8, 16, 32, 64, 128};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "kessler";
    def.artifact = "Section 4.2";
    def.description = "Kessler page-conflict model vs measured "
                      "page-allocation variance";
    def.report = "kessler";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (std::uint64_t kb : kSizesKb) {
            // Measured: Table 9's physically-indexed mpeg_play runs.
            RunSpec spec;
            spec.workload = makeWorkload("mpeg_play", opts.scaleDiv);
            spec.sys.scope = SimScope::userOnly();
            spec.sys.clockJitter = false;
            spec.sim = SimKind::Tapeworm;
            spec.tw.cache = CacheConfig::icache(kb * 1024ull, 16, 1,
                                                Indexing::Physical);
            units.push_back(unitOf(
                csprintf("%lluK", (unsigned long long)kb), spec,
                TrialPlan::derived(kTrials, 0x935e)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double total_misses = 0.0;
        unsigned total_trials = 0;

        const unsigned text_pages = 8; // mpeg_play's 32 KB text

        TextTable t({"cache", "colors", "E[conflict pages]",
                     "model relSd", "measured s%"});
        for (std::uint64_t kb : kSizesKb) {
            unsigned colors =
                static_cast<unsigned>(kb * 1024 / kHostPageBytes);

            double expect =
                kesslerExpectedConflictPages(text_pages, colors);
            auto mc = kesslerMonteCarlo(text_pages, colors, 20000, 5);

            const auto &outcomes = ctx.outcomes(
                csprintf("%lluK", (unsigned long long)kb));
            total_misses += totalEstMisses(outcomes);
            total_trials += kTrials;
            Summary s = missSummary(outcomes);

            t.addRow({
                csprintf("%lluK", (unsigned long long)kb),
                csprintf("%u", colors),
                fmtF(expect, 2),
                fmtF(mc.relSd, 3),
                csprintf("%.0f%%", s.stddevPct()),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: the model's relative variability "
                  "and the measured trial deviation both peak where "
                  "cache size ~ text size (16-64K for an 8-page "
                  "program) and are zero/low at 4K (one color: every "
                  "placement identical).\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
