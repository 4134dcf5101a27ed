/**
 * @file
 * Table 7: run-to-run variation of measured memory system
 * performance — 16 trials per workload, 1/8 set sampling, 16 KB
 * physically-indexed direct-mapped cache, all activity (kernel and
 * servers included). Page allocation, sample selection and
 * interrupt phase all redraw per trial.
 */

#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    const char *name;
    double mean, sd_pct, min_pct, max_pct, range_pct;
};

// Table 7's percentage columns as published.
const PaperRow kPaper[] = {
    {"eqntott", 4.42, 57, 26, 197, 223},
    {"espresso", 4.91, 60, 30, 180, 209},
    {"jpeg_play", 18.58, 7, 13, 18, 31},
    {"kenbus", 20.89, 25, 18, 74, 92},
    {"mpeg_play", 58.48, 12, 19, 18, 37},
    {"ousterhout", 31.50, 8, 14, 11, 25},
    {"sdet", 41.28, 21, 21, 54, 75},
    {"xlisp", 41.55, 76, 64, 151, 215},
};

const unsigned kTrials = 16;

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table7";
    def.artifact = "Table 7";
    def.description = "variation in measured performance "
                      "(16 trials, 1/8 sampling, 16KB physical)";
    def.report = "table7_variation";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            RunSpec spec = defaultSpec(paper.name, opts);
            spec.tw.cache = CacheConfig::icache(16384, 16, 1,
                                                Indexing::Physical);
            spec.tw.sampleNum = 1;
            spec.tw.sampleDenom = 8;
            // A stop rule caps the sweep adaptively (the cache is
            // physically indexed, so interval sampling does not
            // apply here — adaptive stopping is the lever).
            units.push_back(unitOf(paper.name, spec,
                                   variationPlan(kTrials, 0xbead, opts)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double total_misses = 0.0;
        unsigned total_trials = 0;
        TextTable t({"workload", "mean(10^6)", "s", "min", "max",
                     "range", "paper.s%", "paper.range%"});
        for (const auto &paper : kPaper) {
            const auto &outcomes = ctx.outcomes(paper.name);
            total_misses += totalEstMisses(outcomes);
            total_trials += outcomes.size();
            Summary s = missSummary(outcomes);
            double to_m = static_cast<double>(ctx.scale()) / 1e6;

            t.addRow({
                paper.name,
                fmtF(s.mean * to_m, 2),
                fmtValAndPct(s.stddev * to_m, s.stddevPct()),
                fmtValAndPct(s.min * to_m, s.minPct()),
                fmtValAndPct(s.max * to_m, s.maxPct()),
                fmtValAndPct(s.range * to_m, s.rangePct()),
                csprintf("%.0f%%", paper.sd_pct),
                csprintf("%.0f%%", paper.range_pct),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: double-digit relative deviations; "
                  "small-footprint SPEC workloads (eqntott, espresso, "
                  "xlisp) show the largest relative spread.\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
