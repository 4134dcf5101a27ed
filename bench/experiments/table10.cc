/**
 * @file
 * Table 10: measurement variation removed — the same experiment as
 * Table 7 (16 trials, all activity) but configured for
 * virtually-indexed caches without set sampling, so that
 * trap-driven results become as repeatable as a trace-driven
 * simulator's. Residual spread comes only from interrupt-phase
 * jitter.
 */

#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    const char *name;
    double mean, sd_pct, range_pct;
};

// Table 10 as published.
const PaperRow kPaper[] = {
    {"eqntott", 4.19, 2, 4},   {"espresso", 4.26, 1, 2},
    {"jpeg_play", 20.60, 0, 0}, {"kenbus", 22.03, 0, 0},
    {"mpeg_play", 53.16, 0, 0}, {"ousterhout", 34.69, 4, 5},
    {"sdet", 41.23, 0, 0},      {"xlisp", 21.67, 1, 1},
};

const unsigned kTrials = 16;

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table10";
    def.artifact = "Table 10";
    def.description = "variation removed "
                      "(virtual indexing, no sampling, 16KB)";
    def.report = "table10_novariation";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            RunSpec spec = defaultSpec(paper.name, opts);
            spec.tw.cache = CacheConfig::icache(16384, 16, 1,
                                                Indexing::Virtual);
            units.push_back(unitOf(paper.name, spec,
                                   TrialPlan::derived(kTrials,
                                                      0xbead)));
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
            total_trials += kTrials;
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
        ctx.print("Shape target: relative deviations collapse from "
                  "Table 7's 7-76%% to ~0-5%%.\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
