/**
 * @file
 * Table 8 / its figure: measurement variation due to set sampling
 * alone. Page-allocation effects are removed by simulating a
 * virtually-indexed cache, and only the espresso user task is
 * simulated (no kernel or servers). Trials with 1/8 sampling vary;
 * trials without sampling are exactly repeatable.
 */

#include "sample/stopping.hh"
#include "util.hh"

using namespace twbench;

namespace
{

const unsigned kTrials = 16;
const std::uint64_t kSizesKb[] = {1, 2, 4, 8, 16, 32};

/** Per-(size, fraction) sampling metrics for the BENCH report:
 *  fraction, estimate, CI half-width over trials, and interval-
 *  sampler refs actually simulated. */
void
sampleMetrics(ExperimentContext &ctx, const char *kind,
              std::uint64_t kb, double fraction,
              const std::vector<RunOutcome> &outs)
{
    RunningStat rs;
    double refs_sim = 0.0;
    for (const auto &o : outs) {
        rs.push(o.estMisses);
        refs_sim += static_cast<double>(o.sample.refsSimulated);
    }
    std::string stem = csprintf("%s_%lluK", kind,
                                (unsigned long long)kb);
    ctx.metric(stem + "_fraction", fraction);
    ctx.metric(stem + "_estimate", rs.mean());
    ctx.metric(stem + "_ci_half", tHalfWidth(rs, 0.95));
    ctx.metric(stem + "_refs_simulated", refs_sim);
    ctx.metric(stem + "_trials", static_cast<double>(outs.size()));
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table8";
    def.artifact = "Table 8";
    def.description = "variation due to set sampling "
                      "(espresso, virtually-indexed, user only)";
    def.report = "table8_sampling";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (std::uint64_t kb : kSizesKb) {
            RunSpec spec = defaultSpec("espresso", opts);
            spec.sys.scope = SimScope::userOnly();
            spec.tw.cache = CacheConfig::icache(kb * 1024, 16, 1,
                                                Indexing::Virtual);

            // Interval sampling (--sample) composes: it replicates
            // the per-trial set sample, so both columns keep their
            // meaning. A stop rule (--ci-target) turns the fixed
            // 16-trial plan into an up-to-16 adaptive one.
            applySample(spec, opts);
            RunSpec sampled = spec;
            sampled.tw.sampleNum = 1;
            sampled.tw.sampleDenom = 8;
            units.push_back(unitOf(
                csprintf("sampled/%lluK", (unsigned long long)kb),
                sampled, variationPlan(kTrials, 0x5a, opts)));
            units.push_back(unitOf(
                csprintf("unsampled/%lluK", (unsigned long long)kb),
                spec, variationPlan(kTrials, 0x5a, opts)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double total_misses = 0.0;
        unsigned total_trials = 0;
        TextTable t({"size", "sampled.mean", "sampled.s%",
                     "unsampled.mean", "unsampled.s%"});
        for (std::uint64_t kb : kSizesKb) {
            const auto &sampled_out = ctx.outcomes(
                csprintf("sampled/%lluK", (unsigned long long)kb));
            const auto &unsampled_out = ctx.outcomes(
                csprintf("unsampled/%lluK", (unsigned long long)kb));
            total_misses += totalEstMisses(sampled_out)
                            + totalEstMisses(unsampled_out);
            total_trials += sampled_out.size()
                            + unsampled_out.size();
            sampleMetrics(ctx, "sampled", kb, 1.0 / 8.0,
                          sampled_out);
            sampleMetrics(ctx, "unsampled", kb, 1.0,
                          unsampled_out);
            Summary ss = missSummary(sampled_out);
            Summary su = missSummary(unsampled_out);

            double to_m = static_cast<double>(ctx.scale()) / 1e6;
            t.addRow({
                csprintf("%lluK", (unsigned long long)kb),
                fmtF(ss.mean * to_m, 3),
                csprintf("%.1f%%", ss.stddevPct()),
                fmtF(su.mean * to_m, 3),
                csprintf("%.1f%%", su.stddevPct()),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: unsampled variance ~0 (error bars "
                  "collapse); sampled estimates center on the "
                  "unsampled truth with visible spread.\n");
        ctx.metric("trials", total_trials);
        ctx.metric("total_est_misses", total_misses);
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
