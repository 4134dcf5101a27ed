/**
 * @file
 * Figure 2: Tapeworm versus Pixie+Cache2000 slowdowns for mpeg_play
 * over direct-mapped I-cache sizes 1 KB - 1 MB with 4-word lines.
 * Tapeworm attributes exclude the X/BSD servers and kernel (user
 * task only), but slowdowns are relative to the total run time
 * including them — exactly the paper's setup.
 */

#include "base/simd.hh"
#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    unsigned kb;
    double missRatio, c2000, tapeworm;
};

// Figure 2's embedded table.
const PaperRow kPaper[] = {
    {1, 0.118, 30.2, 6.27},   {2, 0.097, 28.8, 5.16},
    {4, 0.064, 27.0, 3.84},   {8, 0.023, 24.2, 1.20},
    {16, 0.017, 23.5, 0.87},  {32, 0.002, 22.4, 0.11},
    {64, 0.002, 22.3, 0.10},  {128, 0.000, 22.0, 0.01},
    {256, 0.000, 22.1, 0.00}, {512, 0.000, 22.1, 0.00},
    {1024, 0.000, 22.3, 0.00},
};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "fig2";
    def.artifact = "Figure 2";
    def.description = "trace-driven vs trap-driven slowdowns, "
                      "mpeg_play I-cache";
    def.report = "fig2_slowdowns";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            // User-only and virtually indexed; the trace-driven side
            // is derived from the same spec.
            RunSpec spec = defaultSpec("mpeg_play", opts);
            spec.sys.scope = SimScope::userOnly();
            spec.tw.cache = CacheConfig::icache(paper.kb * 1024ull, 16, 1,
                                                Indexing::Virtual);
            RunSpec tw = spec;
            applySample(tw, opts);
            // Sampled estimates carry no slowdown (no instrumented
            // machine runs), so skip the baseline pairing then.
            units.push_back(unitOf(
                csprintf("tw/%uK", paper.kb), tw,
                TrialPlan::one(7, !tw.sample.enabled)));

            spec.sim = SimKind::TraceDriven;
            spec.c2k.cache = spec.tw.cache;
            units.push_back(unitOf(csprintf("c2k/%uK", paper.kb),
                                   spec, TrialPlan::one(7, true)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        double tw_refs = 0.0, tw_secs = 0.0;
        double sample_refs_sim = 0.0, sample_refs_total = 0.0;
        double sample_ci = 0.0;
        TextTable t({"size", "missRatio", "c2000.slow", "tw.slow",
                     "paper.miss", "paper.c2000", "paper.tw"});
        for (const auto &paper : kPaper) {
            const RunOutcome &trap =
                ctx.outcome(csprintf("tw/%uK", paper.kb));
            const RunOutcome &trace =
                ctx.outcome(csprintf("c2k/%uK", paper.kb));

            // A sampled run's simulated-work figure is the refs it
            // actually replayed, not the budget it estimated for.
            tw_refs += trap.sample.used
                           ? static_cast<double>(
                                 trap.sample.refsSimulated)
                           : static_cast<double>(
                                 trap.run.totalInstr()
                                 + trap.run.dataRefs);
            tw_secs += trap.hostSeconds;
            if (trap.sample.used) {
                sample_refs_sim += static_cast<double>(
                    trap.sample.refsSimulated);
                sample_refs_total += static_cast<double>(
                    trap.sample.refsTotal);
                sample_ci += trap.sample.ciHalfWidth;
            }
            if (ctx.reportRequested()) {
                ctx.metric(csprintf("tw_refs_per_sec_%uK", paper.kb),
                           refsPerSec(trap));
            }

            t.addRow({
                csprintf("%uK", paper.kb),
                fmtF(trap.missRatioUser(), 3),
                fmtF(trace.slowdown, 1),
                fmtF(trap.slowdown, 2),
                fmtF(paper.missRatio, 3),
                fmtF(paper.c2000, 1),
                fmtF(paper.tapeworm, 2),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: Tapeworm slowdown tracks the miss "
                  "ratio toward zero; Cache2000 floor ~22x; Tapeworm "
                  "wins ~3x even at the 1K cache.\n");
        if (ctx.reportRequested()) {
            double rate = tw_secs > 0.0 ? tw_refs / tw_secs : 0.0;
            ctx.print("[report] tapeworm host rate: %.3fM refs/s "
                      "(%.0f refs in %.3fs host)\n", rate / 1.0e6,
                      tw_refs, tw_secs);
            ctx.metric("tw_refs_per_sec", rate);
            ctx.metric("tw_host_seconds", tw_secs);
            ctx.note("simd", simd::levelName(simd::activeLevel()));
        }
        if (sample_refs_total > 0.0) {
            ctx.metric("sample_refs_simulated", sample_refs_sim);
            ctx.metric("sample_refs_total", sample_refs_total);
            ctx.metric("sample_ci_half_total", sample_ci);
        }
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
