/**
 * @file
 * The cost of obtaining multiple set samples (Section 3.2):
 * "different samples can be obtained simply by changing the pattern
 * of traps on registered Tapeworm pages. With trace-driven
 * simulation, the full trace must be re-processed to obtain a new
 * set sample."
 *
 * Four different 1/8 samples of the same cache are collected with
 * each technique; the table reports the instrumentation overhead
 * each sample cost. Tapeworm pays only for the sample's own misses;
 * the trace-driven simulator touches every address every time (the
 * software filter still costs cycles per rejected address, plus
 * regeneration of the trace).
 */

#include "util.hh"

using namespace twbench;

namespace
{

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "resample";
    def.artifact = "Section 3.2";
    def.description = "cost of collecting four different set "
                      "samples (mpeg_play, 4KB, 1/8)";
    def.report = "resample";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        CacheConfig cache =
            CacheConfig::icache(4096, 16, 1, Indexing::Virtual);
        for (unsigned sample = 1; sample <= 4; ++sample) {
            RunSpec spec = defaultSpec("mpeg_play", opts);
            spec.sys.scope = SimScope::userOnly();
            spec.tw.cache = cache;
            spec.tw.sampleNum = 1;
            spec.tw.sampleDenom = 8;
            spec.tw.sampleSeed = 1000 + sample;
            units.push_back(unitOf(csprintf("tw/%u", sample), spec,
                                   TrialPlan::one(7, true)));

            RunSpec ts = spec;
            ts.sim = SimKind::TraceDriven;
            ts.c2k.cache = cache;
            ts.c2k.sampleNum = 1;
            ts.c2k.sampleDenom = 8;
            ts.c2k.sampleSeed = 1000 + sample;
            units.push_back(unitOf(csprintf("c2k/%u", sample), ts,
                                   TrialPlan::one(7, true)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        TextTable t({"sample", "tw.misses", "tw.slowdown",
                     "c2k.misses", "c2k.slowdown"});
        double tw_total = 0, c2k_total = 0;
        for (unsigned sample = 1; sample <= 4; ++sample) {
            const RunOutcome &trap =
                ctx.outcome(csprintf("tw/%u", sample));
            const RunOutcome &trace =
                ctx.outcome(csprintf("c2k/%u", sample));
            tw_total += trap.slowdown;
            c2k_total += trace.slowdown;
            t.addRow({
                csprintf("#%u", sample),
                fmtF(trap.rawMisses, 0),
                fmtF(trap.slowdown, 2),
                fmtF(trace.rawMisses, 0),
                fmtF(trace.slowdown, 2),
            });
        }
        t.addRule();
        t.addRow({"total", "", fmtF(tw_total, 2), "",
                  fmtF(c2k_total, 2)});
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: each Tapeworm sample costs ~1/8 of "
                  "an unsampled run (~0.4x here); each trace-driven "
                  "sample costs nearly a full trace pass (the filter "
                  "touches every address), so collecting all four "
                  "samples is ~%0.0fx cheaper trap-driven.\n",
                  c2k_total / (tw_total > 0 ? tw_total : 1));
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
