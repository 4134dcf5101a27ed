/**
 * @file
 * The dilation-correction study the paper proposes (Section 4.2):
 * "We are collecting time dilation curves for a larger set of
 * workloads to determine if their shape and magnitude are the same
 * as in Figure 4. If so, it should be possible to adjust simulation
 * results to factor away this form of systematic error."
 *
 * This experiment does exactly that: collects the dilation curve of
 * each workload (sampling degree sweeps the slowdown), fits the
 * saturating model misses(d) = m0*(1 + a*d/(b+d)), and checks how
 * well the corrected unsampled measurement recovers the undilated
 * ground truth (a cost-free instrumented run of the same trial).
 */

#include "util.hh"

#include "harness/dilation.hh"

using namespace twbench;

namespace
{

const char *const kWorkloads[] = {"mpeg_play", "sdet", "ousterhout",
                                  "jpeg_play"};
const unsigned kDenoms[] = {16u, 8u, 4u, 2u, 1u};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "dilation_correction";
    def.artifact = "Section 4.2";
    def.description = "time-dilation curves and correction";
    def.report = "dilation_correction";
    def.scaleDiv = 400;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const char *name : kWorkloads) {
            RunSpec spec;
            spec.workload = makeWorkload(name, opts.scaleDiv);
            spec.sys.scope = SimScope::all();
            spec.sys.clockJitter = false;
            spec.sim = SimKind::Tapeworm;
            spec.tw.cache = CacheConfig::icache(4096, 16, 1,
                                                Indexing::Virtual);
            spec.tw.sampleSeed = 77; // virtual + fixed seed: low noise

            // Ground truth: instrumentation with zero cost
            // (dilation ~0).
            RunSpec truth_spec = spec;
            truth_spec.tw.chargeCost = false;
            units.push_back(unitOf(csprintf("truth/%s", name),
                                   truth_spec, TrialPlan::one(3)));

            // The dilation curve: sampling sweeps the slowdown.
            for (unsigned denom : kDenoms) {
                RunSpec point = spec;
                point.tw.sampleNum = 1;
                point.tw.sampleDenom = denom;
                units.push_back(unitOf(
                    csprintf("d/%s/%u", name, denom), point,
                    TrialPlan::one(3, true)));
            }
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        TextTable t({"workload", "a (sat.infl)", "b (half-scale)",
                     "raw err", "corrected err", "fit rms"});
        for (const char *name : kWorkloads) {
            double truth =
                ctx.outcome(csprintf("truth/%s", name)).estMisses;

            std::vector<std::pair<double, double>> curve;
            double raw_unsampled = 0, dil_unsampled = 0;
            for (unsigned denom : kDenoms) {
                const RunOutcome &out =
                    ctx.outcome(csprintf("d/%s/%u", name, denom));
                curve.emplace_back(out.slowdown, out.estMisses);
                if (denom == 1) {
                    raw_unsampled = out.estMisses;
                    dil_unsampled = out.slowdown;
                }
            }

            DilationModel model = DilationModel::fit(curve);
            double corrected =
                model.correct(raw_unsampled, dil_unsampled);
            double raw_err = 100.0 * (raw_unsampled - truth) / truth;
            double corr_err = 100.0 * (corrected - truth) / truth;

            t.addRow({
                name,
                fmtF(model.saturationInflation(), 3),
                fmtF(model.halfScale(), 2),
                csprintf("%+.1f%%", raw_err),
                csprintf("%+.1f%%", corr_err),
                fmtF(model.rmsError(), 3),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: raw unsampled measurements "
                  "over-read by several percent (the Figure 4 error); "
                  "after fitting each workload's own curve the "
                  "corrected values land within ~1-2%% of the "
                  "undilated truth — the adjustment the paper "
                  "anticipated is workable.\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
