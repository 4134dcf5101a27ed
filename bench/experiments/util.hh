/**
 * @file
 * Shared helpers for the experiment registrations: the spec
 * builders and paper-scale conversions behind ExperimentDef grid()
 * and present() functions. Every setting a grid honours arrives in
 * its RunExperimentOptions; nothing here reads the environment.
 */

#ifndef TW_BENCH_EXPERIMENTS_UTIL_HH
#define TW_BENCH_EXPERIMENTS_UTIL_HH

#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/table.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"
#include "workload/spec.hh"

namespace twbench
{

using namespace tw;

/** Host-side simulation rate of one run: simulated references
 *  (instructions + data refs) retired per real second. */
inline double
refsPerSec(const RunOutcome &o)
{
    if (o.hostSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(o.run.totalInstr() + o.run.dataRefs)
           / o.hostSeconds;
}

/** Total estimated misses across a set of outcomes (a JSON metric
 *  shared by the trial experiments). */
inline double
totalEstMisses(const std::vector<RunOutcome> &outcomes)
{
    double sum = 0.0;
    for (const auto &o : outcomes)
        sum += o.estMisses;
    return sum;
}

/** Scale misses measured at 1/scale workload size back to the
 *  paper's full-size runs, in millions. */
inline double
paperMillions(double misses, unsigned scale_div)
{
    return misses * static_cast<double>(scale_div) / 1.0e6;
}

/** Default experiment spec: Tapeworm, all activity, 4 KB DM cache,
 *  at @p opts' scale. @p opts' cost backend applies here, so every
 *  registered experiment can re-run under a different pricing
 *  model. */
inline RunSpec
defaultSpec(const std::string &workload,
            const RunExperimentOptions &opts)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, opts.scaleDiv);
    spec.sys.scope = SimScope::all();
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(4096);
    spec.tw.costBackend = opts.costBackend;
    spec.tlb.costBackend = opts.costBackend;
    return spec;
}

/**
 * Apply @p opts' sampling and no-DMA settings to one grid spec. Call
 * only on units whose geometry can be eligible (Tapeworm,
 * direct-mapped, virtual); a spec that ends up ineligible anyway
 * just falls back to the full run (engine.sample.fallbacks counts
 * it).
 */
inline void
applySample(RunSpec &spec, const RunExperimentOptions &opts)
{
    spec.sample = opts.sample;
    if (opts.noDma)
        spec.sys.dmaFlushPeriod = 0;
}

/** The trial plan a variation sweep uses: the fixed @p n-trial plan,
 *  or up to @p n trials under @p opts' stop rule when that is
 *  enabled. */
inline TrialPlan
variationPlan(unsigned n, std::uint64_t base,
              const RunExperimentOptions &opts,
              bool with_slowdown = false)
{
    if (opts.stopRule.enabled)
        return TrialPlan::adaptive(n, base, opts.stopRule,
                                   with_slowdown);
    return TrialPlan::derived(n, base, with_slowdown);
}

/** Convenience: a one-seed grid unit. */
inline ExperimentUnit
unitOf(std::string id, RunSpec spec, TrialPlan plan)
{
    ExperimentUnit unit;
    unit.id = std::move(id);
    unit.spec = std::move(spec);
    unit.plan = std::move(plan);
    return unit;
}

} // namespace twbench

#endif // TW_BENCH_EXPERIMENTS_UTIL_HH
