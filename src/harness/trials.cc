#include "harness/trials.hh"

#include <algorithm>
#include <cmath>

#include "base/random.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "sample/stopping.hh"

namespace tw
{

namespace
{

obs::Counter &
obsTrialsRun()
{
    static obs::Counter c = obs::registry().counter("trials.run");
    return c;
}

} // anonymous namespace

std::vector<std::uint64_t>
derivedTrialSeeds(unsigned n, std::uint64_t base)
{
    // The one statement of the rule: a registry entry, a local
    // runTrials sweep and a served sweep of the same base seed hit
    // the same ResultCache keys.
    std::vector<std::uint64_t> seeds(n);
    for (unsigned t = 0; t < n; ++t)
        seeds[t] = mixSeed(base, 1000 + t);
    return seeds;
}

std::vector<RunOutcome>
runTrials(const RunSpec &spec, unsigned n, std::uint64_t base_seed,
          bool with_slowdown, unsigned threads)
{
    return runTrialsAdaptive(spec, derivedTrialSeeds(n, base_seed),
                             StopRule{}, with_slowdown, threads)
        .outcomes;
}

AdaptiveTrialsResult
runTrialsAdaptive(const RunSpec &spec,
                  const std::vector<std::uint64_t> &seeds,
                  const StopRule &rule, bool with_slowdown,
                  unsigned threads)
{
    static obs::Counter obsStoppedEarly =
        obs::registry().counter("trials.stopped_early");

    AdaptiveTrialsResult res;
    res.plannedTrials = static_cast<unsigned>(seeds.size());
    const unsigned total = res.plannedTrials;
    // A disabled rule runs every seed as one batch.
    const unsigned batch =
        rule.enabled ? std::max(1u, rule.batch) : total;
    res.outcomes.resize(total);
    unsigned done = 0;
    while (done < total) {
        // First batch covers minTrials so the first CI evaluation
        // already has a usable df.
        unsigned want = done == 0 ? std::max(rule.minTrials, batch)
                                  : batch;
        unsigned stop = std::min(total, done + want);
        // Each trial writes only its own slot, so the outcomes are
        // bit-identical to a serial run for any thread count
        // (completion order never matters).
        parallelFor(
            stop - done,
            [&](std::uint64_t i) {
                unsigned t = done + static_cast<unsigned>(i);
                res.outcomes[t] =
                    with_slowdown
                        ? Runner::runWithSlowdown(spec, seeds[t])
                        : Runner::runOne(spec, seeds[t]);
            },
            threads);
        obsTrialsRun().add(stop - done);
        done = stop;

        // Evaluate in trial order over the completed prefix: the
        // stopping decision is a pure function of the prefix, never
        // of thread scheduling.
        RunningStat rs;
        for (unsigned t = 0; t < done; ++t)
            rs.push(res.outcomes[t].estMisses);
        res.mean = rs.mean();
        res.ciHalfWidth = tHalfWidth(rs, rule.confidence);
        if (done >= rule.minTrials && done >= 2) {
            double rel = tRelHalfWidth(rs, rule.confidence);
            if (rel <= rule.ciRelTarget) {
                res.stoppedEarly = done < total;
                break;
            }
        }
    }
    res.outcomes.resize(done);
    if (res.stoppedEarly)
        obsStoppedEarly.inc();
    return res;
}

Summary
missSummary(const std::vector<RunOutcome> &outcomes)
{
    RunningStat rs;
    for (const auto &o : outcomes)
        rs.push(o.estMisses);
    return summarize(rs);
}

Summary
slowdownSummary(const std::vector<RunOutcome> &outcomes)
{
    RunningStat rs;
    for (const auto &o : outcomes)
        rs.push(o.slowdown);
    return summarize(rs);
}

} // namespace tw
