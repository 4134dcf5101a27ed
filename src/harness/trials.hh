/**
 * @file
 * Multi-trial experiment helpers (the Tables 7-10 methodology).
 *
 * A "trial" in the paper is a fresh run of the same workload on the
 * live machine: page allocation, sample selection and interrupt
 * phase all redraw. Here that is a new trial seed; everything else
 * is held fixed.
 */

#ifndef TW_HARNESS_TRIALS_HH
#define TW_HARNESS_TRIALS_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "harness/runner.hh"

namespace tw
{

/**
 * CI-driven adaptive trial stopping (the other half of the sampling
 * subsystem, applied across trials instead of within a stream).
 *
 * Trials run in batches; after each batch the Student-t confidence
 * interval of the per-trial miss estimates is evaluated IN TRIAL
 * ORDER over the completed prefix, and the sweep stops as soon as
 * the relative half-width reaches the target. Because the decision
 * looks only at a deterministic prefix, an adaptive sweep is
 * bit-identical to the same-length prefix of the full sweep at any
 * thread count — and its per-trial cache keys are the full plan's
 * keys (TrialPlan never enters the key), so a later full sweep
 * reuses every trial an adaptive sweep already paid for. A caller
 * supplies the rule: experiment grids receive it in
 * RunExperimentOptions::stopRule (bench_driver --ci-target).
 */
struct StopRule
{
    /** false: run every planned trial (the classic fixed plan). */
    bool enabled = false;

    /** Stop when t-CI half-width / |mean| <= this. */
    double ciRelTarget = 0.05;

    /** Confidence level of the interval (two-sided). */
    double confidence = 0.95;

    /** Never stop before this many trials (a variance estimate from
     *  2-3 trials is too noisy to trust). */
    unsigned minTrials = 4;

    /** Trials launched per batch between CI evaluations. */
    unsigned batch = 4;
};

/** What an adaptive sweep ran and concluded. */
struct AdaptiveTrialsResult
{
    /** Completed trials, in trial order: a prefix of the planned
     *  seed list, bit-identical to the full sweep's prefix. */
    std::vector<RunOutcome> outcomes;

    /** The CI target was met before the plan was exhausted. */
    bool stoppedEarly = false;

    /** Mean and t half-width of estMisses over the prefix. */
    double mean = 0.0;
    double ciHalfWidth = 0.0;

    /** Trials the full plan would have run. */
    unsigned plannedTrials = 0;
};

/**
 * The seeds of @p n trials derived from @p base: trial t draws
 * mixSeed(base, 1000 + t). runTrials, TrialPlan::derived and twctl's
 * --trials all take their seeds from here.
 */
std::vector<std::uint64_t> derivedTrialSeeds(unsigned n,
                                             std::uint64_t base);

/**
 * Run @p n trials of @p spec with the seeds derivedTrialSeeds(n,
 * @p base_seed): runTrialsAdaptive over them with the rule disabled.
 *
 * Trials are dispatched through parallelFor (parallelism is across
 * trials, never within a simulated machine). Outcomes land in the
 * vector by trial index, and every field except the host wall-clock
 * time (RunOutcome::hostSeconds) is bit-identical to a serial run
 * regardless of @p threads.
 *
 * @param with_slowdown also run (memoized) baselines and fill the
 *        slowdown fields.
 * @param threads worker count; 0 = defaultThreads().
 */
std::vector<RunOutcome> runTrials(const RunSpec &spec, unsigned n,
                                  std::uint64_t base_seed,
                                  bool with_slowdown = false,
                                  unsigned threads = 0);

/**
 * Run at most seeds.size() trials of @p spec, stopping early once
 * @p rule's CI target is met (see StopRule). With rule.enabled ==
 * false every seed runs, as one batch. Each batch dispatches
 * through parallelFor; outcomes are written per-index, so the
 * returned prefix is bit-identical to the full sweep's prefix
 * regardless of @p threads.
 */
AdaptiveTrialsResult runTrialsAdaptive(
    const RunSpec &spec, const std::vector<std::uint64_t> &seeds,
    const StopRule &rule, bool with_slowdown = false,
    unsigned threads = 0);

/** Summary of estimated total misses across trials. */
Summary missSummary(const std::vector<RunOutcome> &outcomes);

/** Summary of slowdowns across trials. */
Summary slowdownSummary(const std::vector<RunOutcome> &outcomes);

/** Mean of a per-outcome metric. */
template <typename Fn>
double
meanOf(const std::vector<RunOutcome> &outcomes, Fn &&metric)
{
    if (outcomes.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &o : outcomes)
        sum += metric(o);
    return sum / static_cast<double>(outcomes.size());
}

} // namespace tw

#endif // TW_HARNESS_TRIALS_HH
