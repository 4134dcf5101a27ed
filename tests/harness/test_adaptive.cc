/**
 * @file
 * CI-driven adaptive trial stopping: the stopping decision is a
 * pure function of the trial-order prefix (thread-count invariant),
 * the executed prefix is bit-identical to the full sweep, and
 * adaptive plans share the full plan's cache keys and job
 * enumeration.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "harness/trials.hh"
#include "workload/spec.hh"

namespace tw
{
namespace
{

/** Virtually-indexed user-only espresso: zero trial-to-trial
 *  variance without set sampling (the Table 8 "exactly repeatable"
 *  column), real variance with it. */
RunSpec
quietSpec()
{
    RunSpec spec;
    spec.workload = makeWorkload("espresso", 2000);
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache =
        CacheConfig::icache(4096, 16, 1, Indexing::Virtual);
    spec.sys.scope = SimScope::userOnly();
    return spec;
}

RunSpec
noisySpec()
{
    RunSpec spec = quietSpec();
    spec.tw.sampleNum = 1;
    spec.tw.sampleDenom = 8;
    return spec;
}

StopRule
rule(double target, unsigned min_trials = 4, unsigned batch = 4)
{
    StopRule r;
    r.enabled = true;
    r.ciRelTarget = target;
    r.minTrials = min_trials;
    r.batch = batch;
    return r;
}

TEST(AdaptiveTrials, StopsAtMinTrialsOnZeroVariance)
{
    auto seeds = derivedTrialSeeds(12, 0x5a);
    AdaptiveTrialsResult res =
        runTrialsAdaptive(quietSpec(), seeds, rule(0.05));
    EXPECT_TRUE(res.stoppedEarly);
    EXPECT_EQ(res.outcomes.size(), 4u);
    EXPECT_EQ(res.plannedTrials, 12u);
    EXPECT_EQ(res.ciHalfWidth, 0.0);
    EXPECT_GT(res.mean, 0.0);
}

TEST(AdaptiveTrials, RunsAllWhenTargetTight)
{
    auto seeds = derivedTrialSeeds(6, 0x5a);
    AdaptiveTrialsResult res =
        runTrialsAdaptive(noisySpec(), seeds, rule(1e-12));
    EXPECT_FALSE(res.stoppedEarly);
    EXPECT_EQ(res.outcomes.size(), 6u);
    EXPECT_GT(res.ciHalfWidth, 0.0);
}

TEST(AdaptiveTrials, PrefixBitIdenticalToFullSweep)
{
    auto seeds = derivedTrialSeeds(12, 0x5a);
    AdaptiveTrialsResult res =
        runTrialsAdaptive(noisySpec(), seeds, rule(0.25, 4, 2));
    ASSERT_GE(res.outcomes.size(), 4u);

    std::vector<RunOutcome> full =
        runTrials(noisySpec(), 12, 0x5a);
    for (std::size_t t = 0; t < res.outcomes.size(); ++t) {
        EXPECT_DOUBLE_EQ(res.outcomes[t].estMisses,
                         full[t].estMisses)
            << "trial " << t;
        EXPECT_DOUBLE_EQ(res.outcomes[t].rawMisses,
                         full[t].rawMisses);
    }
}

TEST(AdaptiveTrials, DeterministicAcrossThreads)
{
    auto seeds = derivedTrialSeeds(10, 0xbead);
    AdaptiveTrialsResult one = runTrialsAdaptive(
        noisySpec(), seeds, rule(0.25, 4, 3), false, 1);
    AdaptiveTrialsResult many = runTrialsAdaptive(
        noisySpec(), seeds, rule(0.25, 4, 3), false, 4);
    ASSERT_EQ(one.outcomes.size(), many.outcomes.size());
    EXPECT_EQ(one.stoppedEarly, many.stoppedEarly);
    EXPECT_DOUBLE_EQ(one.mean, many.mean);
    EXPECT_DOUBLE_EQ(one.ciHalfWidth, many.ciHalfWidth);
    for (std::size_t t = 0; t < one.outcomes.size(); ++t) {
        EXPECT_DOUBLE_EQ(one.outcomes[t].estMisses,
                         many.outcomes[t].estMisses);
    }
}

TEST(AdaptiveTrials, DisabledRuleRunsEverySeed)
{
    auto seeds = derivedTrialSeeds(5, 0x5a);
    StopRule off;
    AdaptiveTrialsResult res =
        runTrialsAdaptive(quietSpec(), seeds, off);
    EXPECT_FALSE(res.stoppedEarly);
    EXPECT_EQ(res.outcomes.size(), 5u);
}

TEST(AdaptiveTrials, CacheKeysMatchFullPlan)
{
    // TrialPlan::stopWhen never enters the spec text, so every
    // trial an adaptive sweep runs hits the exact ResultCache entry
    // the full plan would: a later full sweep is a prefix-hit.
    TrialPlan fixed = TrialPlan::derived(8, 0x5a);
    TrialPlan adaptive = TrialPlan::adaptive(8, 0x5a, rule(0.05));
    ASSERT_EQ(fixed.seeds, adaptive.seeds);
    RunSpec spec = noisySpec();
    for (std::size_t t = 0; t < fixed.seeds.size(); ++t) {
        EXPECT_EQ(cacheKey(spec, fixed.seeds[t], false),
                  cacheKey(spec, adaptive.seeds[t], false));
    }
}

TEST(ExperimentAdaptive, JobEnumerationIgnoresStopRule)
{
    // The server admits against experimentJobs — the FULL upper
    // bound — so run-time stopping can only shrink the work, never
    // surprise the queue.
    ExperimentDef def;
    def.name = "adaptive-enum-test";
    def.grid = [](const RunExperimentOptions &) {
        std::vector<ExperimentUnit> units;
        ExperimentUnit a;
        a.id = "a";
        a.spec = quietSpec();
        a.plan = TrialPlan::adaptive(8, 0x5a, rule(0.05));
        units.push_back(std::move(a));
        ExperimentUnit b;
        b.id = "b";
        b.spec = quietSpec();
        b.plan = TrialPlan::derived(2, 0x5a);
        units.push_back(std::move(b));
        return units;
    };
    std::vector<ExperimentJob> jobs = experimentJobs(def, {.scaleDiv = 2000});
    ASSERT_EQ(jobs.size(), 10u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].seq, i);
}

/** Sink that records (unit, seq, trial) per row. */
class RowRecorder : public StatSink
{
  public:
    struct Rec
    {
        std::string unit;
        std::uint64_t seq;
        std::uint64_t trial;
    };
    void
    row(const ExperimentRow &r) override
    {
        rows.push_back({r.unit, r.seq, r.trial});
    }
    std::vector<Rec> rows;
};

TEST(ExperimentAdaptive, RowsKeepFullEnumerationSeq)
{
    // Unit "a" (zero variance, adaptive) stops at minTrials=4 of 8;
    // unit "b" (fixed) runs both trials. b's rows must keep the seq
    // values of the FULL enumeration (8, 9), leaving a gap for a's
    // skipped tail — that is what keeps served and local row
    // numbering aligned.
    ExperimentDef def;
    def.name = "adaptive-rows-test";
    def.banner = false;
    def.grid = [](const RunExperimentOptions &) {
        std::vector<ExperimentUnit> units;
        ExperimentUnit a;
        a.id = "a";
        a.spec = quietSpec();
        a.plan = TrialPlan::adaptive(8, 0x5a, rule(0.05));
        units.push_back(std::move(a));
        ExperimentUnit b;
        b.id = "b";
        b.spec = quietSpec();
        b.plan = TrialPlan::derived(2, 0x5a);
        units.push_back(std::move(b));
        return units;
    };
    RowRecorder rec;
    RunExperimentOptions opts;
    opts.scaleDiv = 2000;
    runExperiment(def, rec, opts);

    ASSERT_EQ(rec.rows.size(), 6u); // 4 adaptive + 2 fixed
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(rec.rows[i].unit, "a");
        EXPECT_EQ(rec.rows[i].seq, i);
        EXPECT_EQ(rec.rows[i].trial, i);
    }
    EXPECT_EQ(rec.rows[4].unit, "b");
    EXPECT_EQ(rec.rows[4].seq, 8u);
    EXPECT_EQ(rec.rows[4].trial, 0u);
    EXPECT_EQ(rec.rows[5].seq, 9u);
}

} // namespace
} // namespace tw
