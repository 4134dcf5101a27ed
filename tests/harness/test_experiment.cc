/**
 * @file
 * The experiment-layer contract: the registry's names are unique
 * and stable, every registered spec grid survives specio
 * canonicalization bit-for-bit (a spec that doesn't round-trip
 * would silently break result caching and the served experiment
 * path), job enumeration is deterministic, and the engine's rows
 * match direct Runner calls exactly.
 *
 * This binary links tw_experiments, so the full bench registry —
 * not just the built-in smoke entry — is under test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "harness/specio.hh"

namespace tw
{
namespace
{

/** Every experiment the registry must ship. Additions are fine
 *  (append here); renames and removals are breaking — scripts and
 *  twctl --experiment call these by name. */
const char *kExpectedNames[] = {
    "breakeven",   "dcache_writepolicy", "dilation_correction",
    "families",    "fig2",               "fig2_rate",
    "fig3",        "fig4",               "fragmentation",
    "hybrid",      "kessler",            "multilevel",
    "onepass",     "pagecolor",          "resample",
    "smoke",       "split",              "table10",
    "table11",     "table12",            "table4",
    "table5",      "table6",             "table7",
    "table8",      "table9",
};

/** The settings a grid honours: the defaults (the paper setup) and
 *  every non-default at once — dram pricing, interval sampling, no
 *  DMA and a CI stop rule — so the registry tests see the specs
 *  bench_driver's flags can produce, not only the default ones. */
std::vector<RunExperimentOptions>
gridOptions()
{
    RunExperimentOptions tuned;
    tuned.scaleDiv = 2000;
    std::string err;
    EXPECT_TRUE(parseCostBackendSpec("dram", tuned.costBackend, err))
        << err;
    tuned.sample.enabled = true;
    tuned.sample.intervalRefs = 1024;
    tuned.noDma = true;
    tuned.stopRule.enabled = true;
    tuned.stopRule.ciRelTarget = 0.1;
    return {{.scaleDiv = 2000}, tuned};
}

TEST(ExperimentRegistry, NamesAreUniqueSortedAndStable)
{
    std::vector<std::string> names =
        ExperimentRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
    for (const char *expected : kExpectedNames)
        EXPECT_TRUE(unique.count(expected))
            << "registry lost experiment '" << expected << "'";
}

TEST(ExperimentRegistry, EntriesAreComplete)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_EQ(registry.find("nosuch"), nullptr);
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        ASSERT_NE(def, nullptr);
        EXPECT_EQ(def->name, name);
        EXPECT_FALSE(def->artifact.empty()) << name;
        EXPECT_FALSE(def->description.empty()) << name;
        EXPECT_TRUE(def->grid) << name;
        EXPECT_TRUE(def->present) << name;
    }
}

TEST(ExperimentRegistry, UnitIdsUniquePerExperiment)
{
    auto &registry = ExperimentRegistry::instance();
    for (const RunExperimentOptions &opts : gridOptions()) {
        for (const std::string &name : registry.names()) {
            const ExperimentDef *def = registry.find(name);
            std::set<std::string> ids;
            for (const ExperimentUnit &unit : def->grid(opts)) {
                EXPECT_FALSE(unit.id.empty()) << name;
                EXPECT_TRUE(ids.insert(unit.id).second)
                    << name << " repeats unit id '" << unit.id << "'";
                EXPECT_FALSE(unit.plan.seeds.empty())
                    << name << "/" << unit.id;
            }
        }
    }
}

TEST(ExperimentRegistry, GridSpecsSurviveCanonicalizationBitForBit)
{
    auto &registry = ExperimentRegistry::instance();
    for (const RunExperimentOptions &opts : gridOptions()) {
        for (const std::string &name : registry.names()) {
            const ExperimentDef *def = registry.find(name);
            for (const ExperimentUnit &unit : def->grid(opts)) {
                std::string first = formatRunSpec(unit.spec);
                RunSpec reparsed;
                std::string err;
                ASSERT_TRUE(parseRunSpec(first, reparsed, err))
                    << name << "/" << unit.id << ": " << err;
                EXPECT_EQ(formatRunSpec(reparsed), first)
                    << name << "/" << unit.id
                    << " does not round-trip canonically";
            }
        }
    }
}

TEST(ExperimentRegistry, GridKeysAreSeedlessTextPlusSeedAndFlag)
{
    // The key format, spelled out: the canonical text with
    // sys.trialSeed set to 0, then '#' seed '#' slowdown flag. The
    // fingerprint is FNV-1a of exactly those bytes, however it is
    // derived: per trial, or continued from one SpecKey's text.
    auto &registry = ExperimentRegistry::instance();
    for (const RunExperimentOptions &opts : gridOptions()) {
        for (const std::string &name : registry.names()) {
            const ExperimentDef *def = registry.find(name);
            for (const ExperimentUnit &unit : def->grid(opts)) {
                SCOPED_TRACE(name + "/" + unit.id);
                RunSpec seedless = unit.spec;
                seedless.sys.trialSeed = 0;
                const std::string text = formatRunSpec(seedless);
                const SpecKey key(unit.spec);
                EXPECT_EQ(key.text(), text);
                for (std::uint64_t seed : unit.plan.seeds) {
                    for (bool flag : {true, false}) {
                        const std::string spelled =
                            text + "#" + std::to_string(seed) + "#"
                            + (flag ? "1" : "0");
                        EXPECT_EQ(key.key(seed, flag), spelled);
                        EXPECT_EQ(key.fingerprint(seed, flag),
                                  fnv1a64(spelled));
                        EXPECT_EQ(cacheKey(unit.spec, seed, flag),
                                  spelled);
                        EXPECT_EQ(specFingerprint(unit.spec, seed, flag),
                                  fnv1a64(spelled));
                    }
                }
            }
        }
    }
}

TEST(Experiment, DerivedSeedsMatchRunTrialsDerivation)
{
    std::vector<std::uint64_t> seeds = derivedTrialSeeds(5, 0xabcd);
    ASSERT_EQ(seeds.size(), 5u);
    for (unsigned t = 0; t < 5; ++t)
        EXPECT_EQ(seeds[t], mixSeed(0xabcd, 1000 + t)) << t;
}

TEST(Experiment, ScaleResolutionHonorsOverrideAndFixedScales)
{
    ExperimentDef def;
    def.scaleDiv = 400;
    EXPECT_EQ(experimentScale(def, 123), 123u);
    def.fixedScale = true;
    def.scaleDiv = 1;
    EXPECT_EQ(experimentScale(def, 0), 1u);
    EXPECT_EQ(experimentScale(def, 7), 1u);
}

TEST(Experiment, JobEnumerationIsDenseAndGridOrdered)
{
    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);
    std::vector<ExperimentJob> jobs = experimentJobs(*def, {.scaleDiv = 4000});
    ASSERT_EQ(jobs.size(), 4u); // two sizes x two trials

    std::vector<ExperimentUnit> units = def->grid({.scaleDiv = 4000});
    std::size_t i = 0;
    for (const ExperimentUnit &unit : units) {
        for (std::size_t t = 0; t < unit.plan.seeds.size(); ++t) {
            ASSERT_LT(i, jobs.size());
            EXPECT_EQ(jobs[i].seq, i);
            EXPECT_EQ(jobs[i].unit, unit.id);
            EXPECT_EQ(jobs[i].trial, t);
            EXPECT_EQ(jobs[i].seed, unit.plan.seeds[t]);
            EXPECT_EQ(jobs[i].withSlowdown, unit.plan.withSlowdown);
            EXPECT_EQ(formatRunSpec(jobs[i].spec),
                      formatRunSpec(unit.spec));
            ++i;
        }
    }
    EXPECT_EQ(i, jobs.size());
}

/** Collects the engine's row stream for comparison. */
class CollectSink : public StatSink
{
  public:
    struct Row
    {
        std::string experiment, unit;
        std::uint64_t seq, trial, seed;
        RunOutcome outcome;
    };
    std::vector<Row> rows;

    void
    row(const ExperimentRow &r) override
    {
        rows.push_back(
            {r.experiment, r.unit, r.seq, r.trial, r.seed,
             *r.outcome});
    }
};

TEST(Experiment, EngineRowsMatchDirectRunnerCalls)
{
    const ExperimentDef *def =
        ExperimentRegistry::instance().find("smoke");
    ASSERT_NE(def, nullptr);

    CollectSink sink;
    RunExperimentOptions opts;
    opts.scaleDiv = 4000;
    runExperiment(*def, sink, opts);

    std::vector<ExperimentJob> jobs = experimentJobs(*def, {.scaleDiv = 4000});
    ASSERT_EQ(sink.rows.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const CollectSink::Row &row = sink.rows[i];
        const ExperimentJob &job = jobs[i];
        EXPECT_EQ(row.experiment, def->name);
        EXPECT_EQ(row.unit, job.unit);
        EXPECT_EQ(row.seq, job.seq);
        EXPECT_EQ(row.trial, job.trial);
        EXPECT_EQ(row.seed, job.seed);
        RunOutcome direct =
            job.withSlowdown
                ? Runner::runWithSlowdown(job.spec, job.seed)
                : Runner::runOne(job.spec, job.seed);
        EXPECT_EQ(formatRunOutcome(row.outcome),
                  formatRunOutcome(direct))
            << "row " << i;
    }
}

TEST(Experiment, RowJsonExcludesHostTiming)
{
    RunOutcome out;
    out.hostSeconds = 123.0;
    Json row = experimentRowJson("e", "u", 0, 0, 1, out);
    EXPECT_EQ(row.find("host_s"), nullptr);
    EXPECT_EQ(row.find("hostSeconds"), nullptr);
    ASSERT_NE(row.find("outcome"), nullptr);
    EXPECT_EQ(row.find("outcome")->find("hostSeconds"), nullptr);
}

} // namespace
} // namespace tw
