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
#include <map>
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
    "families",    "fig2",               "fig3",
    "fig4",        "fragmentation",      "hybrid",
    "kessler",     "multilevel",         "onepass",
    "pagecolor",   "resample",           "smoke",
    "split",       "table10",            "table11",
    "table12",     "table4",             "table5",
    "table6",      "table7",             "table8",
    "table9",
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

TEST(ExperimentRegistry, GridFingerprintsPinned)
{
    // Recorded before the canonical form was driven by one member
    // list per struct. For each experiment and each of gridOptions(),
    // the fingerprint of every job (its ring placement, and the hash
    // of its result-cache key) folded in grid order. A change to how
    // spec text is made must leave every fold be; a grid that gains
    // or loses a job moves its own fold and is re-recorded with it.
    const std::map<std::string, std::vector<std::uint64_t>> kFolds = {
        {"breakeven",
         {0x8a91cf2e798ea283ull, 0xd6953734d1bb6385ull}},
        {"dcache_writepolicy",
         {0x842df6fcbd9e9d4cull, 0x842df6fcbd9e9d4cull}},
        {"dilation_correction",
         {0x69d00a441a183824ull, 0x69d00a441a183824ull}},
        {"dram_dilation",
         {0x61613f2bcf361673ull, 0x61613f2bcf361673ull}},
        {"families",
         {0x7e510abf8632ed94ull, 0x7e510abf8632ed94ull}},
        {"fig2",
         {0xe6f9e0b04094a356ull, 0xceb87e4afbd1a144ull}},
        {"fig3",
         {0x8929c597bbe398e3ull, 0x6e60b5b191496b2aull}},
        {"fig4",
         {0x8454bbcb723b92abull, 0x1452b455eafe03f8ull}},
        {"fragmentation",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"hybrid",
         {0x0d5b1d72f7c364c0ull, 0x3e02a56765f58f2full}},
        {"kessler",
         {0xd2317af1a0e8423dull, 0xd2317af1a0e8423dull}},
        {"multilevel",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"onepass",
         {0x2eb4944b1cf8dbdfull, 0xaaf8a77a7d48249cull}},
        {"pagecolor",
         {0x4879523cfb2d94d3ull, 0xa4aa8231cce5d459ull}},
        {"resample",
         {0x4870d928192b574full, 0xd5f989f7e091f581ull}},
        {"smoke",
         {0x5dd3c36d2fd9fd14ull, 0x5dd3c36d2fd9fd14ull}},
        {"split",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"table10",
         {0x2edf3a292f713df9ull, 0x895a5a048c24873full}},
        {"table11",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"table12",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"table4",
         {0xb6cc8f0c80e87d57ull, 0xe073689970e8d3dfull}},
        {"table5",
         {0xcbf29ce484222325ull, 0xcbf29ce484222325ull}},
        {"table6",
         {0xb348cebec7dcf004ull, 0x4bbd653480d33097ull}},
        {"table7",
         {0xfc7c84287c199a28ull, 0xd78067a46ab66eb6ull}},
        {"table8",
         {0x138437fceadc22e6ull, 0x8f0b264c936ce149ull}},
        {"table9",
         {0x92deb725f1f352b2ull, 0x1fed8ef5fc92c6e2ull}},
    };
    auto &registry = ExperimentRegistry::instance();
    const std::vector<RunExperimentOptions> options = gridOptions();
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        std::vector<std::uint64_t> folds;
        for (const RunExperimentOptions &opts : options) {
            std::uint64_t fold = fnv1a64("");
            for (const ExperimentUnit &unit : def->grid(opts)) {
                const SpecKey key(unit.spec);
                for (std::uint64_t seed : unit.plan.seeds)
                    fold = fnv1a64(
                        std::to_string(key.fingerprint(
                            seed, unit.plan.withSlowdown))
                            + ',',
                        fold);
            }
            folds.push_back(fold);
        }
        auto pinned = kFolds.find(name);
        ASSERT_NE(pinned, kFolds.end()) << name << " has no pinned fold";
        EXPECT_EQ(folds, pinned->second) << name;
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
