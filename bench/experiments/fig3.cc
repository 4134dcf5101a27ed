/**
 * @file
 * Regenerates Figure 3: Tapeworm slowdowns across simulation
 * configurations — associativity 1/2/4, line sizes 16/32/64 bytes,
 * and set-sampling degrees 1 down to 1/16 — for mpeg_play.
 */

#include "util.hh"

using namespace twbench;

namespace
{

const std::uint64_t kPanelSizesKb[] = {1, 2, 4, 8, 16, 32};
const unsigned kAssocs[] = {1u, 2u, 4u};
const unsigned kLines[] = {16u, 32u, 64u};
const std::uint64_t kSampleSizesKb[] = {1, 2, 4};
const unsigned kDenoms[] = {1u, 2u, 4u, 8u, 16u};

RunSpec
baseSpec(std::uint64_t size_bytes, const RunExperimentOptions &opts)
{
    RunSpec spec = defaultSpec("mpeg_play", opts);
    spec.sys.scope = SimScope::userOnly();
    spec.tw.cache = CacheConfig::icache(size_bytes, 16, 1,
                                        Indexing::Virtual);
    return spec;
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "fig3";
    def.artifact = "Figure 3";
    def.description =
        "Tapeworm slowdowns across configurations, mpeg_play";
    def.report = "fig3_configs";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;

        // Panel 1: associativity (FIFO replacement above 1 way,
        // since a trap-driven simulator cannot do LRU).
        for (std::uint64_t kb : kPanelSizesKb) {
            for (unsigned assoc : kAssocs) {
                RunSpec spec = baseSpec(kb * 1024, opts);
                spec.tw.cache =
                    CacheConfig::icache(kb * 1024, 16, assoc,
                                        Indexing::Virtual);
                units.push_back(unitOf(
                    csprintf("assoc/%lluK/%u",
                             (unsigned long long)kb, assoc),
                    spec, TrialPlan::one(7, true)));
            }
        }

        // Panel 2: line size. Longer lines cost more per miss but
        // produce fewer misses, so simulation gets faster overall.
        for (std::uint64_t kb : kPanelSizesKb) {
            for (unsigned line : kLines) {
                RunSpec spec = baseSpec(kb * 1024, opts);
                spec.tw.cache = CacheConfig::icache(
                    kb * 1024, line, 1, Indexing::Virtual);
                units.push_back(unitOf(
                    csprintf("line/%lluK/%u",
                             (unsigned long long)kb, line),
                    spec, TrialPlan::one(7, true)));
            }
        }

        // Panel 3: set sampling at small cache sizes (larger caches
        // are fast enough not to need sampling — Section 4.1).
        for (std::uint64_t kb : kSampleSizesKb) {
            for (unsigned denom : kDenoms) {
                RunSpec spec = baseSpec(kb * 1024, opts);
                spec.tw.sampleNum = 1;
                spec.tw.sampleDenom = denom;
                units.push_back(unitOf(
                    csprintf("samp/%lluK/%u",
                             (unsigned long long)kb, denom),
                    spec, TrialPlan::one(7, true)));
            }
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        auto slowdown = [&](const std::string &id) {
            return fmtF(ctx.outcome(id).slowdown, 2);
        };

        {
            TextTable t({"size", "1-way", "2-way", "4-way"});
            for (std::uint64_t kb : kPanelSizesKb) {
                std::vector<std::string> row{
                    csprintf("%lluK", (unsigned long long)kb)};
                for (unsigned assoc : kAssocs) {
                    row.push_back(slowdown(
                        csprintf("assoc/%lluK/%u",
                                 (unsigned long long)kb, assoc)));
                }
                t.addRow(row);
            }
            ctx.print("slowdown vs associativity:\n%s\n",
                      t.render().c_str());
        }

        {
            TextTable t({"size", "16B", "32B", "64B"});
            for (std::uint64_t kb : kPanelSizesKb) {
                std::vector<std::string> row{
                    csprintf("%lluK", (unsigned long long)kb)};
                for (unsigned line : kLines) {
                    row.push_back(slowdown(
                        csprintf("line/%lluK/%u",
                                 (unsigned long long)kb, line)));
                }
                t.addRow(row);
            }
            ctx.print("slowdown vs line size:\n%s\n",
                      t.render().c_str());
        }

        {
            TextTable t({"size", "1/1", "1/2", "1/4", "1/8", "1/16"});
            for (std::uint64_t kb : kSampleSizesKb) {
                std::vector<std::string> row{
                    csprintf("%lluK", (unsigned long long)kb)};
                for (unsigned denom : kDenoms) {
                    row.push_back(slowdown(
                        csprintf("samp/%lluK/%u",
                                 (unsigned long long)kb, denom)));
                }
                t.addRow(row);
            }
            ctx.print("slowdown vs sampling degree:\n%s\n",
                      t.render().c_str());
            ctx.print("Shape target: slowdowns fall roughly in "
                      "proportion to the sampled fraction.\n");
        }
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
