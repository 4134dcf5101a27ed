/**
 * @file
 * The set-sampling speed/variance trade-off (Sections 3.2, 4.1,
 * 4.2).
 *
 * Tapeworm implements set sampling by arming traps only on lines
 * that map to a sampled subset of cache sets; the host hardware
 * filters everything else for free, so slowdown falls in proportion
 * to the sampled fraction — but repeated trials scatter, because
 * each sample sees a different slice of the cache. This example
 * quantifies both sides so a user can pick a sampling degree for a
 * target confidence.
 *
 * Usage: sampling_tradeoff [workload] [cache_kb]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/table.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"
#include "workload/spec.hh"

using namespace tw;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "mpeg_play";
    unsigned cache_kb =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 400);
    const unsigned trials = 8;

    std::printf("Sampling trade-off for '%s', %u KB cache "
                "(%u trials per row, scaled 1/%u)\n\n",
                workload.c_str(), cache_kb, trials, scale);

    TextTable t({"sampling", "slowdown", "est.misses", "s%", "ci95%",
                 "traps armed"});
    double truth = -1.0;
    for (unsigned denom : {1u, 2u, 4u, 8u, 16u}) {
        RunSpec spec;
        spec.workload = makeWorkload(workload, scale);
        spec.sys.scope = SimScope::all();
        spec.sim = SimKind::Tapeworm;
        spec.tw.cache = CacheConfig::icache(cache_kb * 1024ull);
        spec.tw.sampleNum = 1;
        spec.tw.sampleDenom = denom;

        auto outcomes = runTrials(spec, trials, 0x7ade, true);
        Summary misses = missSummary(outcomes);
        Summary slowdown = slowdownSummary(outcomes);
        if (truth < 0)
            truth = misses.mean;

        double traps = meanOf(outcomes, [](const RunOutcome &o) {
            return o.rawMisses; // each raw miss re-armed one trap
        });
        t.addRow({
            csprintf("1/%u", denom),
            fmtF(slowdown.mean, 2),
            fmtF(misses.mean, 0),
            csprintf("%.1f%%", misses.stddevPct()),
            csprintf("%.1f%%",
                     misses.mean > 0
                         ? 100.0 * misses.ci95() / misses.mean
                         : 0.0),
            fmtF(traps, 0),
        });
    }
    std::printf("%s\n", t.render().c_str());

    std::printf(
        "Reading the table:\n"
        " - slowdown falls ~linearly with the sampled fraction (the\n"
        "   hardware filters non-sample references at zero cost);\n"
        " - the estimator stays centred on the full-simulation value\n"
        "   (%.0f) but its confidence interval widens, so deeper\n"
        "   sampling buys speed at the price of more trials.\n",
        truth);
    return 0;
}
