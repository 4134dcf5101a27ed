/**
 * @file
 * Quickstart: simulate one workload's I-cache with Tapeworm.
 *
 * Builds the simulated machine, attaches a trap-driven Tapeworm
 * simulator for a 4 KB direct-mapped cache, runs the mpeg_play
 * workload, and reports the misses, miss ratio and the slowdown the
 * instrumentation itself caused — the three numbers at the heart of
 * the paper.
 *
 * Usage: quickstart [workload] [cache_kb]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/runner.hh"
#include "workload/spec.hh"

using namespace tw;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "mpeg_play";
    unsigned cache_kb =
        argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 200);

    // 1. Describe the experiment: which workload, which simulated
    //    cache, and which workload components Tapeworm registers.
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.sys.scope = SimScope::all(); // user + servers + kernel
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(cache_kb * 1024ull);

    // 2. Run it. runWithSlowdown also runs the uninstrumented
    //    baseline so the overhead can be expressed as the paper's
    //    Slowdown metric.
    RunOutcome out = Runner::runWithSlowdown(spec, /*trial_seed=*/1);

    // 3. Report.
    std::printf("workload            : %s (scaled 1/%u)\n",
                workload.c_str(), scale);
    std::printf("simulated cache     : %u KB direct-mapped, "
                "16-byte lines, %s-indexed\n",
                cache_kb, indexingName(spec.tw.cache.indexing));
    std::printf("instructions        : %llu\n",
                static_cast<unsigned long long>(out.run.totalInstr()));
    std::printf("cache misses        : %.0f\n", out.estMisses);
    std::printf("miss ratio          : %.4f\n", out.missRatioTotal());
    std::printf("  user              : %.0f\n",
                out.missesByComp[static_cast<unsigned>(
                    Component::User)]);
    std::printf("  servers           : %.0f\n", out.serverMisses());
    std::printf("  kernel            : %.0f\n",
                out.missesByComp[static_cast<unsigned>(
                    Component::Kernel)]);
    std::printf("normal run time     : %.3f simulated seconds\n",
                static_cast<double>(out.normalCycles)
                    / static_cast<double>(kClockHz));
    std::printf("tapeworm slowdown   : %.2fx\n", out.slowdown);
    std::printf("host time           : %.3f s\n", out.hostSeconds);
    return 0;
}
