/**
 * @file
 * Isolating multi-task and OS interference with Tapeworm
 * attributes.
 *
 * The paper's Section 3.3: "by allowing different combinations of
 * tasks to have their cache effects simulated or not, Tapeworm
 * attributes enable experiments that measure and isolate task
 * interference effects." This example runs the OS-heavy sdet
 * workload four times — user tasks only, servers only, kernel only,
 * everything — and decomposes the total miss ratio into component
 * and interference parts, then shows how the picture changes with
 * cache size.
 *
 * Usage: multitask_interference [workload]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/table.hh"
#include "harness/runner.hh"
#include "workload/spec.hh"

using namespace tw;

namespace
{

RunOutcome
runScoped(const std::string &workload, unsigned scale,
          std::uint64_t cache_bytes, SimScope scope)
{
    RunSpec spec;
    spec.workload = makeWorkload(workload, scale);
    spec.sys.scope = scope;
    spec.sim = SimKind::Tapeworm;
    spec.tw.cache = CacheConfig::icache(cache_bytes);
    return Runner::runOne(spec, 42);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "sdet";
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 200);

    std::printf("Component isolation for '%s' (scaled 1/%u)\n\n",
                workload.c_str(), scale);

    TextTable t({"cache", "user", "servers", "kernel", "all",
                 "interference", "interference%"});
    for (std::uint64_t kb : {1, 4, 16, 64}) {
        RunOutcome user =
            runScoped(workload, scale, kb * 1024, SimScope::userOnly());
        RunOutcome servers = runScoped(workload, scale, kb * 1024,
                                       SimScope::serversOnly());
        RunOutcome kernel = runScoped(workload, scale, kb * 1024,
                                      SimScope::kernelOnly());
        RunOutcome all =
            runScoped(workload, scale, kb * 1024, SimScope::all());

        double sum = user.estMisses + servers.estMisses
                     + kernel.estMisses;
        double interference = all.estMisses - sum;
        t.addRow({
            csprintf("%lluK", (unsigned long long)kb),
            fmtF(user.estMisses, 0),
            fmtF(servers.estMisses, 0),
            fmtF(kernel.estMisses, 0),
            fmtF(all.estMisses, 0),
            fmtF(interference, 0),
            csprintf("%.0f%%", 100.0 * interference / all.estMisses),
        });
    }
    std::printf("%s\n", t.render().c_str());

    std::printf(
        "Reading the table:\n"
        " - a user-level tracer (Pixie-style) would only ever see\n"
        "   the 'user' column — a fraction of the real misses;\n"
        " - interference (misses caused by components evicting each\n"
        "   other) is largest where the combined working set is\n"
        "   near the cache size and vanishes for large caches.\n");
    return 0;
}
