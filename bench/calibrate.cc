/**
 * @file
 * Calibration diagnostic: prints, for each workload, the measured
 * component time split (target: Table 4), the per-component 4 KB
 * miss ratios (target: Table 6), and the user miss-ratio-vs-size
 * curve for mpeg_play (target: Figure 2). Not one of the paper's
 * tables itself, but the tool used to keep the synthetic suite
 * honest — run it after touching workload/spec.cc.
 */

#include <cstdio>
#include <cstdlib>

#include "base/table.hh"
#include "harness/runner.hh"
#include "harness/trials.hh"
#include "workload/spec.hh"

using namespace tw;

namespace
{

RunSpec
baseSpec(const WorkloadSpec &wl, SimScope scope)
{
    RunSpec spec;
    spec.workload = wl;
    spec.sys.scope = scope;
    spec.sim = SimKind::Oracle;
    spec.tw.cache = CacheConfig::icache(4096);
    return spec;
}

} // namespace

int
main()
{
    unsigned scale = parseScaleDiv(std::getenv("TW_SCALE_DIV"), 100);

    std::printf("== component split and 4K dedicated miss ratios "
                "(scale 1/%u) ==\n", scale);
    TextTable table({"workload", "kern%", "bsd%", "x%", "user%",
                     "m4k.user", "m4k.kern", "m4k.srv", "tasks",
                     "Minstr", "sim.s"});
    for (const auto &name : suiteNames()) {
        WorkloadSpec wl = makeWorkload(name, scale);

        auto user = Runner::runOne(baseSpec(wl, SimScope::userOnly()), 7);
        auto kern =
            Runner::runOne(baseSpec(wl, SimScope::kernelOnly()), 7);
        auto srv =
            Runner::runOne(baseSpec(wl, SimScope::serversOnly()), 7);

        const RunResult &r = user.run;
        double total = static_cast<double>(r.totalInstr());
        double server_instr =
            static_cast<double>(
                r.instr[static_cast<unsigned>(Component::Bsd)])
            + static_cast<double>(
                r.instr[static_cast<unsigned>(Component::X)]);

        table.addRow({
            name,
            fmtF(100.0 * r.instrFrac(Component::Kernel), 1),
            fmtF(100.0 * r.instrFrac(Component::Bsd), 1),
            fmtF(100.0 * r.instrFrac(Component::X), 1),
            fmtF(100.0 * r.instrFrac(Component::User), 1),
            fmtF(user.estMisses
                     / static_cast<double>(r.instr[static_cast<unsigned>(
                           Component::User)]),
                 4),
            fmtF(kern.estMisses
                     / static_cast<double>(
                           kern.run.instr[static_cast<unsigned>(
                               Component::Kernel)]),
                 4),
            fmtF(srv.estMisses / server_instr, 4),
            csprintf("%u", user.run.tasksCreated),
            fmtF(total / 1e6, 2),
            fmtF(user.run.seconds(), 2),
        });
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("== mpeg_play user miss ratio vs cache size "
                "(Figure 2 target: .118 .097 .064 .023 .017 .002) ==\n");
    WorkloadSpec mpeg = makeWorkload("mpeg_play", scale);
    TextTable fig2({"size", "m.virt", "m.phys"});
    for (std::uint64_t kb : {1, 2, 4, 8, 16, 32, 64, 128}) {
        RunSpec spec = baseSpec(mpeg, SimScope::userOnly());
        spec.tw.cache =
            CacheConfig::icache(kb * 1024, 16, 1, Indexing::Virtual);
        auto virt = Runner::runOne(spec, 7);
        spec.tw.cache =
            CacheConfig::icache(kb * 1024, 16, 1, Indexing::Physical);
        auto phys = Runner::runOne(spec, 7);
        fig2.addRow({csprintf("%lluK", (unsigned long long)kb),
                     fmtF(virt.missRatioUser(), 4),
                     fmtF(phys.missRatioUser(), 4)});
    }
    std::printf("%s\n", fig2.render().c_str());
    return 0;
}
