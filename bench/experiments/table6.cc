/**
 * @file
 * Regenerates Table 6: miss count and miss ratio contributions of
 * the workload components. Each component (user tasks, servers,
 * kernel) runs in a dedicated 4 KB direct-mapped cache via Tapeworm
 * attribute scoping; "All Activity" shares one cache; Interference
 * is the excess of the shared run over the component sum. "From
 * Traces" is the Pixie+Cache2000 result, available only for the
 * single-user-task workloads.
 */

#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    const char *name;
    double traces, user, servers, kernel, all, interference;
};

// Table 6 as published, misses in millions.
const PaperRow kPaper[] = {
    {"eqntott", 0.06, 0.07, 2.52, 2.44, 8.44, 3.41},
    {"espresso", 1.60, 1.80, 2.28, 1.96, 9.53, 3.49},
    {"jpeg_play", 2.98, 3.14, 14.58, 9.21, 36.28, 9.35},
    {"kenbus", -1, 7.50, 11.89, 12.78, 45.70, 13.53},
    {"mpeg_play", 37.63, 37.91, 33.92, 19.27, 112.5, 21.39},
    {"ousterhout", -1, 1.93, 18.62, 21.72, 61.39, 19.12},
    {"sdet", -1, 20.14, 25.18, 18.09, 104.6, 41.25},
    {"xlisp", 85.77, 90.02, 6.31, 2.98, 135.8, 36.55},
};

std::string
cell(double misses_m, double total_instr_m)
{
    return fmtMissAndRatio(misses_m, misses_m / total_instr_m);
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table6";
    def.artifact = "Table 6";
    def.description =
        "miss contributions per workload component (4KB DM)";
    def.report = "table6_components";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            RunSpec spec = defaultSpec(paper.name, opts);

            auto scoped = [&](const char *tag, SimScope scope) {
                RunSpec s = spec;
                s.sys.scope = scope;
                units.push_back(unitOf(
                    csprintf("%s/%s", tag, paper.name), s,
                    TrialPlan::one(7)));
            };
            scoped("user", SimScope::userOnly());
            scoped("servers", SimScope::serversOnly());
            scoped("kernel", SimScope::kernelOnly());
            scoped("all", SimScope::all());

            if (paper.traces >= 0) {
                RunSpec ts = spec;
                ts.sys.scope = SimScope::userOnly();
                ts.sim = SimKind::TraceDriven;
                ts.c2k.cache = CacheConfig::icache(4096, 16, 1,
                                                   Indexing::Virtual);
                units.push_back(unitOf(
                    csprintf("traces/%s", paper.name), ts,
                    TrialPlan::one(7)));
            }
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        unsigned scale = ctx.scale();
        TextTable t({"workload", "FromTraces", "UserTasks", "Servers",
                     "Kernel", "AllActivity", "Interference"});
        for (const auto &paper : kPaper) {
            const RunOutcome &user =
                ctx.outcome(csprintf("user/%s", paper.name));
            const RunOutcome &servers =
                ctx.outcome(csprintf("servers/%s", paper.name));
            const RunOutcome &kernel =
                ctx.outcome(csprintf("kernel/%s", paper.name));
            const RunOutcome &all =
                ctx.outcome(csprintf("all/%s", paper.name));

            double instr_m = paperMillions(
                static_cast<double>(all.run.totalInstr()), scale);
            double u = paperMillions(user.estMisses, scale);
            double s = paperMillions(servers.estMisses, scale);
            double k = paperMillions(kernel.estMisses, scale);
            double a = paperMillions(all.estMisses, scale);
            double interference = a - u - s - k;

            std::string traces_cell = "--";
            if (paper.traces >= 0) {
                const RunOutcome &trace =
                    ctx.outcome(csprintf("traces/%s", paper.name));
                traces_cell = cell(
                    paperMillions(trace.estMisses, scale), instr_m);
            }

            t.addRow({paper.name, traces_cell, cell(u, instr_m),
                      cell(s, instr_m), cell(k, instr_m),
                      cell(a, instr_m), cell(interference, instr_m)});
            t.addRow({"  (paper)",
                      paper.traces >= 0 ? fmtF(paper.traces, 2) : "--",
                      fmtF(paper.user, 2), fmtF(paper.servers, 2),
                      fmtF(paper.kernel, 2), fmtF(paper.all, 2),
                      fmtF(paper.interference, 2)});
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape targets: servers+kernel dominate the "
                  "OS-intensive workloads; user-only simulation (or "
                  "traces) misses most of the activity; All > sum of "
                  "components (interference > 0).\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
