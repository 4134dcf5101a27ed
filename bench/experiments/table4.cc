/**
 * @file
 * Regenerates Table 4: workload and operating system summary —
 * instruction counts, run time, per-component time split and user
 * task counts, as measured by running each workload on the
 * simulated machine (the paper measured these with the Monster
 * logic analyzer).
 */

#include "util.hh"

using namespace twbench;

namespace
{

struct PaperRow
{
    const char *name;
    double instrM, secs, kern, bsd, x, user;
    unsigned tasks;
};

// Table 4 as published.
const PaperRow kPaper[] = {
    {"xlisp", 1412, 67.52, 7.3, 7.1, 0.0, 85.6, 1},
    {"espresso", 534, 26.80, 2.9, 1.9, 0.0, 95.1, 1},
    {"eqntott", 1306, 60.98, 1.5, 1.2, 0.0, 97.2, 1},
    {"mpeg_play", 1423, 95.53, 24.1, 27.3, 4.0, 44.6, 1},
    {"jpeg_play", 1793, 89.70, 9.1, 9.4, 2.6, 78.8, 1},
    {"ousterhout", 567, 37.89, 48.0, 31.4, 0.0, 20.6, 15},
    {"sdet", 823, 43.70, 43.7, 35.5, 0.0, 20.8, 281},
    {"kenbus", 176, 23.13, 48.9, 29.1, 0.0, 22.0, 238},
};

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table4";
    def.artifact = "Table 4";
    def.description = "workload and operating system summary";
    def.report = "table4_workloads";
    def.scaleDiv = 200;
    def.grid = [](const RunExperimentOptions &opts) {
        std::vector<ExperimentUnit> units;
        for (const auto &paper : kPaper) {
            RunSpec spec = defaultSpec(paper.name, opts);
            spec.sim = SimKind::None;
            units.push_back(unitOf(paper.name, spec,
                                   TrialPlan::one(1)));
        }
        return units;
    };
    def.present = [](ExperimentContext &ctx) {
        TextTable t({"workload", "Instr(10^6)", "RunTime(s)", "Kernel",
                     "BSDserv", "Xserv", "UserTasks", "TaskCount"});
        unsigned scale = ctx.scale();
        for (const auto &paper : kPaper) {
            const RunResult &r = ctx.outcome(paper.name).run;
            t.addRow({
                paper.name,
                fmtF(static_cast<double>(r.totalInstr()) * scale / 1e6,
                     0),
                fmtF(r.seconds() * scale, 2),
                csprintf("%.1f%%",
                         100 * r.instrFrac(Component::Kernel)),
                csprintf("%.1f%%", 100 * r.instrFrac(Component::Bsd)),
                csprintf("%.1f%%", 100 * r.instrFrac(Component::X)),
                csprintf("%.1f%%", 100 * r.instrFrac(Component::User)),
                csprintf("%u", r.tasksCreated),
            });
            t.addRow({
                "  (paper)",
                fmtF(paper.instrM, 0),
                fmtF(paper.secs, 2),
                csprintf("%.1f%%", paper.kern),
                csprintf("%.1f%%", paper.bsd),
                csprintf("%.1f%%", paper.x),
                csprintf("%.1f%%", paper.user),
                csprintf("%u", paper.tasks),
            });
        }
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Task counts for sdet/kenbus are scaled 1/4 with "
                  "the workload (see DESIGN.md).\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
