/**
 * @file
 * Regenerates Table 11: Tapeworm code distribution. The paper's
 * portability claim is structural — only ~5% of the code is
 * machine-dependent. This experiment counts the lines of this
 * repository live and classifies them the same way:
 *
 *  - machine-dependent "kernel" code: the layer that touches real
 *    host trap primitives (src/utrap: mprotect/SIGSEGV) and the
 *    host trap-bit/ECC modelling (src/machine);
 *  - machine-independent kernel code: the simulator that lives in
 *    the (simulated) kernel — core Tapeworm + OS cooperation;
 *  - machine-independent user code: everything else (models,
 *    workloads, traces, harness).
 */

#include <cstdio>
#include <dirent.h>
#include <string>
#include <vector>

#include "util.hh"

using namespace twbench;

namespace
{

long
countLines(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    long lines = 0;
    int c;
    while ((c = std::fgetc(f)) != EOF) {
        if (c == '\n')
            ++lines;
    }
    std::fclose(f);
    return lines;
}

long
countDir(const std::string &dir)
{
    DIR *d = opendir(dir.c_str());
    if (!d)
        return 0;
    long total = 0;
    while (dirent *entry = readdir(d)) {
        std::string name = entry->d_name;
        if (name.size() > 3
            && (name.ends_with(".cc") || name.ends_with(".hh"))) {
            total += countLines(dir + "/" + name);
        }
    }
    closedir(d);
    return total;
}

std::string
srcRoot()
{
    // Run from anywhere inside the build tree: walk up looking for
    // the src directory.
    std::string prefix;
    for (int depth = 0; depth < 6; ++depth) {
        std::string candidate = prefix + "src/core";
        DIR *d = opendir(candidate.c_str());
        if (d) {
            closedir(d);
            return prefix + "src";
        }
        prefix += "../";
    }
    return "src";
}

ExperimentDef
make()
{
    ExperimentDef def;
    def.name = "table11";
    def.artifact = "Table 11";
    def.description = "code distribution (counted live)";
    def.report = "table11_code";
    def.scaleDiv = 200;
    def.banner = false; // prints its own header line
    def.grid = [](const RunExperimentOptions &) {
        return std::vector<ExperimentUnit>{};
    };
    def.present = [](ExperimentContext &ctx) {
        std::string root = srcRoot();
        long machine_dep = countDir(root + "/utrap")
                           + countDir(root + "/machine");
        long kernel_indep = countDir(root + "/core")
                            + countDir(root + "/os");
        long user_indep = countDir(root + "/base")
                          + countDir(root + "/mem")
                          + countDir(root + "/workload")
                          + countDir(root + "/trace")
                          + countDir(root + "/harness");
        long total = machine_dep + kernel_indep + user_indep;
        if (total == 0) {
            ctx.print("Table 11: source tree not found from cwd; run "
                      "from the build or repo directory.\n");
            return;
        }

        ctx.print("Table 11 — code distribution (this repository, "
                  "counted live; paper: 343/889/5652 = "
                  "5%%/13%%/82%%)\n");
        TextTable t({"code", "lines", "%"});
        auto pct = [&](long n) {
            return csprintf("%.0f%%",
                            100.0 * static_cast<double>(n)
                                / static_cast<double>(total));
        };
        t.addRow({"host-trap-primitive code (utrap + machine)",
                  csprintf("%ld", machine_dep), pct(machine_dep)});
        t.addRow({"kernel-resident simulator (core + os)",
                  csprintf("%ld", kernel_indep), pct(kernel_indep)});
        t.addRow({"machine-independent user code",
                  csprintf("%ld", user_indep), pct(user_indep)});
        t.addRule();
        t.addRow({"total", csprintf("%ld", total), "100%"});
        ctx.print("%s\n", t.render().c_str());
        ctx.print("Shape target: the code touching host trap "
                  "primitives is a small minority — the porting "
                  "surface (tw_set_trap/tw_clear_trap) is tiny.\n");
    };
    return def;
}

const ExperimentRegistrar reg(make());

} // namespace
