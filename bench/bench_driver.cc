/**
 * @file
 * The one bench binary: runs any experiment in the registry.
 *
 *   bench_driver --list
 *   bench_driver --run fig2 [--threads N] [--scale D] [--report]
 *                           [--rows PATH|-]
 *
 * Every setting arrives as a flag; the driver reads no environment.
 * It hard-errors on any flag it does not understand, and on a
 * malformed number.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/numparse.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "harness/experiment.hh"
#include "harness/specio.hh"
#include "obs/trace.hh"

using namespace tw;

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: bench_driver --list\n"
                 "       bench_driver --run <experiment> [options]\n"
                 "\n"
                 "options:\n"
                 "  --list           list registered experiments\n"
                 "  --run <name>     run one experiment\n"
                 "  --threads <n>    trial-dispatch threads "
                 "(default: all cores)\n"
                 "  --scale <d>      workload scale divisor "
                 "(default: the experiment's own)\n"
                 "  --report         write BENCH_<report>.json and "
                 "print the [report] extras\n"
                 "  --rows <path>    stream canonical NDJSON result "
                 "rows to <path> ('-' = stdout)\n"
                 "  --metrics        embed an obs-registry snapshot "
                 "under \"metrics\" in the BENCH report "
                 "(implies --report)\n"
                 "  --no-simd        force the scalar trap-bitmap "
                 "scans (same results, host-speed A/B)\n"
                 "  --sample         representative-interval "
                 "sampling on eligible units\n"
                 "  --sample-interval <n>  references per sampling "
                 "interval (default 16384; with --sample)\n"
                 "  --no-dma         no DMA frame recycling on the "
                 "sampling-eligible units (the sampled-vs-full "
                 "comparison protocol)\n"
                 "  --cost-backend <b>  miss-cost backend for every "
                 "unit: table5, ideal, or dram[:k=v,...]\n"
                 "  --ci-target <r>  stop each unit's trials once "
                 "the relative CI half-width reaches <r>\n"
                 "  --trace-out <f>  write a Chrome trace-event JSON "
                 "span trace (Perfetto-loadable) to <f>\n"
                 "  --help           this text\n"
                 "\n"
                 "<n>, <d> are positive integers and <r> a positive "
                 "number; anything else exits 2, as does a backend\n"
                 "the parser refuses.\n");
}

/** @p text as a finite positive number. */
bool
positiveReal(const char *text, double &out)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end || !std::isfinite(v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

void
listExperiments()
{
    auto &registry = ExperimentRegistry::instance();
    for (const std::string &name : registry.names()) {
        const ExperimentDef *def = registry.find(name);
        std::printf("%-20s %-12s %s\n", name.c_str(),
                    def->artifact.c_str(), def->description.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool list = false;
    bool metrics = false;
    std::string run_name;
    std::string rows_path;
    std::string trace_path;
    RunExperimentOptions opts;

    auto value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal("bench_driver: %s requires a value", flag);
        return argv[++i];
    };
    const NumericFlags flags("bench_driver", usage);

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            list = true;
        } else if (std::strcmp(arg, "--run") == 0) {
            run_name = value(i, "--run");
        } else if (std::strcmp(arg, "--threads") == 0
                   || std::strncmp(arg, "--threads=", 10) == 0) {
            const char *v =
                arg[9] == '=' ? arg + 10 : value(i, "--threads");
            setDefaultThreads(flags.positive("--threads", v));
        } else if (std::strcmp(arg, "--scale") == 0) {
            opts.scaleDiv = flags.positive("--scale", value(i, "--scale"));
        } else if (std::strcmp(arg, "--report") == 0) {
            opts.report = true;
        } else if (std::strcmp(arg, "--rows") == 0) {
            rows_path = value(i, "--rows");
        } else if (std::strcmp(arg, "--metrics") == 0) {
            metrics = true;
            opts.report = true;
        } else if (std::strcmp(arg, "--no-simd") == 0) {
            simd::setEnabled(false);
        } else if (std::strcmp(arg, "--sample") == 0) {
            opts.sample.enabled = true;
        } else if (std::strcmp(arg, "--sample-interval") == 0) {
            opts.sample.intervalRefs = flags.positive(
                "--sample-interval", value(i, "--sample-interval"));
        } else if (std::strcmp(arg, "--no-dma") == 0) {
            opts.noDma = true;
        } else if (std::strcmp(arg, "--ci-target") == 0) {
            const char *v = value(i, "--ci-target");
            if (!positiveReal(v, opts.stopRule.ciRelTarget))
                flags.malformed("--ci-target", v);
            opts.stopRule.enabled = true;
        } else if (std::strcmp(arg, "--cost-backend") == 0) {
            // Validate here: a typo must die before the workload
            // warms up.
            std::string err;
            if (!parseCostBackendSpec(value(i, "--cost-backend"),
                                      opts.costBackend, err))
                flags.refuse(std::string("--cost-backend: ") + err);
        } else if (std::strcmp(arg, "--trace-out") == 0) {
            trace_path = value(i, "--trace-out");
        } else if (std::strcmp(arg, "--help") == 0
                   || std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "bench_driver: unknown option %s\n",
                         arg);
            usage(stderr);
            return 2;
        }
    }

    if (list) {
        listExperiments();
        return 0;
    }
    if (run_name.empty()) {
        usage(stderr);
        return 2;
    }

    const ExperimentDef *def =
        ExperimentRegistry::instance().find(run_name);
    if (!def) {
        std::fprintf(stderr,
                     "bench_driver: unknown experiment '%s' "
                     "(--list shows the registry)\n",
                     run_name.c_str());
        return 2;
    }

    MultiSink sinks;
    TablePrinterSink table(stdout);
    sinks.add(&table);

    std::FILE *rows_file = nullptr;
    std::unique_ptr<NdjsonSink> rows;
    if (!rows_path.empty()) {
        rows_file = rows_path == "-"
                        ? stdout
                        : std::fopen(rows_path.c_str(), "w");
        if (!rows_file)
            fatal("bench_driver: cannot open %s", rows_path.c_str());
        rows = std::make_unique<NdjsonSink>(rows_file);
        sinks.add(rows.get());
    }

    std::unique_ptr<JsonReportSink> json;
    if (opts.report && !def->report.empty()) {
        json = std::make_unique<JsonReportSink>(
            def->report, def->name, "bench_driver");
        json->setIncludeObsMetrics(metrics);
        sinks.add(json.get());
    }

    if (!trace_path.empty()) {
        std::string err;
        if (!obs::traceStart(trace_path, &err))
            fatal("bench_driver: --trace-out: %s", err.c_str());
    }

    runExperiment(*def, sinks, opts);

    obs::traceStop(); // writes --trace-out, if armed

    if (rows_file && rows_file != stdout)
        std::fclose(rows_file);
    return 0;
}
