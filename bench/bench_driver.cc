/**
 * @file
 * The one bench binary: runs any experiment in the registry.
 *
 *   bench_driver --list
 *   bench_driver --run fig2 [--threads N] [--scale D] [--report]
 *                           [--rows PATH|-]
 *
 * The driver hard-errors on any flag it does not understand.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/cost/cost_backend.hh"
#include "harness/experiment.hh"
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
                 "(default: TW_THREADS or all cores)\n"
                 "  --scale <d>      override the workload scale "
                 "divisor (default: TW_SCALE_DIV or the "
                 "experiment's own)\n"
                 "  --report         write BENCH_<report>.json and "
                 "print the [report] extras\n"
                 "  --rows <path>    stream canonical NDJSON result "
                 "rows to <path> ('-' = stdout)\n"
                 "  --metrics        embed an obs-registry snapshot "
                 "under \"metrics\" in the BENCH report "
                 "(implies --report)\n"
                 "  --no-simd        force the scalar trap-bitmap "
                 "scans (same results, host-speed A/B; equivalent "
                 "to TW_NO_SIMD=1)\n"
                 "  --sample         representative-interval "
                 "sampling on eligible units (equivalent to "
                 "TW_SAMPLE=1; TW_SAMPLE_* tune it)\n"
                 "  --cost-backend <b>  miss-cost backend for every "
                 "unit: table5, ideal, or dram[:k=v,...] "
                 "(equivalent to TW_COST_BACKEND=<b>)\n"
                 "  --ci-target <r>  stop each unit's trials once "
                 "the relative CI half-width reaches <r> "
                 "(equivalent to TW_CI_TARGET=<r>)\n"
                 "  --trace-out <f>  write a Chrome trace-event JSON "
                 "span trace (Perfetto-loadable) to <f>\n"
                 "  --help           this text\n");
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
    bool report = false;
    bool metrics = false;
    std::string run_name;
    std::string rows_path;
    std::string trace_path;
    unsigned scale_override = 0;

    auto value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal("bench_driver: %s requires a value", flag);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            list = true;
        } else if (std::strcmp(arg, "--run") == 0) {
            run_name = value(i, "--run");
        } else if (std::strcmp(arg, "--threads") == 0) {
            setDefaultThreads(static_cast<unsigned>(
                std::atoi(value(i, "--threads"))));
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            setDefaultThreads(
                static_cast<unsigned>(std::atoi(arg + 10)));
        } else if (std::strcmp(arg, "--scale") == 0) {
            scale_override = static_cast<unsigned>(
                std::atoi(value(i, "--scale")));
        } else if (std::strcmp(arg, "--report") == 0) {
            report = true;
        } else if (std::strcmp(arg, "--rows") == 0) {
            rows_path = value(i, "--rows");
        } else if (std::strcmp(arg, "--metrics") == 0) {
            metrics = true;
            report = true;
        } else if (std::strcmp(arg, "--no-simd") == 0) {
            simd::setEnabled(false);
        } else if (std::strcmp(arg, "--sample") == 0) {
            // Grids read the environment (applySampleEnv), so the
            // flag and TW_SAMPLE=1 are the same switch.
            setenv("TW_SAMPLE", "1", 1);
        } else if (std::strcmp(arg, "--ci-target") == 0) {
            setenv("TW_CI_TARGET", value(i, "--ci-target"), 1);
        } else if (std::strcmp(arg, "--cost-backend") == 0) {
            // Validate eagerly (a typo should die here, not after
            // the workload warms up), then hand the spec to the
            // grids through the same environment knob scripts use.
            const char *val = value(i, "--cost-backend");
            CostBackendConfig cfg;
            std::string err;
            if (!parseCostBackendSpec(val, cfg, err))
                fatal("bench_driver: --cost-backend: %s",
                      err.c_str());
            setenv("TW_COST_BACKEND", val, 1);
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
    if (report && !def->report.empty()) {
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

    RunExperimentOptions opts;
    opts.scaleDiv = scale_override;
    opts.report = report;
    runExperiment(*def, sinks, opts);

    obs::traceStop(); // writes --trace-out, if armed

    if (rows_file && rows_file != stdout)
        std::fclose(rows_file);
    return 0;
}
