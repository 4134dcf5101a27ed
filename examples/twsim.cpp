/**
 * @file
 * twsim — command-line driver for the Tapeworm II reproduction.
 *
 * One binary to run any experiment the library supports: pick a
 * workload, a simulated cache, a simulator (trap/trace/oracle), a
 * component scope, sampling, trial count — get the paper's metrics
 * (misses, miss ratio, MPI, slowdown) as a table or CSV.
 *
 * Examples:
 *   twsim --workload mpeg_play --cache 4K --trials 4
 *   twsim --workload sdet --scope user --sim trace
 *   twsim --workload xlisp --cache 8K --assoc 2 --line 32 \
 *         --indexing virtual --sample 8 --trials 16 --csv
 *   twsim --list
 */

#include <cstdio>
#include <string>

#include "base/numparse.hh"
#include "harness/experiment.hh"
#include "harness/spec_flags.hh"
#include "harness/specio.hh"
#include "obs/trace.hh"
#include "tapeworm.hh"

using namespace tw;

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "twsim — trap-driven memory-system simulation "
        "(Tapeworm II)\n\n"
        "usage: twsim [options]\n"
        "  --workload NAME   one of the suite (default mpeg_play)\n"
        "  --list            list workloads and exit\n"
        "  --cache SIZE      e.g. 4K, 64K, 1M (default 4K)\n"
        "  --line BYTES      line size (default 16)\n"
        "  --assoc N         ways (default 1)\n"
        "  --indexing MODE   physical|virtual (default physical)\n"
        "  --policy NAME     fifo|random|lru (default: lru for DM,\n"
        "                    fifo above; lru valid for trace/oracle"
        " only)\n"
        "  --sim KIND        tapeworm|tlb|trace|oracle (default "
        "tapeworm)\n"
        "  --tlb-entries N   TLB entries for --sim tlb (default "
        "64)\n"
        "  --tlb-page SIZE   simulated page size (default 4K)\n"
        "  --kind KIND       instruction|data|unified (default "
        "instruction)\n"
        "  --scope SCOPE     all|user|servers|kernel (default all)\n"
        "  --sample N        simulate 1/N of the sets (default 1)\n"
        "  --cost-backend B  miss pricing: table5|ideal|\n"
        "                    dram[:k=v,...] (default table5)\n"
        "  --trials N        experimental trials (default 1)\n"
        "  --threads N       trial-dispatch workers (default:\n"
        "                    hardware threads; results identical\n"
        "                    for any N)\n"
        "  --seed SEED       base trial seed (default 1)\n"
        "  --scale N         divide paper instruction counts by N\n"
        "                    (default 200; with --experiment, the\n"
        "                    experiment's own)\n"
        "  --experiment NAME run a registered paper experiment\n"
        "                    (the registry bench_driver --list "
        "shows)\n"
        "                    instead of a hand-built sweep\n"
        "  --csv             CSV output\n"
        "  --trace-out FILE  write a Chrome trace-event JSON span\n"
        "                    trace (Perfetto-loadable) to FILE\n"
        "  --help            this text\n\n"
        "N and BYTES are positive integers, SEED any 64-bit "
        "unsigned\ninteger and SIZE a byte count of at least 64 "
        "with an optional\nK or M suffix; anything else exits "
        "2, as does an\nunknown option, a name outside a flag's "
        "list or a spec the\nstrict spec reader refuses (e.g. a "
        "line below 16 bytes).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned trials = 1;
    std::uint64_t seed = 1;
    std::string experiment;
    std::string tracePath;
    bool csv = false;
    const NumericFlags flags("twsim", usage);
    SpecFlags specFlags(flags);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (specFlags.take(arg, value))
            continue;
        if (arg == "--help") {
            usage(stdout);
            return 0;
        } else if (arg == "--list") {
            for (const auto &name : suiteNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (arg == "--trials") {
            trials = flags.positive(arg, value());
        } else if (arg == "--threads") {
            setDefaultThreads(flags.positive(arg, value()));
        } else if (arg == "--seed") {
            seed = flags.number(arg, value(), 0, UINT64_MAX);
        } else if (arg == "--experiment") {
            experiment = value();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--trace-out") {
            tracePath = value();
        } else {
            flags.refuse("unknown option '" + arg + "'");
        }
    }

    if (!tracePath.empty()) {
        std::string err;
        if (!obs::traceStart(tracePath, &err))
            fatal("--trace-out: %s", err.c_str());
    }

    // A registered experiment supersedes the hand-built sweep: the
    // same registry entry bench_driver and twserved run.
    if (!experiment.empty()) {
        const ExperimentDef *def =
            ExperimentRegistry::instance().find(experiment);
        if (!def)
            fatal("unknown experiment '%s' (bench_driver --list "
                  "shows the registry)",
                  experiment.c_str());
        TablePrinterSink table(stdout);
        RunExperimentOptions opts;
        opts.scaleDiv = specFlags.scaleSet ? specFlags.scale : 0;
        runExperiment(*def, table, opts);
        obs::traceStop(); // writes --trace-out, if armed
        return 0;
    }

    const RunSpec spec = specFlags.spec();
    auto outcomes = runTrials(spec, trials, seed, true);
    obs::traceStop(); // writes --trace-out, if armed

    TextTable t({"trial", "misses", "missRatio", "MPI", "slowdown",
                 "instr", "ticks", "host.s"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        t.addRow({
            csprintf("%zu", i + 1),
            fmtF(o.estMisses, 0),
            fmtF(o.missRatioTotal(), 4),
            fmtF(o.mpi(), 2),
            fmtF(o.slowdown, 2),
            csprintf("%llu",
                     (unsigned long long)o.run.totalInstr()),
            csprintf("%llu", (unsigned long long)o.run.ticks),
            fmtF(o.hostSeconds, 3),
        });
    }
    if (trials > 1) {
        Summary s = missSummary(outcomes);
        t.addRule();
        t.addRow({"mean", fmtF(s.mean, 0), "", "",
                  fmtF(slowdownSummary(outcomes).mean, 2), "", "",
                  ""});
        t.addRow({"s", fmtValAndPct(s.stddev, s.stddevPct(), 0), "",
                  "", "", "", "", ""});
    }

    if (!csv) {
        std::printf("workload=%s cache=%llu line=%u assoc=%u %s "
                    "%s sim=%s scope=%s sample=1/%u scale=1/%u\n\n",
                    specFlags.workload.c_str(),
                    (unsigned long long)specFlags.cacheBytes, specFlags.line,
                    specFlags.assoc, indexingName(spec.tw.cache.indexing),
                    replPolicyName(spec.tw.cache.policy),
                    simKindName(spec.sim), specFlags.scope.c_str(),
                    specFlags.sample, specFlags.scale);
        std::printf("%s", t.render().c_str());
    } else {
        std::printf("%s", t.renderCsv().c_str());
    }
    return 0;
}
