/**
 * @file
 * twbench: the repository benchmark's program.
 *
 *   twbench --workload NAME --seed N --seconds S --trace 0|1
 *           --expected perfbench/expected.json --workdir DIR
 *   twbench --workload hits|misses --record     (print digests)
 *
 * Runs one workload, checks every op's output, and prints one JSON
 * line last on stdout: {"correct","attempted","failed","metrics"}.
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones (README.md lists both, and which layer moves which metric).
 * Everything else goes to stderr.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "base/logging.hh"
#include "bench.hh"

using namespace twbench;
using tw::csprintf;
using tw::fatal;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

// The two metric sets every workload prints, in this order. They must
// match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"op_rel_p50", "x"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"refs_per_s", "1/s"},
    {"op_p10_ms", "ms"},
    {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},
    {"op_samples", "count"},
    {"rows_per_s", "1/s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.dropped_events", "count"},
    {"harness.run_one_ms", "ms"},
    {"workload.ns_per_ref", "ns"},
    {"os.ns_per_ref", "ns"},
    {"os.refs_chunked", "count"},
    {"os.refs_filtered", "count"},
    {"os.probe_hits", "count"},
    {"os.probe_skips", "count"},
    {"os.utlb_misses", "count"},
    {"core.miss_ns", "ns"},
    {"core.probe_traps", "count"},
    {"core.traps_fetch", "count"},
    {"core.traps_load", "count"},
    {"core.traps_store", "count"},
    {"core.traps_set", "count"},
    {"core.traps_cleared", "count"},
    {"machine.trap_set_ns", "ns"},
    {"machine.trap_clear_ns", "ns"},
    {"mem.flushes_ranged", "count"},
    {"mem.flushes_scan", "count"},
    {"cost.events", "count"},
    {"cost.cycles", "count"},
    {"sim.cycles", "count"},
    {"sim.misses", "count"},
    {"harness.fingerprint_us", "us"},
    {"harness.cache_key_us", "us"},
    {"harness.spec_format_us", "us"},
    {"harness.spec_parse_us", "us"},
    {"harness.spec_bytes", "count"},
    {"serve.seeds_per_req", "count"},
    {"serve.requests", "count"},
    {"serve.parse_ms", "ms"},
    {"serve.admit_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.stream_ms", "ms"},
    {"router.route_ms", "ms"},
    {"router.commit_ms", "ms"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.run_us_p50", "us"},
    {"serve.rows_cached", "count"},
    {"serve.rows_computed", "count"},
    {"serve.rows_streamed", "count"},
    {"serve.net_flushes", "count"},
    {"serve.rows_per_flush", "count"},
    {"router.rows_merged", "count"},
    {"router.rows_buffered", "count"},
    {"router.fanout_commits", "count"},
    {"serve.rejected_overloaded", "count"},
};

const char *const kWorkloads[] = {"hits", "misses", "served_cached"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "twbench: %s\nusage: twbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --expected FILE --workdir DIR\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--record") {
            opt.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--expected")
            opt.expectedPath = v;
        else if (a == "--workdir")
            opt.workdir = v;
        else
            usage(("unknown option " + a).c_str());
        if (end && *end)
            usage(("bad number " + v).c_str());
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || opt.workload == w;
    if (!known)
        usage("unknown workload");
    if (!(opt.seconds > 0.0) || opt.expectedPath.empty()
        || opt.workdir.empty())
        usage("need --seconds > 0, --expected and --workdir");
    return opt;
}

/** Print @p res with exactly the metrics of @p defs, in order. */
void
printResult(const Result &res, const MetricDef *defs, std::size_t n)
{
    std::string out = csprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        res.correct && res.failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(res.attempted),
        static_cast<unsigned long long>(res.failed));
    std::set<std::string> printed;
    for (std::size_t i = 0; i < n; ++i) {
        const Metric *m = nullptr;
        for (const Metric &c : res.metrics)
            if (c.name == defs[i].name)
                m = &c;
        if (!m || m->unit != defs[i].unit || !std::isfinite(m->value))
            fatal("twbench: metric %s missing or malformed", defs[i].name);
        printed.insert(m->name);
        out += csprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m->name.c_str(), m->value,
                        m->unit.c_str());
    }
    for (const Metric &c : res.metrics)
        if (!printed.count(c.name))
            fatal("twbench: metric %s is not in the metric set",
                  c.name.c_str());
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const bool engine = opt.workload == "hits" || opt.workload == "misses";
    if (opt.record) {
        if (!engine)
            usage("--record takes an engine workload");
        return recordDigests(opt);
    }

    std::fprintf(stderr, "twbench: workload=%s seed=%llu seconds=%g "
                         "trace=%d %s\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.trace ? 1 : 0, hostFingerprint().c_str());
    Result res = engine ? runEngineWorkload(opt) : runServedWorkload(opt);
    if (opt.trace)
        res.add("obs.dropped_events",
                static_cast<double>(res.droppedEvents), "count");

    for (const std::string &note : res.notes)
        std::fprintf(stderr, "twbench: %s\n", note.c_str());
    std::fprintf(stderr, "twbench: fail_rate %.6f (%llu of %llu ops)\n",
                 res.attempted
                     ? static_cast<double>(res.failed)
                           / static_cast<double>(res.attempted)
                     : 1.0,
                 static_cast<unsigned long long>(res.failed),
                 static_cast<unsigned long long>(res.attempted));
    for (const Metric &m : res.metrics)
        std::fprintf(stderr, "twbench:   %-26s %18.6f %s\n",
                     m.name.c_str(), m.value, m.unit.c_str());
    if (opt.trace)
        printResult(res, kPerLayer, std::size(kPerLayer));
    else
        printResult(res, kEndToEnd, std::size(kEndToEnd));
    return 0;
}
